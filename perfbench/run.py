#!/usr/bin/env python3
"""Pipeline benchmark: ``bpfcontain run`` end to end, and per layer when traced.

    python3 perfbench/run.py --workload steady_mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload (policies and a
JSONL trace) is generated from the seed; the program only sees those files.
Each measured run is one ``bpfcontain run`` process, started the way the
console script starts it, with ``src`` on ``PYTHONPATH``: closed loop, one
process at a time, cyclic GC on.

Before anything is timed, one run's audit file is checked record by
record against the rule-walking oracle in ``tests/oracle.py``; at the
default seed its SHA-256 must also equal the one in ``reference.json``.
Every later run must reproduce that audit byte for byte, exit 0 and drop
no audit record (the audit capacity exceeds the event count), or it counts
as failed.

``--trace 0`` reports the end-to-end metrics, medians over runs;
``--trace 1`` alternates untraced and traced runs (``tracer.py``) and
reports the per-layer metrics, each the median over traced runs.  Times
are reported at a reference machine speed (see ``SpeedProbe``); the raw
medians go to the metadata line.  The last stdout line is the JSON result;
the line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7           # least header-only runs per invocation; setup_s is their median
MIN_RUNS = 3
RUN_TIMEOUT_S = 60
PROBE_LINES = 30_000
PROBE_REFERENCE_S = 0.2  # the probe's time on an unloaded 2-vCPU VM (Python 3.11)
# What the ``bpfcontain`` console script runs, plus a report of the process's
# peak RSS.  ru_maxrss from wait4 cannot be used: exec records the spawning
# process's high-water mark in it, so it reads at least this benchmark's size.
ENTRY = """\
import sys
from bpfcontain.cli import main
rc = main()
with open("/proc/self/status", encoding="ascii") as fh:
    hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
sys.stderr.write(f"VmHWM {hwm[0]} kB\\n" if hwm else "")
sys.exit(rc)
"""

END_TO_END_UNITS = {"events_per_s": "events/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Starts ``bpfcontain run`` processes on one workload's files."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.policy_dir = work / "policies"
        self.trace = work / "trace.jsonl"
        self.empty_trace = work / "header_only.jsonl"
        self.audit = work / "audit.jsonl"
        self.policy_dir.mkdir(parents=True)
        workload.write_policies(str(self.policy_dir))
        workload.write_trace(str(self.trace))
        self.empty_trace.write_text('{"format":1}\n', encoding="utf-8")
        pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    def cli_args(self, trace: Path) -> list[str]:
        return (["--policy-dir", str(self.policy_dir)] + self.workload.capacity_args()
                + ["run", "--trace", str(trace), "--audit", str(self.audit)])

    def run(self, trace: Path, spans: Path | None = None) -> dict:
        """One process; returns wall time, peak RSS (untraced runs), exit code and output."""
        if spans is None:
            argv = [sys.executable, "-c", ENTRY]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--"]
        argv += self.cli_args(trace)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            # wait(timeout=...) polls, which would blur the wall time; an
            # alarm kills a hung run instead
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, RUN_TIMEOUT_S)
            try:
                proc.wait()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        hwm = [line.split()[1] for line in stderr.splitlines() if line.startswith("VmHWM ")]
        return {"wall_s": wall, "rss_mb": int(hwm[-1]) / 1024 if hwm else None,
                "rc": proc.returncode, "stderr": stderr,
                "stdout": out_path.read_text(encoding="utf-8", errors="replace")}

    def audit_sha256(self) -> str:
        digest = hashlib.sha256()
        with open(self.audit, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()


class SpeedProbe:
    """How much slower than the reference the machine runs right now.

    Hosts shared with other tenants change speed by up to 2x within tens of
    seconds, which no number of runs averages away.  The probe is a fixed
    pure-Python job of the kind the pipeline does (JSON decode into objects
    that are kept, an ancestor walk over a large dict, f-strings, JSON
    encode), timed in this process before and after every run.  The mean of
    the two, over ``PROBE_REFERENCE_S``, is that run's slowdown factor, and
    the run's times are divided by it: they read as if measured at the
    reference speed.
    """

    def __init__(self):
        rng = random.Random(0x5EED)
        self.lines = [json.dumps({
            "seq": i, "pid": rng.randrange(500), "requested": rng.choice(("r", "rw", "w")),
            "path": "/data/" + "/".join(str(rng.randrange(3000)) for _ in range(5)),
        }) for i in range(PROBE_LINES)]
        self.table = {f"/data/{i}/{j}": (i, j) for i in range(3000) for j in range(0, 3000, 97)}
        self.factors: list[float] = []

    def _work(self):
        table, kept, out = self.table, [], []
        for line in self.lines:
            obj = json.loads(line)
            kept.append(obj)
            anc, hit = obj["path"], None
            while anc != "/" and hit is None:
                cut = anc.rfind("/")
                anc = anc[:cut] if cut > 0 else "/"
                hit = table.get(anc)
            out.append(json.dumps({"seq": obj["seq"], "allow": hit is not None,
                                   "reason": f"rule {anc} {obj['requested']}"},
                                  separators=(",", ":")))
        return kept, out

    def measure(self) -> float:
        """Probe now; returns the factor for the interval since the previous probe."""
        t0 = time.perf_counter()
        self._work()
        self.factors.append((time.perf_counter() - t0) / PROBE_REFERENCE_S)
        return statistics.fmean(self.factors[-2:])


def run_problem(result: dict, n_events: int) -> str | None:
    """Why a run of the full trace failed, or None."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"
    summary = result["stdout"].strip().splitlines()[-1:] or [""]
    fields = dict(part.split("=", 1) for part in summary[0].split() if "=" in part)
    if fields.get("events") != str(n_events):
        return f"summary does not report {n_events} events: {summary[0]!r}"
    if fields.get("dropped", "0") != "0":
        return f"audit records dropped: {fields['dropped']}"
    return None


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bpfcontain pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/bpfcontain/cli.py", "tests/oracle.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from a bpfcontain source checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads
    import oracle_check
    import tracer
    import bpfcontain

    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.GENERATORS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed)
        runner = Runner(workload, work)
        ref_sha, checked, problems = check_reference(args, workload, runner, oracle_check)
        samples = measure(args, runner, ref_sha, tracer, problems)
        report(args, workload, bpfcontain.BACKEND, ref_sha, checked, samples, tracer, problems)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_reference(args, workload, runner, oracle_check):
    """One untimed run whose audit the oracle checks record by record.

    Returns (audit SHA-256, records checked, problems found).
    """
    result = runner.run(runner.trace)
    problem = run_problem(result, len(workload.events))
    sha, checked = None, 0
    if problem is None:
        sha = runner.audit_sha256()
        checked, problem = oracle_check.check_audit(workload, str(runner.audit))
    problems = [] if problem is None else [f"reference run: {problem}"]
    pinned = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = pinned["audit_sha256"].get(args.workload) if args.seed == pinned["seed"] else None
    if sha and expected and sha != expected:
        problems.append(f"audit SHA-256 {sha} differs from {expected}, "
                        f"pinned in reference.json for seed {args.seed}")
    return sha, checked, problems


def measure(args, runner, ref_sha, tracer, problems) -> dict:
    """Closed-loop runs until ``--seconds`` have passed.

    Untraced mode follows each full run with a header-only run (setup time);
    traced mode alternates untraced and traced runs, at least one of each.
    Each sample is divided by the slowdown the probes on either side of it
    measured.
    """
    n_events = len(runner.workload.events)
    s = {"rates": [], "walls": [], "raw_walls": [], "rss": [], "setup": [], "raw_setup": [],
         "traced_walls": [], "layers": [], "extras": [], "attempted": 0, "failed": 0}
    probe = SpeedProbe()
    probe.measure()

    def setup_run():
        result = runner.run(runner.empty_trace)
        if result["rc"] == 0:
            return result["wall_s"]
        problems.append(f"header-only run: exit code {result['rc']}")
        return None

    def add_setup(wall, slow):
        if wall is not None:
            s["setup"].append(wall / slow)
            s["raw_setup"].append(wall)

    min_runs = 2 if args.trace else MIN_RUNS
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or s["attempted"] < min_runs:
        traced = bool(args.trace) and s["attempted"] % 2 == 1
        spans = runner.work / "spans.bin" if traced else None
        result = runner.run(runner.trace, spans)
        s["attempted"] += 1
        problem = run_problem(result, n_events)
        if problem is None and runner.audit_sha256() != ref_sha:
            problem = "audit differs from the oracle-checked reference run"
        if problem is None and not traced and result["rss_mb"] is None:
            problem = "peak RSS not reported"
        if problem is None and traced:
            layers, extra = tracer.derive(str(spans), runner.audit.stat().st_size)
        setup_wall = None if args.trace else setup_run()
        slow = probe.measure()
        add_setup(setup_wall, slow)
        wall = result["wall_s"]
        if problem is not None:
            s["failed"] += 1
            problems.append(f"run {s['attempted']}: {problem}")
        elif traced:
            s["traced_walls"].append(wall / slow)
            s["layers"].append({name: value / slow if value is not None
                                and tracer.unit_of(name) in ("s", "us") else value
                                for name, value in layers.items()})
            s["extras"].append(extra)
        else:
            s["walls"].append(wall / slow)
            s["raw_walls"].append(wall)
            s["rates"].append(n_events / wall * slow)
            s["rss"].append(result["rss_mb"])
    while not args.trace and len(s["setup"]) < SETUP_REPS:
        setup_wall = setup_run()
        add_setup(setup_wall, probe.measure())
    s["probe"] = probe.factors
    return s


def report(args, workload, backend, ref_sha, checked, s, tracer, problems):
    """Print the metadata line, then the result line."""
    n_events = len(workload.events)
    if args.trace:
        metrics = {}
        for name in s["layers"][0] if s["layers"] else []:
            values = [run[name] for run in s["layers"]]
            if any(v is None for v in values):
                problems.append(f"per-layer metric {name} has too few samples")
                continue
            metrics[name] = {"value": median(values), "unit": tracer.unit_of(name)}
        overhead = (median(s["traced_walls"]) / median(s["walls"]) - 1
                    if s["walls"] and s["traced_walls"] else 0.0)
        metrics["tracing_overhead_share"] = {"value": overhead, "unit": "share"}
    else:
        values = {"events_per_s": median(s["rates"]), "setup_s": median(s["setup"]),
                  "peak_rss_mb": median(s["rss"])}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    extras = s["extras"]
    meta = {
        "workload": args.workload, "seed": args.seed, "events": n_events,
        "event_kinds": workload.kind_counts(), "lifecycle_share": workload.lifecycle_share(),
        "nproc": os.cpu_count(), "python": sys.version.split()[0], "backend": backend,
        "runs": s["attempted"],
        "failed_share": {"value": s["failed"] / s["attempted"], "unit": "share"},
        "oracle_checked_records": checked, "audit_sha256": ref_sha,
        "slowdown": median(s["probe"]), "probe_slowdowns": [round(f, 4) for f in s["probe"]],
        "raw_events_per_s": median([n_events / w for w in s["raw_walls"]]),
        "raw_setup_s": median(s["raw_setup"]), "setup_runs": len(s["setup"]),
        "run_walls_s": [round(w, 4) for w in s["raw_walls"]],
        "extra_percentiles": {k: median([e[k] for e in extras if k in e])
                              for k in sorted({k for e in extras for k in e})},
        "problems": problems[:20],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not problems, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
