"""Traced ``bpfcontain run``: spans around each module's public functions.

Run as a program, this wraps the functions each pipeline layer exposes,
then runs the CLI exactly as the ``bpfcontain`` entry point does::

    python3 perfbench/tracer.py SPANS_FILE -- --policy-dir D run --trace T --audit A

A span is (name, start, end, parent), kept in flat arrays while the run
lasts and written to ``SPANS_FILE`` (with counters in ``SPANS_FILE.json``)
when it ends.  ``derive`` turns that file into the per-layer metrics.

Wrappers replace the name the caller looks up: ``cli`` binds
``parse_trace``, ``replay`` and the policy/compiler functions at import,
``trace`` binds ``decide``, the engine calls the kernels as
``core.<fn>``, and state and audit methods are looked up on the class.
``ContainerState.lookup`` is counted, not timed: it is called for every
event and its cost would be mostly the wrapper's.  The file-kernel wrapper
hashes its arguments (for ``repeat_share``) outside its own span, so that
cost lands in the engine's self time; ``tracing_overhead_share`` reports
what all wrappers cost together.
"""

from __future__ import annotations

import array
import json
import os
import sys
from time import perf_counter_ns

MEDIATED_KINDS = ("FileAccess", "SocketOp", "IpcOp", "CapabilityUse",
                  "CommitCreds", "SwitchNamespaces", "HardeningOp")
# kinds every workload has at least 1000 of, so a p99 has 10 samples beyond it
PERCENTILE_KINDS = ("FileAccess", "SocketOp", "IpcOp", "CapabilityUse", "HardeningOp")


def rss_mb() -> float:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.file_args: set[int] = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, before=None, after=None, by_kind=False):
        """``fn`` wrapped in a span; ``by_kind`` names it after the first argument's type."""
        nid = self.name_id(name)
        kind_ids = {}
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            if by_kind:
                kind = type(args[0]).__name__
                kid = kind_ids.get(kind)
                if kid is None:
                    kid = kind_ids[kind] = self.name_id(f"{name}.{kind}")
                names.append(kid)
            else:
                names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def count(self, name, fn):
        self.counters[name] = 0
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str):
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"spans": len(self.name), "names": self.names, "counters": self.counters}
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def install(tracer: Tracer):
    """Wrap the pipeline's public functions where their callers look them up."""
    from bpfcontain import cli, compiler, core, state, trace

    c = tracer.counters

    def after_compile(args, store):
        c["compiler.entries"] = sum(store.count(cat) for cat in compiler.MAP_CATEGORIES)

    def after_parse(args, events):
        c["trace.rss_after_parse_mb"] = rss_mb()
        c["trace.events"] = len(events)

    def after_replay(args, result):
        c["trace.rss_after_replay_mb"] = rss_mb()
        log = result[1]
        c["trace.audit.records"] = len(log.records)
        c["trace.audit.dropped"] = log.dropped

    def after_write(args, result):
        c["trace.rss_after_write_mb"] = rss_mb()

    file_args = tracer.file_args

    def before_file(args, kwargs):
        # kernel tables are sealed per-policy dicts: their identity is their value
        file_args.add(hash((*map(id, args[:4]), *args[4:], *sorted(kwargs.items()))))

    c["state.containers_hwm"] = 0
    c["state.pids_hwm"] = 0

    def after_grow(args, result):
        st = args[0]
        c["state.containers_hwm"] = max(c["state.containers_hwm"], len(st.containers))
        c["state.pids_hwm"] = max(c["state.pids_hwm"], len(st.processes))

    span = tracer.span
    cli.load_policy_dir = span("policy.load_policy_dir", cli.load_policy_dir)
    cli.validate_policy_set = span("policy.validate_policy_set", cli.validate_policy_set)
    cli.compile_policies = span("compiler.compile_policies", cli.compile_policies,
                                after=after_compile)
    cli.parse_trace = span("trace.parse_trace", cli.parse_trace, after=after_parse)
    cli.replay = span("trace.replay", cli.replay, after=after_replay)
    trace.decide = span("engine.decide", trace.decide, by_kind=True)
    core.decide_file_access = span("core.file_access", core.decide_file_access,
                                   before=before_file)
    core.decide_socket_op = span("core.socket_op", core.decide_socket_op)
    cs = state.ContainerState
    cs.lookup = tracer.count("state.lookup.calls", cs.lookup)
    cs.confine = span("state.confine", cs.confine, after=after_grow)
    cs.on_fork = span("state.fork", cs.on_fork, after=after_grow)
    cs.on_exit = span("state.exit", cs.on_exit)
    cs.taint = span("state.taint", cs.taint)
    trace.AuditRecord.to_json = span("trace.audit.render", trace.AuditRecord.to_json)
    trace.AuditLog.write = span("trace.audit.write", trace.AuditLog.write, after=after_write)
    return cli


# --- deriving per-layer metrics ------------------------------------------------------

_UNIT_SUFFIXES = (("_s", "s"), ("_us", "us"), ("_us_per_event", "us"), ("_mb", "MB"), ("share", "share"),
                  ("bytes", "bytes"))


def unit_of(metric: str) -> str:
    for suffix, unit in _UNIT_SUFFIXES:
        if metric.endswith(suffix):
            return unit
    return "count"


def percentile_us(durations_ns: list[int], q: float) -> float | None:
    """Nearest-rank percentile, or None unless at least 10 samples lie beyond it."""
    n = len(durations_ns)
    rank = max(1, -(-int(q * 1000) * n // 1000))
    if n - rank < 10:
        return None
    return sorted(durations_ns)[rank - 1] / 1000


def load_spans(path: str):
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = []
    with open(path, "rb") as fh:
        for code in ("i", "i", "q", "q"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return meta, arrays


def derive(path: str, audit_bytes: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from one span file: (declared metrics, extra percentiles)."""
    meta, (names, parents, starts, ends) = load_spans(path)
    labels = meta["names"]
    counters = meta["counters"]
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]

    total: dict[str, int] = {}
    self_time: dict[str, int] = {}
    calls: dict[str, int] = {}
    samples: dict[str, list[int]] = {}
    for i, nid in enumerate(names):
        label = labels[nid]
        total[label] = total.get(label, 0) + dur[i]
        self_time[label] = self_time.get(label, 0) + dur[i] - child[i]
        calls[label] = calls.get(label, 0) + 1
        if label.startswith("engine.decide.") or label == "core.file_access":
            samples.setdefault(label, []).append(dur[i])

    def sec(label, table=total):
        return table.get(label, 0) / 1e9

    events = counters.get("trace.events", 0)
    decide = [f"engine.decide.{k}" for k in MEDIATED_KINDS]
    m = {
        "policy.load_s": sec("policy.load_policy_dir") + sec("policy.validate_policy_set"),
        "compiler.compile_s": sec("compiler.compile_policies"),
        "compiler.entries": counters.get("compiler.entries", 0),
        "trace.parse_s": sec("trace.parse_trace"),
        "trace.parse_us_per_event": sec("trace.parse_trace") / max(events, 1) * 1e6,
        "trace.rss_after_parse_mb": counters.get("trace.rss_after_parse_mb", 0.0),
        "trace.replay_self_s": sec("trace.replay", self_time),
        "engine.decide_s": sum(sec(k) for k in decide),
        "engine.decide_self_s": sum(sec(k, self_time) for k in decide),
    }
    extra = {}
    for kind in MEDIATED_KINDS:
        label = f"engine.decide.{kind}"
        m[f"{label}.calls"] = calls.get(label, 0)
        for q, tag in ((0.5, "p50_us"), (0.99, "p99_us")):
            value = percentile_us(samples.get(label, []), q)
            if kind in PERCENTILE_KINDS:
                m[f"{label}.{tag}"] = value
            elif value is not None:
                extra[f"{label}.{tag}"] = value
    file_calls = calls.get("core.file_access", 0)
    m.update({
        "core.file_access.calls": file_calls,
        "core.file_access_s": sec("core.file_access"),
        "core.file_access.p99_us": percentile_us(samples.get("core.file_access", []), 0.99),
        "core.file_access.repeat_share":
            1 - counters.get("core.file_access.distinct", 0) / file_calls if file_calls else 0.0,
        "core.socket_op.calls": calls.get("core.socket_op", 0),
        "core.socket_op_s": sec("core.socket_op"),
        "state.lookup.calls": counters.get("state.lookup.calls", 0),
        "state.confine.calls": calls.get("state.confine", 0),
        "state.fork.calls": calls.get("state.fork", 0),
        "state.exit.calls": calls.get("state.exit", 0),
        "state.taint.calls": calls.get("state.taint", 0),
        "state.lifecycle_s": sec("state.confine") + sec("state.fork") + sec("state.exit"),
        "state.containers_hwm": counters.get("state.containers_hwm", 0),
        "state.pids_hwm": counters.get("state.pids_hwm", 0),
        "trace.audit.records": counters.get("trace.audit.records", 0),
        "trace.audit.dropped": counters.get("trace.audit.dropped", 0),
        "trace.audit.render_s": sec("trace.audit.render"),
        "trace.audit.write_s": sec("trace.audit.write", self_time),
        "trace.audit.bytes": audit_bytes,
        "trace.rss_after_replay_mb": counters.get("trace.rss_after_replay_mb", 0.0),
        "trace.rss_after_write_mb": counters.get("trace.rss_after_write_mb", 0.0),
    })
    return m, extra


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: tracer.py SPANS_FILE -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = install(tracer)
    rc = cli.main(cli_args)
    tracer.counters["core.file_access.distinct"] = len(tracer.file_args)
    tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
