"""Tests of the benchmark itself: generators, workload shapes, smoke runs.

    python3 -m pytest perfbench -q

The smoke runs replay each workload at its full size, so this takes a
couple of minutes.
"""

import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.GENERATORS)


def trace_digest(workload):
    return hashlib.sha256("".join(workload.trace_lines()).encode()).hexdigest()


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


def test_benchmark_lists_the_generated_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES


def digests_in_subprocess(hash_seed):
    code = ("import hashlib, workloads; print([hashlib.sha256(''.join("
            "workloads.build(n, 7).trace_lines()).encode()).hexdigest() "
            "for n in workloads.GENERATORS])")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=120, env={"PYTHONHASHSEED": str(hash_seed)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_trace_other_seed_other_trace(name):
    first = trace_digest(workloads.build(name, 7))
    assert trace_digest(workloads.build(name, 7)) == first
    assert trace_digest(workloads.build(name, 8)) != first


def test_traces_do_not_depend_on_string_hashing():
    assert digests_in_subprocess(1) == digests_in_subprocess(2)


def test_steady_mix_is_the_acceptance_suite_workload():
    from corpus import WORKLOAD_POLICIES, synthetic_workload
    from bpfcontain.trace import write_trace

    assert workloads.STEADY_POLICIES == WORKLOAD_POLICIES
    for n, seed in ((workloads.EVENTS["steady_mix"], workloads.DEFAULT_SEED), (5000, 3)):
        _, events = synthetic_workload(n, seed)
        buf = io.StringIO()
        write_trace(events, buf)
        assert "".join(workloads.steady_mix(seed, n).trace_lines()) == buf.getvalue()


def test_lifecycle_share_by_workload():
    assert workloads.build("lifecycle_churn", 1).lifecycle_share() >= 0.25
    assert workloads.build("steady_mix", 1).lifecycle_share() <= 0.05


@pytest.mark.parametrize("name", NAMES)
def test_percentile_kinds_have_enough_samples(name):
    counts = workloads.build(name, 1).kind_counts()
    for kind in tracer.PERCENTILE_KINDS:
        assert counts.get(kind, 0) >= 1000, kind


def test_percentile_needs_ten_samples_beyond():
    assert tracer.percentile_us(list(range(1000)), 0.99) == 0.989
    assert tracer.percentile_us(list(range(999)), 0.99) is None
    assert tracer.percentile_us(list(range(20)), 0.5) == 0.009


def test_layer_map_covers_every_per_layer_metric():
    groups = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["groups"]
    mapped = [m for group in groups for m in group["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCHMARK["per_layer"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_run(name):
    """Oracle and pinned-SHA checks pass, nothing is dropped, shape holds."""
    meta, result = result_of(run_bench("--workload", name, "--seed",
                                       str(workloads.DEFAULT_SEED), "--seconds", "0",
                                       "--trace", "1"))
    assert result["correct"], meta["problems"]
    assert result["failed"] == 0
    assert meta["oracle_checked_records"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for spec in BENCHMARK["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["trace.audit.dropped"]["value"] == 0
    assert metrics["trace.audit.records"]["value"] == meta["oracle_checked_records"]
    repeat = metrics["core.file_access.repeat_share"]["value"]
    if name == "steady_mix":
        assert repeat >= 0.9
    if name == "cold_paths":
        assert repeat <= 0.1


def test_untraced_smoke_run():
    meta, result = result_of(run_bench("--workload", "steady_mix", "--seed", "5",
                                       "--seconds", "0", "--trace", "0"))
    assert result["correct"], meta["problems"]
    assert result["attempted"] >= 3 and result["failed"] == 0
    for spec in BENCHMARK["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert meta["failed_share"]["value"] == 0
    assert meta["backend"] and meta["nproc"] and meta["python"]


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "steady_mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
