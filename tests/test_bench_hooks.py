"""The benchmark's tracer still hooks the pipeline.

``perfbench/tracer.py:install`` wraps names in ``bpfcontain`` where their
callers look them up: ``cli.parse_trace``, the kernels as ``core.<fn>``,
``trace.decide``, the ``ContainerState`` methods, ``AuditRecord.to_json``
and ``AuditLog.write``.  A refactor that renames or drops one of them breaks
every traced benchmark run; this test replays a small steady_mix trace
under the tracer so the breakage shows here first.
"""

import os
import subprocess
import sys
from pathlib import Path

from corpus import load_perfbench, workloads

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# a child process, so install()'s wrappers never reach this test session
CHILD = f"""
import sys
sys.path.insert(0, {str(TESTS)!r})
from corpus import load_perfbench
sys.exit(load_perfbench("tracer").main(sys.argv[1:]))
"""


def test_traced_replay_records_every_hooked_layer(tmp_path):
    workload = workloads.steady_mix(5, 3000)
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    workload.write_policies(str(policy_dir))
    trace = tmp_path / "trace.jsonl"
    workload.write_trace(str(trace))
    audit = tmp_path / "audit.jsonl"
    spans = tmp_path / "spans.bin"

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(spans), "--", "--policy-dir", str(policy_dir),
         *workload.capacity_args(), "run", "--trace", str(trace), "--audit", str(audit)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr

    metrics, _ = load_perfbench("tracer").derive(str(spans), audit.stat().st_size)
    assert metrics["core.file_access.calls"] > 0
    assert metrics["core.socket_op.calls"] > 0
    assert metrics["state.confine.calls"] > 0
    assert metrics["trace.audit.render_s"] > 0
    records = len(audit.read_text(encoding="utf-8").splitlines()) - 1  # less the header
    assert records > 0
    assert metrics["trace.audit.records"] == records
