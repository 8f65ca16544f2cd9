"""The audit contract: ``bpfcontain run`` on each benchmark workload at the
pinned seed writes exactly the audit bytes whose SHA-256 is pinned in
``perfbench/reference.json``."""

import hashlib
import json
from pathlib import Path

import pytest

from bpfcontain.cli import main

from corpus import workloads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(REFERENCE["audit_sha256"]))
def test_audit_bytes_match_the_pinned_sha256(name, tmp_path, capsys):
    workload = workloads.build(name, REFERENCE["seed"])
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    workload.write_policies(str(policy_dir))
    trace = tmp_path / "trace.jsonl"
    workload.write_trace(str(trace))
    audit = tmp_path / "audit.jsonl"

    assert main(["--policy-dir", str(policy_dir), *workload.capacity_args(),
                 "run", "--trace", str(trace), "--audit", str(audit)]) == 0
    assert "dropped" not in capsys.readouterr().out
    assert hashlib.sha256(audit.read_bytes()).hexdigest() == REFERENCE["audit_sha256"][name]
