"""Streaming ``bpfcontain run``: events parsed lazily, audit records written as
they are decided, and an audit file that appears only when the run succeeds."""

import collections
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import bpfcontain
from bpfcontain.cli import main
from bpfcontain.compiler import compile_policies
from bpfcontain.errors import MalformedEvent
from bpfcontain.policy import parse_policy
from bpfcontain.trace import AuditWriter, Exit, TraceEvent, iter_trace, replay

from corpus import synthetic_workload, workloads

SRC = Path(bpfcontain.__file__).resolve().parent.parent

# one confined process reading its tty 400 times: about 24 KB of trace and of
# audit, so both files are past their first buffer when a bad last line comes
_GOOD = [{"seq": 1, "kind": "confine", "pid": 1, "policy_name": "hello_minimal"}] + [
    {"seq": seq, "kind": "FileAccess", "pid": 1, "path": "/dev/tty", "requested": "r"}
    for seq in range(2, 402)]


def _trace_bytes(objs, tail=b""):
    lines = [json.dumps({"format": 1})] + [json.dumps(o) for o in objs]
    return ("\n".join(lines) + "\n").encode() + tail


def _run_audit(policy_dir, trace, audit, *flags):
    return main(["--policy-dir", str(policy_dir), *flags, "run",
                 "--trace", str(trace), "--audit", str(audit)])


# --- the parser ------------------------------------------------------------------

def test_iter_trace_yields_an_event_before_reading_the_next_line():
    def lines():
        yield '{"format": 1}'
        yield '{"seq": 1, "kind": "exit", "pid": 7}'
        raise AssertionError("read past line 2")

    assert next(iter_trace(lines())) == TraceEvent(1, Exit(7))


def test_iter_trace_raises_a_later_error_only_when_it_gets_there():
    events = iter_trace(['{"format": 1}', '{"seq": 1, "kind": "exit", "pid": 7}', "{oops"])
    assert next(events) == TraceEvent(1, Exit(7))
    with pytest.raises(MalformedEvent, match="line 3: invalid JSON"):
        next(events)


# The most Python-level calls one replayed event may cost, parse through
# audit line: each call the per-event path makes adds to every event.
CALLS_PER_EVENT = 15


def test_replay_stays_within_the_per_event_call_budget():
    workload = workloads.steady_mix(5, 3000)
    store = compile_policies([parse_policy(text) for _, text in workload.policies])
    lines = list(workload.trace_lines())
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        _, log = replay(iter_trace(lines), store, records=AuditWriter(io.StringIO().write))
    finally:
        sys.setprofile(None)
    assert log.events == 3000
    per_event = sum(calls.values()) / log.events
    # on failure, say where the calls went
    most = ", ".join(
        f"{code.co_name} ({os.path.basename(code.co_filename)}:{code.co_firstlineno})"
        f" {n / log.events:.2f}" for code, n in calls.most_common(5))
    assert per_event <= CALLS_PER_EVENT, (
        f"{per_event:.2f} Python calls per event, budget {CALLS_PER_EVENT}; most: {most}")


# --- the records sink ------------------------------------------------------------

@pytest.mark.parametrize("capacity", [1, 700, 100_000])
def test_audit_writer_writes_what_the_kept_log_writes(capacity):
    store, events = synthetic_workload(3000, 5)
    _, kept = replay(events, store, audit_capacity=capacity)
    buf = io.StringIO()
    kept.write(buf)

    streamed_buf = io.StringIO()
    _, streamed = replay(events, store, audit_capacity=capacity,
                         records=AuditWriter(streamed_buf.write))
    assert streamed_buf.getvalue() == buf.getvalue()
    assert len(streamed.records) == len(kept.records)
    assert streamed.summary() == kept.summary()
    assert streamed.outcomes == kept.outcomes

    _, counted = replay(events, store, audit_capacity=capacity, records=AuditWriter())
    assert len(counted.records) == len(kept.records)
    assert counted.summary() == kept.summary()


# --- the audit file --------------------------------------------------------------

_BAD_LAST_LINES = {
    "malformed": b'{"seq": 402, "kind": "exit", "pid": 1, "oops": 1}\n',
    "invalid-json": b'{"seq": 402, "kind":\n',
    "out-of-order": b'{"seq": 3, "kind": "exit", "pid": 1}\n',
    "non-utf8": b'{"seq": 402, "kind": "confine", "pid": 5, "policy_name": "hello_\xff"}\n',
}


@pytest.mark.parametrize("existing", [None, b'{"format":1}\nthe last good audit\n'],
                         ids=["no-audit-file", "audit-file"])
@pytest.mark.parametrize("tail", list(_BAD_LAST_LINES.values()), ids=list(_BAD_LAST_LINES))
def test_run_with_a_bad_last_line_exits_3_and_writes_no_audit(policy_dir, tmp_path, tail,
                                                              existing):
    out = tmp_path / "out"
    out.mkdir()
    audit = out / "audit.jsonl"
    if existing is not None:
        audit.write_bytes(existing)
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD, tail))

    assert _run_audit(policy_dir, trace, audit) == 3
    assert os.listdir(out) == ([] if existing is None else ["audit.jsonl"])
    if existing is not None:
        assert audit.read_bytes() == existing


def test_run_replaces_an_existing_audit_file_on_success(policy_dir, tmp_path):
    audit = tmp_path / "audit.jsonl"
    audit.write_text("stale\n" * 10_000)
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    assert _run_audit(policy_dir, trace, audit) == 0
    lines = audit.read_text().splitlines()
    assert lines[0] == '{"format":1}'
    assert [json.loads(line)["decision"] for line in lines[1:]] == ["Created", "Allow"]
    assert sorted(os.listdir(tmp_path)) == ["audit.jsonl", "hello_minimal.yml",
                                            "hello_taint.yml", "t.jsonl"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000], ids=oct)
def test_run_audit_file_gets_the_mode_open_w_gives(policy_dir, tmp_path, umask):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    audit, reference = tmp_path / "audit.jsonl", tmp_path / "reference"
    old = os.umask(umask)
    try:
        with open(reference, "w"):
            pass
        assert _run_audit(policy_dir, trace, audit) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(audit.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_run_keeps_the_mode_of_an_existing_audit_file(policy_dir, tmp_path):
    # open(path, "w") on an existing file keeps its mode, whatever the umask
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    audit = tmp_path / "audit.jsonl"
    audit.write_text("old\n")
    audit.chmod(0o640)
    assert _run_audit(policy_dir, trace, audit) == 0
    assert stat.S_IMODE(audit.stat().st_mode) == 0o640


def test_run_audit_capacity_caps_the_written_records(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    audit = tmp_path / "audit.jsonl"
    assert _run_audit(policy_dir, trace, audit, "--capacity", "audit=1") == 0
    lines = audit.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == '{"format":1}'
    assert json.loads(lines[1])["decision"] == "Created"
    assert capsys.readouterr().out == "events=2 allows=1 denies=0 kills=0 taints=0 dropped=1\n"


def test_run_unwritable_audit_path_exits_2_before_the_trace_is_read(policy_dir, tmp_path,
                                                                     capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD, _BAD_LAST_LINES["malformed"]))
    assert _run_audit(policy_dir, trace, tmp_path / "missing" / "audit.jsonl") == 2
    assert capsys.readouterr().err.startswith("error: I/O error in run: ")
    assert not (tmp_path / "missing").exists()



# --- audit paths that are not a plain file -------------------------------------------

def _expected_audit(policy_dir, tmp_path, trace):
    reference = tmp_path / "reference.jsonl"
    assert _run_audit(policy_dir, trace, reference) == 0
    return reference.read_bytes()


@pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
def test_run_through_a_symlink_updates_its_target_and_keeps_the_link(policy_dir, tmp_path,
                                                                      existing):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    expected = _expected_audit(policy_dir, tmp_path, trace)
    logs, links = tmp_path / "logs", tmp_path / "links"
    logs.mkdir()
    links.mkdir()
    target, link = logs / "audit.jsonl.1", links / "audit.jsonl"
    if existing:
        target.write_text("old\n")
    link.symlink_to(target)

    assert _run_audit(policy_dir, trace, link) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected
    assert os.listdir(logs) == ["audit.jsonl.1"]
    assert os.listdir(links) == ["audit.jsonl"]


def test_run_read_only_audit_file_fares_as_open_w_fares(policy_dir, tmp_path):
    # open(path, "w") refuses a 0444 file, except to root, who may write it
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    expected = _expected_audit(policy_dir, tmp_path, trace)
    probe, audit = tmp_path / "probe", tmp_path / "audit.jsonl"
    for path in (probe, audit):
        path.write_text("old\n")
        path.chmod(0o444)
    try:
        open(probe, "w").close()
    except PermissionError:
        assert _run_audit(policy_dir, trace, audit) == 2
        assert audit.read_text() == "old\n"
    else:
        assert _run_audit(policy_dir, trace, audit) == 0
        assert audit.read_bytes() == expected
    assert stat.S_IMODE(audit.stat().st_mode) == 0o444
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".audit-")]


@pytest.mark.parametrize("may_chown", [True, False], ids=["chown", "no-chown"])
def test_run_keeps_the_owner_of_an_existing_audit_file(policy_dir, tmp_path, monkeypatch,
                                                       may_chown):
    # a file someone else owns is given the temp file its owner, or, where
    # that is refused, written in place
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    expected = _expected_audit(policy_dir, tmp_path, trace)
    audit = tmp_path / "audit.jsonl"
    audit.write_text("old\n")
    if os.geteuid() == 0:
        os.chown(audit, 65534, 65534)
    audit.chmod(0o666)
    before = audit.stat()
    if not may_chown:
        def refuse(*args):
            raise PermissionError(1, "Operation not permitted")
        monkeypatch.setattr(os, "fchown", refuse)
    assert _run_audit(policy_dir, trace, audit) == 0
    after = audit.stat()
    assert (after.st_uid, after.st_gid) == (before.st_uid, before.st_gid)
    assert audit.read_bytes() == expected
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".audit-")]


def test_run_writes_a_hard_linked_audit_file_in_place(policy_dir, tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    expected = _expected_audit(policy_dir, tmp_path, trace)
    audit, other = tmp_path / "audit.jsonl", tmp_path / "other-name"
    audit.write_text("old\n")
    os.link(audit, other)
    assert _run_audit(policy_dir, trace, audit) == 0
    assert audit.stat().st_nlink == 2
    assert other.read_bytes() == expected


@pytest.mark.parametrize("via_symlink", [False, True], ids=["fifo", "symlink-to-fifo"])
def test_run_writes_the_lines_into_a_fifo(policy_dir, tmp_path, via_symlink):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    expected = _expected_audit(policy_dir, tmp_path, trace)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    audit = fifo
    if via_symlink:
        audit = tmp_path / "audit.jsonl"
        audit.symlink_to(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert _run_audit(policy_dir, trace, audit) == 0
    reader.join(timeout=30)
    assert received == [expected]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".audit-")]


def test_run_directory_as_audit_path_exits_2(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(_trace_bytes(_GOOD[:2]))
    assert _run_audit(policy_dir, trace, tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: I/O error in run: ")

# --- a million events --------------------------------------------------------------

# steady_mix at seed 24301 with 1,000,000 events; every record was checked
# against tests/oracle.py (perfbench/oracle_check.check_audit)
MILLION_SHA256 = "c7294ea66b963debfd318e3b59ec965733cf7242cae74bc184a978d9a1741dec"
# what ``bpfcontain`` runs, then the process's peak RSS on stderr
_ENTRY = """\
import sys
from bpfcontain.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    sys.stderr.write("".join(line for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
"""


@pytest.mark.slow
def test_a_million_events_replay_in_flat_memory(tmp_path):
    workload = workloads.steady_mix(24301, 1_000_000)
    policy_dir = tmp_path / "policies"
    policy_dir.mkdir()
    workload.write_policies(str(policy_dir))
    trace = tmp_path / "trace.jsonl"
    workload.write_trace(str(trace))
    capacity_args = workload.capacity_args()
    del workload  # the generator's million dicts need not outlive the trace file

    audit = tmp_path / "audit.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, "--policy-dir", str(policy_dir), *capacity_args,
         "run", "--trace", str(trace), "--audit", str(audit)],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("events=1000000 ")
    digest = hashlib.sha256()
    with open(audit, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    assert digest.hexdigest() == MILLION_SHA256
    [hwm_kb] = [int(line.split()[1]) for line in proc.stderr.splitlines()
                if line.startswith("VmHWM:")]
    assert hwm_kb < 64 * 1024
