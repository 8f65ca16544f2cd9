"""``bpfcontain run`` parses in a forked child: events cross a pipe as flat
tuples, errors come after the events before them, no child outlives a run,
no file descriptor is left open, and a run leaves the collector's freeze as
it found it until the process exits."""

import enum
import gc
import inspect
import json
import marshal
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given

import bpfcontain
from bpfcontain import cli, errors, transport
from bpfcontain.cli import main
from bpfcontain.errors import BpfcontainError, MalformedEvent
from bpfcontain.events import (
    CapabilityUse,
    CommitCreds,
    FileAccess,
    FsKind,
    HardeningKind,
    HardeningOp,
    IpcMechanism,
    IpcOp,
    PrivLevel,
    SocketFamily,
    SocketOp,
    SocketOpKind,
    SwitchNamespaces,
)
from bpfcontain.trace import Confine, Exit, Fork, TraceEvent, iter_trace

from test_properties import PROPERTY_SETTINGS, traces


@pytest.fixture(autouse=True)
def deadline():
    """A run that blocks on the pipe fails its test after 60 s, not hangs the suite."""
    def expire(signum, frame):
        pytest.fail("the run hung")  # not an OSError, which the run would report as exit 2

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


# --- the package's errors cross a process boundary ------------------------------------

# one instance of every class in errors.py
_ERRORS = [
    errors.BpfcontainError("base"),
    errors.PolicyParseError("parse"),
    errors.MalformedYaml("yaml"),
    errors.MissingField("entry"),
    errors.EmptyName("empty"),
    errors.UnknownRuleKind("files"),
    errors.BadAccessFlags("rq"),
    errors.InvalidPath("etc", "must be absolute"),
    errors.BadNetworkCategory("peer"),
    errors.UnknownCapability("CAP_NOPE"),
    errors.MalformedRule("rule"),
    errors.CompileError("compile"),
    errors.CapacityExceeded("file", 3),
    errors.StateError("state"),
    errors.AlreadyConfined(7),
    errors.UnknownPolicy("web"),
    errors.ContainerTableFull(2),
    errors.DuplicatePid(9),
    errors.TraceError("trace"),
    errors.OutOfOrderTrace(5),
    errors.MalformedEvent(12, "missing field 'pid'"),
]


def test_every_error_class_is_in_the_round_trip_list():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, BpfcontainError)}
    assert classes == {type(exc) for exc in _ERRORS}


@pytest.mark.parametrize("exc", _ERRORS, ids=lambda exc: type(exc).__name__)
def test_an_error_survives_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


# --- the flat form ----------------------------------------------------------------------

_EVERY_KIND = [
    TraceEvent(1, FileAccess(1, "/etc/hosts", 5, FsKind.PROCFS, 2**64 - 1, 4)),
    TraceEvent(2, SocketOp(1, SocketFamily.UNIX, SocketOpKind.SHUTDOWN)),
    TraceEvent(3, IpcOp(1, 2, IpcMechanism.SHMEM)),
    TraceEvent(4, CapabilityUse(1, "CAP_KILL", False)),
    TraceEvent(5, CommitCreds(1, PrivLevel(1000, frozenset({"CAP_KILL"})), PrivLevel(0))),
    TraceEvent(6, SwitchNamespaces(1)),
    TraceEvent(7, HardeningOp(1, HardeningKind.UNLINK_PINNED_OBJECT)),
    TraceEvent(8, Confine(1, "web", 3, 4)),
    TraceEvent(9, Fork(1, 2)),
    TraceEvent(10, Exit(2)),
]


def test_the_flat_forms_cover_every_kind():
    assert {type(te.event) for te in _EVERY_KIND} == {cls for cls, _, _ in transport._FORMS}


@PROPERTY_SETTINGS
@given(traces())
@example(_EVERY_KIND)
def test_every_kind_decodes_to_an_equal_event(events):
    decoded = transport.decode(marshal.loads(marshal.dumps(
        [transport.encode(te) for te in events])))
    assert decoded == events  # (seq, event) pairs, equal to TraceEvents
    for (_, event), original in zip(decoded, events):
        assert type(event) is type(original.event)
        for name in event.__slots__:
            value, want = getattr(event, name), getattr(original.event, name)
            if isinstance(want, enum.IntEnum):
                assert value is want
            elif isinstance(want, PrivLevel):
                assert type(value) is PrivLevel


# --- errors come in order ---------------------------------------------------------------

_HEADER = json.dumps({"format": 1})


def _exits(n):
    return [json.dumps({"seq": seq, "kind": "exit", "pid": seq}) for seq in range(1, n + 1)]


def _then_raise(lines, exc):
    yield from lines
    raise exc


@pytest.fixture
def forks(monkeypatch):
    """The forks made while the test runs: the transport must be on its forked path."""
    made = []
    fork = os.fork

    def counting_fork():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exc", [
    MalformedEvent(1000, "unknown fields for exit: ['oops']"),
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
    OSError(5, "Input/output error"),
], ids=lambda exc: type(exc).__name__)
def test_an_error_in_the_child_comes_after_every_event_before_it(forks, exc):
    lines = _then_raise([_HEADER] + _exits(1000), exc)
    got = []
    with transport.parsed_events(lines) as events:
        with pytest.raises(type(exc)) as raised:
            for te in events:
                got.append(te)
    assert forks
    assert got == list(iter_trace([_HEADER] + _exits(1000)))
    assert str(raised.value) == str(exc)
    _no_child_is_left()


def test_a_malformed_line_in_the_child_raises_what_iter_trace_raises(forks):
    lines = [_HEADER] + _exits(300) + ['{"seq": 301, "kind": "exit", "pid": 1, "oops": 1}']
    with pytest.raises(MalformedEvent) as in_process:
        list(iter_trace(lines))
    with transport.parsed_events(lines) as events:
        with pytest.raises(MalformedEvent) as forked:
            list(events)
    assert forks
    assert str(forked.value) == str(in_process.value)
    assert vars(forked.value) == vars(in_process.value)


# --- no child outlives a run ----------------------------------------------------------------

def _trace(tmp_path, n_good, tail=""):
    lines = [_HEADER, json.dumps({"seq": 1, "kind": "confine", "pid": 1,
                                  "policy_name": "hello_minimal"})]
    lines += [json.dumps({"seq": seq, "kind": "FileAccess", "pid": 1, "path": "/dev/tty",
                          "requested": "r"}) for seq in range(2, n_good + 1)]
    trace = tmp_path / "t.jsonl"
    trace.write_text("\n".join(lines) + "\n" + tail)
    return trace


def _fds():
    """This process's open file descriptors, or None where the system does
    not list them in ``/proc/self/fd``."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return sorted(os.listdir("/proc/self/fd"))


def _run(policy_dir, trace, audit):
    """``main run``, checked to leave ``gc.get_freeze_count()`` and this
    process's open file descriptors as they were, however it ends."""
    frozen, fds = gc.get_freeze_count(), _fds()
    try:
        return main(["--policy-dir", str(policy_dir), "run", "--trace", str(trace),
                     "--audit", str(audit)])
    finally:
        assert gc.get_freeze_count() == frozen
        assert _fds() == fds


def test_a_good_run_leaves_no_child(policy_dir, tmp_path, forks, capsys):
    audit = tmp_path / "audit.jsonl"
    assert _run(policy_dir, _trace(tmp_path, 1000), audit) == 0
    assert forks
    _no_child_is_left()
    assert capsys.readouterr().out == "events=1000 allows=999 denies=0 kills=0 taints=0\n"
    assert len(audit.read_text().splitlines()) == 1001


def test_a_malformed_line_after_1000_good_ones_exits_3_and_leaves_no_child(
        policy_dir, tmp_path, forks, capsys):
    trace = _trace(tmp_path, 1000, '{"seq": 1001, "kind": "exit", "pid": 1, "oops": 1}\n')
    out = tmp_path / "out"
    out.mkdir()
    assert _run(policy_dir, trace, out / "audit.jsonl") == 3
    assert forks
    _no_child_is_left()
    assert capsys.readouterr().err == (
        "error: malformed trace event at seq 1001: unknown fields for exit: ['oops']\n")
    assert os.listdir(out) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_audit_device_exits_2_and_leaves_no_child(policy_dir, tmp_path, forks, capsys):
    assert _run(policy_dir, _trace(tmp_path, 1000), "/dev/full") == 2
    assert forks
    _no_child_is_left()
    err = capsys.readouterr().err
    assert err.startswith("error: I/O error in run: ") and err.count("\n") == 1


def test_a_child_that_ends_before_its_end_marker_fails_the_run_with_exit_2(
        policy_dir, tmp_path, forks, monkeypatch, capsys):
    main_pid = os.getpid()

    def dying(fh):
        assert os.getpid() != main_pid, "parsed in the main process"
        for n, te in enumerate(iter_trace(fh)):
            if n == 500:
                os._exit(0)
            yield te

    monkeypatch.setattr(transport, "iter_trace", dying)
    out = tmp_path / "out"
    out.mkdir()
    assert _run(policy_dir, _trace(tmp_path, 1000), out / "audit.jsonl") == 2
    assert forks
    _no_child_is_left()
    assert capsys.readouterr().err == ("error: I/O error in run: the trace parser process "
                                       "ended before the end of the trace\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("cut", [3, -1], ids=["inside the length", "inside the body"])
def test_a_child_cut_off_mid_frame_fails_the_run_with_exit_2(
        policy_dir, tmp_path, forks, monkeypatch, capsys, cut):
    # the child writes its third frame up to the slice bound ``cut`` and ends;
    # ``sends`` fills in the child alone
    send, sends = transport._send, []

    def cut_off(fd, obj):
        sends.append(obj)
        if len(sends) < 3:
            return send(fd, obj)
        data = marshal.dumps(obj)
        os.write(fd, (transport._LENGTH.pack(len(data)) + data)[:cut])
        os._exit(0)

    monkeypatch.setattr(transport, "_send", cut_off)
    out = tmp_path / "out"
    out.mkdir()
    assert _run(policy_dir, _trace(tmp_path, 1000), out / "audit.jsonl") == 2
    assert forks and not sends, "parsed in the main process"
    _no_child_is_left()
    assert capsys.readouterr().err == ("error: I/O error in run: the trace parser process "
                                       "ended before the end of the trace\n")
    assert os.listdir(out) == []


def test_an_interrupted_run_leaves_no_child(policy_dir, tmp_path, forks, monkeypatch):
    replay = cli.replay

    def interrupted(events, state, log):
        replay((te for te, _ in zip(events, range(200))), state, log)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "replay", interrupted)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(KeyboardInterrupt):
        _run(policy_dir, _trace(tmp_path, 5000), out / "audit.jsonl")
    assert forks
    _no_child_is_left()
    assert os.listdir(out) == []


def test_a_run_with_a_second_thread_alive_parses_in_process(policy_dir, tmp_path, monkeypatch,
                                                             capsys):
    def refuse():
        raise AssertionError("forked a process that runs two threads")

    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _run(policy_dir, _trace(tmp_path, 1000), tmp_path / "audit.jsonl") == 0
    finally:
        stop.set()
        thread.join()
    assert capsys.readouterr().out == "events=1000 allows=999 denies=0 kills=0 taints=0\n"


def test_a_run_that_ignores_sigchld_succeeds(policy_dir, tmp_path, forks, capsys):
    # the system reaps an exited child itself, before the run can
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _run(policy_dir, _trace(tmp_path, 1000), tmp_path / "audit.jsonl") == 0
    finally:
        signal.signal(signal.SIGCHLD, old)
    assert forks
    _no_child_is_left()
    assert capsys.readouterr().out == "events=1000 allows=999 denies=0 kills=0 taints=0\n"


# --- the collector's freeze ---------------------------------------------------------------

def test_a_run_leaves_the_callers_freeze_as_it_found_it(policy_dir, tmp_path, forks, capsys):
    gc.freeze()
    try:
        assert gc.get_freeze_count() > 0
        # _run checks that the count is as it was
        assert _run(policy_dir, _trace(tmp_path, 1000), tmp_path / "audit.jsonl") == 0
    finally:
        gc.unfreeze()
    assert forks
    assert capsys.readouterr().out == "events=1000 allows=999 denies=0 kills=0 taints=0\n"


def _python(args):
    """A ``python`` process with this package importable and its stdout a
    block-buffered pipe, so what it prints is flushed as the process exits."""
    src = str(Path(bpfcontain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


# three runs in one process, then an atexit probe registered before them
_THREE_RUNS = """\
import atexit, gc, sys
start = gc.get_freeze_count()  # not 0 on every release: 3.12.1 starts with 375
from bpfcontain import cli

registered = []
register = atexit.register
atexit.register = lambda f: registered.append(f) or register(f)
register(lambda: sys.stderr.write(f"at exit: frozen={gc.get_freeze_count() > start}\\n"))
for _ in range(3):
    rc = cli.main(sys.argv[1:])
    hooks = [f is gc.freeze for f in registered]
    sys.stderr.write(f"rc={rc} frozen={gc.get_freeze_count() - start} hooks={hooks}\\n")
"""


def test_main_freezes_the_collector_at_exit_once_per_process(policy_dir, tmp_path):
    trace, audit = _trace(tmp_path, 1000), tmp_path / "audit.jsonl"
    proc = _python(["-c", _THREE_RUNS, "--policy-dir", str(policy_dir), "run",
                    "--trace", str(trace), "--audit", str(audit)])
    assert proc.returncode == 0, proc.stderr
    # each run leaves nothing frozen beyond what was frozen at the start, the
    # hook is registered by the first run alone, and it runs before the probe
    # registered ahead of it
    assert proc.stderr == "rc=0 frozen=0 hooks=[True]\n" * 3 + "at exit: frozen=True\n"
    assert proc.stdout == "events=1000 allows=999 denies=0 kills=0 taints=0\n" * 3


def test_a_piped_cli_run_prints_its_summary_and_writes_the_audit(policy_dir, tmp_path, capsys):
    trace = _trace(tmp_path, 1000)
    assert _run(policy_dir, trace, tmp_path / "in_process.jsonl") == 0
    capsys.readouterr()
    audit = tmp_path / "piped.jsonl"
    proc = _python(["-m", "bpfcontain.cli", "--policy-dir", str(policy_dir), "run",
                    "--trace", str(trace), "--audit", str(audit)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "events=1000 allows=999 denies=0 kills=0 taints=0\n"
    assert proc.stderr == ""
    assert audit.read_bytes() == (tmp_path / "in_process.jsonl").read_bytes()
