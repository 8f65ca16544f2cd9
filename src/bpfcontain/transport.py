"""Parse a trace in a forked child and receive its events over a pipe.

``parsed_events(trace_fh)`` gives the events of ``iter_trace(trace_fh)``.
Where this process can fork safely, a child runs ``iter_trace`` and sends
each event as its flat form, in batches of ``BATCH``, while this process
rebuilds and replays the events before them; so parsing runs on a second
core.  A frame on the pipe is an 8-byte length and ``marshal.dumps`` of a
list of flat events, of None (the end of the trace), or of the pickled
exception ``iter_trace`` raised, which is raised here after every event
before it.  Writes block once the pipe is full, so the child parses ahead
by at most one pipe buffer and one batch.
"""

from __future__ import annotations

import contextlib
import gc
import marshal
import os
import struct
import threading
from itertools import chain
from operator import attrgetter

from .events import (
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
from .trace import Confine, Exit, Fork, TraceEvent, iter_trace

BATCH = 128  # events per frame
_LENGTH = struct.Struct("<Q")
# SIGKILL, 9 on every POSIX system: the signal module costs a run about a
# millisecond to import
_SIGKILL = 9

# an enum's members by value: every event enum is numbered 0, 1, ...
_FS_KINDS = tuple(FsKind)
_FAMILIES = tuple(SocketFamily)
_SOCK_OPS = tuple(SocketOpKind)
_MECHANISMS = tuple(IpcMechanism)
_HARDENING_OPS = tuple(HardeningKind)


def _priv(p: PrivLevel) -> tuple:
    return p.uid, p.capability_set


# Each kind's flat form, (class, encode, decode): its slot values in order,
# an enum member (a FileAccess's ``requested`` included) as its int and a
# PrivLevel as ``(uid, capability_set)``; decode rebuilds the event with its
# class's own constructor.  A flat event on the wire is ``(row, seq, values)``.
_FORMS = (
    (FileAccess,
     lambda e: (e.pid, e.path, int(e.requested), int(e.fs_kind), e.owner_mount_ns,
                e.proc_subject_pid),
     lambda pid, path, requested, fs_kind, owner_ns, subject:
         FileAccess(pid, path, requested, _FS_KINDS[fs_kind], owner_ns, subject)),
    (SocketOp,
     lambda e: (e.pid, int(e.family), int(e.op)),
     lambda pid, family, op: SocketOp(pid, _FAMILIES[family], _SOCK_OPS[op])),
    (IpcOp,
     lambda e: (e.pid, e.peer_pid, int(e.mechanism)),
     lambda pid, peer, mechanism: IpcOp(pid, peer, _MECHANISMS[mechanism])),
    (CapabilityUse, attrgetter("pid", "capability", "possessed"), CapabilityUse),
    (CommitCreds,
     lambda e: (e.pid, _priv(e.old_priv), _priv(e.new_priv)),
     lambda pid, old, new: CommitCreds(pid, PrivLevel(*old), PrivLevel(*new))),
    (SwitchNamespaces, lambda e: (e.pid,), SwitchNamespaces),
    (HardeningOp,
     lambda e: (e.pid, int(e.op)),
     lambda pid, op: HardeningOp(pid, _HARDENING_OPS[op])),
    (Confine, attrgetter("pid", "policy_name", "mount_ns", "ipc_ns"), Confine),
    (Fork, attrgetter("parent", "child"), Fork),
    (Exit, lambda e: (e.pid,), Exit),
)
_ENCODERS = {cls: (row, encode) for row, (cls, encode, _) in enumerate(_FORMS)}
_DECODERS = tuple(decode for _, _, decode in _FORMS)


def encode(te: TraceEvent) -> tuple:
    """A trace event's flat form on the wire."""
    seq, event = te
    row, flat = _ENCODERS[type(event)]
    return row, seq, flat(event)


def decode(batch: list) -> list[tuple]:
    """The ``(seq, event)`` pairs of a batch of flat forms.

    A pair is what ``replay`` reads of a ``TraceEvent``; building the
    ``TraceEvent`` itself would cost the main process about 0.15 us an event.
    """
    return [(seq, _DECODERS[row](*values)) for row, seq, values in batch]


# --- the pipe -----------------------------------------------------------------

def _send(fd: int, obj):
    data = marshal.dumps(obj)
    view = memoryview(_LENGTH.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytes:
    """``n`` bytes from ``fd``, or fewer at its end."""
    data = os.read(fd, n)
    while 0 < len(data) < n:
        more = os.read(fd, n - len(data))
        if not more:
            break
        data += more
    return data


def _parse_into(fd: int, trace_fh):
    """The child's work: every event of the trace, then None or the error."""
    batch = []
    try:
        for te in iter_trace(trace_fh):
            batch.append(encode(te))
            if len(batch) == BATCH:
                _send(fd, batch)
                batch = []
        end = None
    except Exception as exc:
        import pickle  # here, not at the top: a run that raises nothing never loads it
        end = pickle.dumps(exc)
    _send(fd, batch)
    _send(fd, end)


def _frame(fd: int) -> bytes:
    head = _read(fd, _LENGTH.size)
    if len(head) == _LENGTH.size:
        (size,) = _LENGTH.unpack(head)
        frame = _read(fd, size)
        if len(frame) == size:
            return frame
    raise OSError("the trace parser process ended before the end of the trace")


def _receive(fd: int):
    """The decoded batches the child sends, then its error, if any."""
    while True:
        batch = marshal.loads(_frame(fd))
        if type(batch) is list:
            yield decode(batch)
        elif batch is None:
            return
        else:
            import pickle
            raise pickle.loads(batch)


@contextlib.contextmanager
def parsed_events(trace_fh):
    """The events of ``iter_trace(trace_fh)``, parsed in a forked child.

    The child is forked only where ``os.fork`` exists and this process runs
    one thread (forking a threaded process is unsafe); otherwise the trace
    is parsed in-process.  Either way the block gets an iterator of
    ``(seq, event)`` pairs for ``replay``.  Leaving the block closes the
    pipe, kills the child if it is still running and reaps it, however the
    block ends.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        yield iter_trace(trace_fh)
        return
    rfd, wfd = os.pipe()
    # what exists now is left out of both processes' collections, which
    # would otherwise write to every shared page and copy it; a caller that
    # froze objects itself keeps its freeze, which a thaw would undo and a
    # second freeze would leave holding the run's cyclic garbage
    caller_froze = gc.get_freeze_count() > 0
    if not caller_froze:
        gc.freeze()
    try:
        pid = os.fork()
    except BaseException:
        if not caller_froze:
            gc.unfreeze()
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        # the child leaves only through os._exit: it flushes and closes none
        # of the file objects it shares with the main process
        try:
            os.close(rfd)
            _parse_into(wfd, trace_fh)
        finally:
            os._exit(0)
    os.close(wfd)
    try:
        yield chain.from_iterable(_receive(rfd))
    finally:
        os.close(rfd)
        # where SIGCHLD is ignored, the system reaps the child itself
        with contextlib.suppress(ChildProcessError, ProcessLookupError):
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        if not caller_froze:
            gc.unfreeze()
