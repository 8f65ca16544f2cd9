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
import marshal
import os
import struct
import threading
from itertools import chain
from operator import attrgetter

from .events import CommitCreds, PrivLevel
from .trace import _KINDS, TraceEvent, iter_trace

BATCH = 128  # events per frame
_LENGTH = struct.Struct("<Q")
# SIGKILL, 9 on every POSIX system: the signal module costs a run about a
# millisecond to import
_SIGKILL = 9


def _priv(p: PrivLevel) -> tuple:
    return p.uid, p.capability_set


def _form(cls) -> tuple:
    """A kind's ``(encode, decode)``: the parser gives every field as a plain
    value (an enum field as its int), so the flat form is the slot values in
    order, and the class itself rebuilds the event.  A CommitCreds sends
    each PrivLevel as ``(uid, capability_set)``."""
    if cls is CommitCreds:
        return (lambda e: (e.pid, _priv(e.old_priv), _priv(e.new_priv)),
                lambda pid, old, new: CommitCreds(pid, PrivLevel(*old), PrivLevel(*new)))
    values = attrgetter(*cls.__slots__)
    if len(cls.__slots__) == 1:  # attrgetter of one name gives its value bare
        return (lambda e: (values(e),)), cls
    return values, cls


# Each kind's (class, encode, decode); a flat event on the wire is
# ``(row, seq, values)``, its row the kind's place here.
_FORMS = tuple((cls, *_form(cls)) for cls in _KINDS)
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
    try:
        pid = os.fork()
    except BaseException:
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
