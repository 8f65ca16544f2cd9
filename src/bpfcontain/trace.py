"""Replay ordered event traces and collect the audit trail.

Traces stand in for live kernel attachment: JSON Lines, a ``{"format": 1}``
header, then one event object per line with a strictly increasing ``seq``.
Replay routes lifecycle records through container state, judges mediated
events through the engine, and appends one audit record per mediated event
(lifecycle records only audit errors, creations, and removals).  Records
keep the event and the decision's codes; their text is rendered only when
the log is written.  ``iter_trace`` and ``AuditWriter`` let a caller stream
a trace: one event parsed, judged and written at a time.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, NamedTuple, TextIO

from .core import V_ALLOW, V_DENY, V_KILL
from .engine import (
    R_CREATED,
    R_REMOVED,
    R_STATE_ERROR,
    Verdict,
    _new,
    decide,
    reason_text,
)
from .errors import (
    BadAccessFlags,
    MalformedEvent,
    OutOfOrderTrace,
    StateError,
    TraceError,
)
from .events import (
    CapabilityUse,
    CommitCreds,
    FileAccess,
    FsKind,
    HardeningOp,
    HookEvent,
    IpcOp,
    PrivLevel,
    SocketOp,
    SwitchNamespaces,
    _FAMILY_NAMES,
    _FSKIND_NAMES,
    _HARDENING_NAMES,
    _IPC_NAMES,
    _SOCKOP_NAMES,
    _WIRE_NAMES,
)
from .policy import (
    ACCESS_STRINGS,
    CAPABILITIES,
    Value,
    format_access,
    normalize_event_path,
    parse_access,
)
from .state import ContainerState

TRACE_FORMAT_VERSION = 1
# the first line of every trace and audit file
FORMAT_HEADER = json.dumps({"format": TRACE_FORMAT_VERSION}, separators=(",", ":")) + "\n"
DEFAULT_AUDIT_CAPACITY = 65536


# --- lifecycle records --------------------------------------------------------

class Confine(Value):
    __slots__ = ("pid", "policy_name", "mount_ns", "ipc_ns")

    def __init__(self, pid: int, policy_name: str, mount_ns: int = 0, ipc_ns: int = 0):
        self.pid = pid
        self.policy_name = policy_name
        self.mount_ns = mount_ns
        self.ipc_ns = ipc_ns

    def summary(self) -> str:
        return f"confine pid={self.pid} policy={self.policy_name}"


class Fork(Value):
    __slots__ = ("parent", "child")

    def __init__(self, parent: int, child: int):
        self.parent = parent
        self.child = child

    def summary(self) -> str:
        return f"fork {self.parent}->{self.child}"


class Exit(Value):
    __slots__ = ("pid",)

    def __init__(self, pid: int):
        self.pid = pid

    def summary(self) -> str:
        return f"exit {self.pid}"


LifecycleEvent = Confine | Fork | Exit

# the mediated kinds: replay tests these, in order, before lifecycle records
_HOOK_TYPES = HookEvent.__args__


class TraceEvent(NamedTuple):
    seq: int
    event: HookEvent | LifecycleEvent


# --- audit trail ---------------------------------------------------------------

# Audit outcome codes: the engine's verdict codes, then the lifecycle outcomes.
O_CREATED, O_REMOVED, O_ERROR = range(len(Verdict), len(Verdict) + 3)
OUTCOMES = tuple(v.value for v in Verdict) + ("Created", "Removed", "Error")


class AuditRecord(NamedTuple):
    """One audit line, kept as the event and the decision's codes.

    The fields after ``source`` are those of ``engine.Decision``, with the
    verdict code widened to an outcome code (``OUTCOMES``).  The text of
    the line is rendered only by ``to_json``.
    """

    seq: int
    source: HookEvent | LifecycleEvent
    outcome: int
    code: int
    detail: object = None
    container_id: int | None = None
    policy: str | None = None
    taint_detail: tuple | None = None

    @property
    def event(self) -> str:
        return self.source.summary()

    @property
    def decision(self) -> str:
        return OUTCOMES[self.outcome]

    @property
    def reason(self) -> str:
        return reason_text(self.outcome, self.code, self.detail, self.policy, self.taint_detail)

    @property
    def taint_transition(self) -> bool:
        return self.taint_detail is not None

    def to_json(self) -> str:
        """The record as one compact JSON object, keys in their fixed order."""
        seq, source, outcome, code, detail, cid, policy, taint = self
        return (
            f'{{"seq":{int(seq)},'
            f'"container_id":{"null" if cid is None else int(cid)},'
            f'"policy":{"null" if policy is None else _json_str(policy)},'
            f'"event":{_json_str(source.summary())},'
            f'"decision":"{OUTCOMES[outcome]}",'
            f'"reason":{_json_str(reason_text(outcome, code, detail, policy, taint))},'
            f'"taint_transition":{"false" if taint is None else "true"}}}'
        )


class AuditLog:
    """Bounded audit sink with ring-buffer overflow accounting.

    New records are dropped (and counted) once the buffer is full, the way
    a fixed-size ring buffer sheds events the consumer never drained.  The
    counters see every record, kept or dropped.  ``records`` (a new list by
    default) holds the kept ones, or is an ``AuditWriter``: through a
    writing one, the log writes each kept record's audit line as it comes.
    ``replay`` keeps its seq cursor and event count here: ``last_seq``, ``events``.
    """

    def __init__(self, capacity: int = DEFAULT_AUDIT_CAPACITY, records=None):
        self.capacity = capacity
        self.records = records = [] if records is None else records
        self.dropped = 0
        self.events = 0  # every event replayed into this log, audited or not
        self.last_seq = None  # the seq of the last one: the next must come after it
        self.outcomes = [0] * len(OUTCOMES)
        self.taints = 0
        # records kept so far, counted here so that a record costs no len()
        self._kept = len(records)
        # a writing AuditWriter's lines are written here, so that a kept
        # record costs one call, not a second one in the writer
        self._write = records._write if isinstance(records, AuditWriter) else None

    def append(self, record: AuditRecord):
        self.outcomes[record.outcome] += 1
        if record.taint_detail is not None:
            self.taints += 1
        if self._kept < self.capacity:
            self._kept += 1
            if self._write is None:
                self.records.append(record)
            else:
                self._write(record.to_json() + "\n")
                self.records._count = self._kept
        else:
            self.dropped += 1

    def summary(self) -> dict:
        return {
            "events": self.events,
            "allows": self.outcomes[V_ALLOW],
            "denies": self.outcomes[V_DENY],
            "kills": self.outcomes[V_KILL],
            "taints": self.taints,
            "dropped": self.dropped,
        }

    def write(self, fh: TextIO):
        fh.write(FORMAT_HEADER)
        to_json = AuditRecord.to_json
        for record in self.records:
            fh.write(to_json(record) + "\n")


class AuditWriter:
    """A ``records`` sink for ``replay`` that keeps no record, only a count.

    With ``write`` (a text file's ``write``), the header goes out at once;
    the ``AuditLog`` that holds the sink then writes each kept record's
    audit line through ``write`` and keeps the count itself, so the file
    ends up holding what ``AuditLog.write`` would have written.  Without
    it the records are only counted.  ``len()`` is the number kept.
    """

    def __init__(self, write=None):
        self._count = 0
        self._write = write
        if write is not None:
            write(FORMAT_HEADER)

    def __len__(self) -> int:
        return self._count

    def append(self, record: AuditRecord):
        self._count += 1


# --- trace parsing -------------------------------------------------------------

# wire spelling -> enum member, inverted from the tables in ``events``
_FS_KINDS = {name: kind for kind, name in _FSKIND_NAMES.items()}
_FAMILIES = {name: family for family, name in _FAMILY_NAMES.items()}
_SOCK_OPS = {name: op for op, name in _SOCKOP_NAMES.items()}
_MECHANISMS = {name: mech for mech, name in _IPC_NAMES.items()}
_HARDENING_OPS = {name: op for op, name in _HARDENING_NAMES.items()}
_CAPABILITIES = {name: name for name in sorted(CAPABILITIES)}
# canonical ``rwax`` spelling -> its plain int mask; other spellings go
# through ``parse_access``
_MASKS = {text: mask for mask, text in enumerate(ACCESS_STRINGS) if text}
_REGULAR = FsKind.REGULAR  # a FileAccess's fs_kind when the line names none


def _need(obj: dict, key: str, types, seq) -> object:
    if key not in obj:
        raise MalformedEvent(seq, f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise MalformedEvent(seq, f"field {key!r} has wrong type")
    return value


# the kernel's widths: pids and uids are u32, namespace ids (inode numbers)
# u64; ``seq`` is a signed 64-bit counter
_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


def _int(value, what: str, seq, top: int = _U32_MAX) -> int:
    """The one check for trace integers (pids, uids, namespaces).

    A JSON integer, so not true/false, from 0 to ``top``.
    """
    if type(value) is not int:
        raise MalformedEvent(seq, f"{what} must be an integer")
    if not 0 <= value <= top:
        raise MalformedEvent(seq, f"{what} must not be negative" if value < 0
                             else f"{what} must be at most {top}")
    return value


def _int_field(obj: dict, key: str, seq) -> int:
    value = obj.get(key)
    if type(value) is int and 0 <= value <= _U32_MAX:
        return value
    if key not in obj:
        raise MalformedEvent(seq, f"missing field {key!r}")
    return _int(value, key, seq)


def _enum_field(obj: dict, key: str, table: dict, seq):
    # a list or dict is unhashable: only a str is looked up before _need
    value = obj.get(key)
    if type(value) is str:
        member = table.get(value)
        if member is not None:
            return member
    value = _need(obj, key, str, seq)
    if value not in table:
        *names, last = table
        raise MalformedEvent(seq, f"field {key!r} has unknown value {value!r} "
                                  f"(expected {', '.join(names)} or {last})")
    return table[value]


def _object_field(obj: dict, key: str, allowed: set, seq) -> dict:
    """The nested object under ``key``, holding no field outside ``allowed``;
    it makes ``_need``'s checks itself, so a nested object costs one call."""
    value = obj.get(key)
    if not isinstance(value, dict):
        raise MalformedEvent(seq, f"missing field {key!r}" if key not in obj
                             else f"field {key!r} has wrong type")
    if not value.keys() <= allowed:
        raise MalformedEvent(seq, f"{key}: unknown fields {sorted(value.keys() - allowed)}")
    return value


def _priv_level(obj, key: str, seq) -> PrivLevel:
    value = _object_field(obj, key, {"uid", "capability_set"}, seq)
    if "uid" not in value:
        raise MalformedEvent(seq, f"missing field '{key}.uid'")
    uid = _int(value["uid"], f"{key}.uid", seq)
    caps = value.get("capability_set")
    if caps is None:
        caps = []
    elif not isinstance(caps, list) or any(not isinstance(c, str) for c in caps):
        raise MalformedEvent(seq, f"{key}.capability_set must be a list of strings")
    for cap in caps:
        if cap not in CAPABILITIES:
            raise MalformedEvent(seq, f"{key}.capability_set has unknown value {cap!r}")
    return PrivLevel(uid=uid, capability_set=frozenset(caps))


def _parse_file_access(obj: dict, seq: int) -> FileAccess:
    # Well-formed fields are accepted inline; the helpers are called only to
    # normalize a field or to raise its error.
    pid = _int_field(obj, "pid", seq)
    path = obj.get("path")
    # an already-canonical path (absolute, no empty, "." or ".." component,
    # no trailing slash and no NUL) is taken as it is; normalize_event_path
    # checks and normalizes any other
    if not (type(path) is str and path.startswith("/") and "//" not in path
            and "/." not in path and (path[-1] != "/" or path == "/")
            and "\x00" not in path):
        path = _need(obj, "path", str, seq)
        try:
            path = normalize_event_path(path)
        except ValueError as exc:
            raise MalformedEvent(seq, str(exc)) from exc
    requested = obj.get("requested")
    requested = _MASKS.get(requested) if type(requested) is str else None
    if requested is None:
        try:
            requested = int(parse_access(_need(obj, "requested", str, seq)))
        except BadAccessFlags as exc:
            raise MalformedEvent(seq, f"bad requested flags: {exc}") from exc
    fs_kind = obj.get("fs_kind")
    fs_kind = _REGULAR if fs_kind is None else _enum_field(obj, "fs_kind", _FS_KINDS, seq)
    owner_ns = obj.get("owner_mount_ns")
    if owner_ns is not None:
        owner_ns = _int(owner_ns, "owner_mount_ns", seq, _U64_MAX)
    subject = obj.get("proc_subject_pid")
    if subject is not None:
        subject = _int(subject, "proc_subject_pid", seq)
    return FileAccess(pid, path, requested, fs_kind, owner_ns, subject)


def _parse_socket_op(obj: dict, seq: int) -> SocketOp:
    return SocketOp(
        _int_field(obj, "pid", seq),
        _enum_field(obj, "family", _FAMILIES, seq),
        _enum_field(obj, "op", _SOCK_OPS, seq),
    )


def _parse_ipc_op(obj: dict, seq: int) -> IpcOp:
    return IpcOp(
        _int_field(obj, "pid", seq),
        _int_field(obj, "peer_pid", seq),
        _enum_field(obj, "mechanism", _MECHANISMS, seq),
    )


def _parse_capability_use(obj: dict, seq: int) -> CapabilityUse:
    possessed = _need(obj, "possessed", bool, seq)
    return CapabilityUse(
        _int_field(obj, "pid", seq),
        _enum_field(obj, "capability", _CAPABILITIES, seq),
        possessed,
    )


def _parse_commit_creds(obj: dict, seq: int) -> CommitCreds:
    return CommitCreds(
        _int_field(obj, "pid", seq),
        _priv_level(obj, "old_priv", seq),
        _priv_level(obj, "new_priv", seq),
    )


def _parse_switch_namespaces(obj: dict, seq: int) -> SwitchNamespaces:
    return SwitchNamespaces(_int_field(obj, "pid", seq))


def _parse_hardening_op(obj: dict, seq: int) -> HardeningOp:
    return HardeningOp(
        _int_field(obj, "pid", seq),
        _enum_field(obj, "op", _HARDENING_OPS, seq),
    )


def _parse_fork(obj: dict, seq: int) -> Fork:
    return Fork(_int_field(obj, "parent", seq), _int_field(obj, "child", seq))


def _parse_exit(obj: dict, seq: int) -> Exit:
    return Exit(_int_field(obj, "pid", seq))


def _parse_confine(obj: dict, seq: int) -> Confine:
    pid = _int_field(obj, "pid", seq)
    name = _need(obj, "policy_name", str, seq)
    mount_ns = ipc_ns = 0
    if obj.get("ns_info") is not None:
        ns = _object_field(obj, "ns_info", {"mount_ns", "ipc_ns"}, seq)
        mount_ns, ipc_ns = ns.get("mount_ns"), ns.get("ipc_ns")
        mount_ns = 0 if mount_ns is None else _int(mount_ns, "ns_info.mount_ns", seq, _U64_MAX)
        ipc_ns = 0 if ipc_ns is None else _int(ipc_ns, "ns_info.ipc_ns", seq, _U64_MAX)
    return Confine(pid, name, mount_ns, ipc_ns)


# Confine's fields that a trace line nests under ``ns_info``
_NS_FIELDS = {"mount_ns", "ipc_ns"}


def _wire_fields(cls) -> frozenset:
    """``seq``, ``kind`` and the fields of ``cls``, Confine's namespaces as ``ns_info``."""
    names = {"seq", "kind", *cls.__slots__}
    return frozenset(names - _NS_FIELDS | {"ns_info"} if cls is Confine else names)


# kind -> (parser, the fields an event of that kind may carry, its class)
_PARSERS = {
    kind: (parser, _wire_fields(cls), cls)
    for kind, cls, parser in (
        ("FileAccess", FileAccess, _parse_file_access),
        ("SocketOp", SocketOp, _parse_socket_op),
        ("IpcOp", IpcOp, _parse_ipc_op),
        ("CapabilityUse", CapabilityUse, _parse_capability_use),
        ("CommitCreds", CommitCreds, _parse_commit_creds),
        ("SwitchNamespaces", SwitchNamespaces, _parse_switch_namespaces),
        ("HardeningOp", HardeningOp, _parse_hardening_op),
        ("fork", Fork, _parse_fork),
        ("exit", Exit, _parse_exit),
        ("confine", Confine, _parse_confine),
    )
}
# event class -> its kind
_KINDS = {cls: kind for kind, (_, _, cls) in _PARSERS.items()}


def parse_trace_object(obj: dict, seq=None) -> TraceEvent:
    """Turn one decoded JSON object into a TraceEvent.

    ``seq`` may be pre-supplied for inline events (cli explain) that carry
    no sequence number of their own; there a null ``seq`` is absent, as
    every other optional field's is.  A trace line's ``seq`` is required.
    """
    if not isinstance(obj, dict):
        raise MalformedEvent(seq, "event must be a JSON object")
    if "seq" in obj and (seq is None or obj["seq"] is not None):
        value = obj["seq"]
        if type(value) is not int:
            raise MalformedEvent(seq, "seq must be an integer")
        if not -2**63 <= value < 2**63:
            raise MalformedEvent(seq, "seq must fit in a signed 64-bit integer")
        seq = value
    elif seq is None:
        raise MalformedEvent(None, "missing field 'seq'")

    kind = obj.get("kind")
    if kind is None:
        raise MalformedEvent(seq, "missing field 'kind'")
    entry = _PARSERS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise MalformedEvent(seq, f"unknown event kind {kind!r}")
    parser, allowed, _ = entry
    if not obj.keys() <= allowed:
        raise MalformedEvent(seq, f"unknown fields for {kind}: {sorted(obj.keys() - allowed)}")
    return _new(TraceEvent, (seq, parser(obj, seq)))


# the decoder's scanner (C where available): one JSON value at an index,
# without ``json.loads``'s wrapper calls and whitespace scans
_scan_once = json.JSONDecoder().scan_once
# what JSON counts as whitespace; other padding makes a line invalid JSON
_JSON_SPACE = " \t\r\n"


def iter_trace(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """Parse a JSONL trace lazily: header line first, then events.

    Each event is yielded before the next line is read, so an error in a
    later line is raised only when the iteration reaches it.  A line of
    JSON whitespace alone is skipped.  Seq order is left to the consumer:
    ``replay`` checks it against ``log.last_seq``, ``parse_trace`` itself.
    """
    last_seq = None  # the seq an invalid-JSON error names: the last one parsed
    saw_header = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip(_JSON_SPACE)
        if not line:
            continue
        try:
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError):  # no value at 0, or a bad one
                end = -1
            if end != len(line):
                # whatever the scan does not consume whole goes through
                # ``json.loads``, which raises its own error for the line
                obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise MalformedEvent(last_seq, f"line {lineno}: invalid JSON: {exc}") from exc
        if not saw_header:
            version = obj.get("format") if isinstance(obj, dict) else None
            # a JSON integer, as ``_int`` checks: true and 1.0 are not 1 here
            if type(version) is not int or version != TRACE_FORMAT_VERSION:
                raise TraceError(
                    f'trace must start with {{"format": {TRACE_FORMAT_VERSION}}}')
            saw_header = True
            continue
        event = parse_trace_object(obj)
        last_seq = event.seq
        yield event
    if not saw_header:
        raise TraceError("empty trace: missing format header")


def parse_trace(lines: Iterable[str]) -> list[TraceEvent]:
    """Parse a whole JSONL trace, raising any error before returning.

    Seq order is checked here, so an out-of-order seq is raised in file
    order among the parse errors.
    """
    events = []
    last_seq = None
    for event in iter_trace(lines):
        if last_seq is not None and event.seq <= last_seq:
            raise OutOfOrderTrace(event.seq)
        last_seq = event.seq
        events.append(event)
    return events


def event_to_object(te: TraceEvent) -> dict:
    """Serialize a TraceEvent back into its wire-format JSON object.

    The event's fields, in class order and each under its own name, except
    that Confine's namespaces are nested under ``ns_info``.  A None field
    and a FileAccess's ``Regular`` fs_kind are left out.
    """
    ev = te.event
    kind = _KINDS.get(type(ev))
    if kind is None:
        raise TypeError(f"unhandled event {ev!r}")
    out: dict = {"seq": te.seq, "kind": kind}
    for name in ev.__slots__:
        value = getattr(ev, name)
        if value is None or value is _REGULAR:
            continue
        if type(value) in _WIRE_NAMES:
            value = _WIRE_NAMES[type(value)][value]
        elif isinstance(value, PrivLevel):
            value = {"uid": value.uid, "capability_set": sorted(value.capability_set)}
        elif name == "requested":
            value = format_access(value)
        if name in _NS_FIELDS:
            out.setdefault("ns_info", {})[name] = value
        else:
            out[name] = value
    return out


def write_trace(events: Iterable[TraceEvent], fh: TextIO):
    fh.write(FORMAT_HEADER)
    for te in events:
        fh.write(json.dumps(event_to_object(te), separators=(",", ":")) + "\n")


# --- replay ---------------------------------------------------------------------

def replay(events: Iterable[TraceEvent], state: ContainerState, log: AuditLog | None = None,
) -> tuple[ContainerState, AuditLog]:
    """Apply a seq-ordered trace to ``state`` and ``log`` (a new ``AuditLog``
    by default); returns the state and the log.

    Every decision and removal record reads the state's own sealed store.
    Each event must come after ``log.last_seq``, and is counted in ``log.events``.

    A Kill decision retires the pid in the state (``state.kill``; the kill
    record subsumes any removal record).  Its later events are audited as
    unconfined warnings — a live kernel would never deliver them, but
    traces can contain anything — and a confine of it or a fork into it as
    errors.  Replay keeps nothing of its own: a trace replayed in parts
    over one state and one log audits as in one call.
    """
    log = AuditLog() if log is None else log
    append = log.append

    for seq, ev in events:
        if log.last_seq is not None and seq <= log.last_seq:
            raise OutOfOrderTrace(seq)
        log.last_seq = seq
        log.events += 1

        if isinstance(ev, _HOOK_TYPES):
            decision = decide(ev, state)
            append(_new(AuditRecord, (seq, ev) + decision))
            if decision.verdict_code == V_KILL:
                state.kill(ev.pid)
            continue

        try:
            if isinstance(ev, Confine):
                container = state.confine(ev.pid, ev.policy_name,
                                          mount_ns=ev.mount_ns, ipc_ns=ev.ipc_ns)
                cid = container.container_id
                append(_new(AuditRecord,
                            (seq, ev, O_CREATED, R_CREATED, cid, cid, ev.policy_name, None)))
            elif isinstance(ev, Fork):
                state.on_fork(ev.parent, ev.child)
            elif isinstance(ev, Exit):
                removed = state.on_exit(ev.pid)
                if removed is not None:
                    cid = removed.container_id
                    append(_new(AuditRecord, (seq, ev, O_REMOVED, R_REMOVED, cid, cid,
                                              removed.meta.name, None)))
            else:
                raise TypeError(f"replay() cannot apply event {ev!r}")
        except StateError as exc:
            append(AuditRecord(seq, ev, O_ERROR, R_STATE_ERROR, str(exc)))

    return state, log
