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
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, NamedTuple, TextIO

from .compiler import CompiledPolicyStore
from .core import V_ALLOW, V_DENY, V_KILL, V_UNCONFINED
from .engine import (
    R_CREATED,
    R_KILLED_CONFINE,
    R_KILLED_EVENT,
    R_KILLED_FORK,
    R_REMOVED,
    R_STATE_ERROR,
    Verdict,
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
)
from .policy import (
    ACCESS_STRINGS,
    CAPABILITIES,
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

@dataclass(slots=True)
class Confine:
    pid: int
    policy_name: str
    mount_ns: int = 0
    ipc_ns: int = 0

    def summary(self) -> str:
        return f"confine pid={self.pid} policy={self.policy_name}"


@dataclass(slots=True)
class Fork:
    parent: int
    child: int

    def summary(self) -> str:
        return f"fork {self.parent}->{self.child}"


@dataclass(slots=True)
class Exit:
    pid: int

    def summary(self) -> str:
        return f"exit {self.pid}"


LifecycleEvent = Confine | Fork | Exit

# mediated kinds, most frequent first: replay tests these before lifecycle records
_HOOK_TYPES = (FileAccess, SocketOp, IpcOp, CapabilityUse, HardeningOp,
               CommitCreds, SwitchNamespaces)


class TraceEvent(NamedTuple):
    seq: int
    event: HookEvent | LifecycleEvent


# ``tuple.__new__(NT, values)`` builds a NamedTuple in one C call, without
# the Python ``__new__`` its class generates; the hot paths build with it
_new = tuple.__new__


# --- audit trail ---------------------------------------------------------------

# Audit outcome codes: the engine's verdict codes, then the lifecycle outcomes.
O_CREATED = 4
O_REMOVED = 5
O_ERROR = 6
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


@dataclass
class AuditLog:
    """Bounded audit sink with ring-buffer overflow accounting.

    New records are dropped (and counted) once the buffer is full, the way
    a fixed-size ring buffer sheds events the consumer never drained.  The
    counters see every record, kept or dropped.  ``records`` holds the kept
    ones, or is an ``AuditWriter``: through a writing one, the log writes
    each kept record's audit line as it comes.
    """

    capacity: int = DEFAULT_AUDIT_CAPACITY
    records: list[AuditRecord] = field(default_factory=list)
    dropped: int = 0
    events: int = 0
    outcomes: list[int] = field(default_factory=lambda: [0] * len(OUTCOMES))
    taints: int = 0

    @property
    def allows(self) -> int:
        return self.outcomes[V_ALLOW]

    @property
    def denies(self) -> int:
        return self.outcomes[V_DENY]

    @property
    def kills(self) -> int:
        return self.outcomes[V_KILL]

    def __post_init__(self):
        records = self.records
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
            "allows": self.allows,
            "denies": self.denies,
            "kills": self.kills,
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
_CAPABILITIES = {name: name for name in CAPABILITIES}
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
        raise MalformedEvent(seq, f"field {key!r} has unknown value {value!r}")
    return table[value]


def _priv_level(obj, key: str, seq) -> PrivLevel:
    value = _need(obj, key, dict, seq)
    extra = set(value) - {"uid", "capability_set"}
    if extra:
        raise MalformedEvent(seq, f"{key}: unknown fields {sorted(extra)}")
    uid = _int(value.get("uid"), f"{key}.uid", seq)
    caps = value.get("capability_set", [])
    if not isinstance(caps, list) or any(not isinstance(c, str) for c in caps):
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
    # an already-canonical path (absolute, no empty, "." or ".." component
    # and no trailing slash) is taken as it is; normalize_event_path checks
    # and normalizes any other
    if not (type(path) is str and path.startswith("/") and "//" not in path
            and "/." not in path and (path[-1] != "/" or path == "/")):
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
    fs_kind = _enum_field(obj, "fs_kind", _FS_KINDS, seq) if "fs_kind" in obj else _REGULAR
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
        ns = _need(obj, "ns_info", dict, seq)
        extra = set(ns) - {"mount_ns", "ipc_ns"}
        if extra:
            raise MalformedEvent(seq, f"ns_info: unknown fields {sorted(extra)}")
        mount_ns = _int(ns.get("mount_ns", 0), "ns_info.mount_ns", seq, _U64_MAX)
        ipc_ns = _int(ns.get("ipc_ns", 0), "ns_info.ipc_ns", seq, _U64_MAX)
    return Confine(pid, name, mount_ns, ipc_ns)


# kind -> (parser, the fields an event of that kind may carry)
_PARSERS = {
    kind: (parser, frozenset({"seq", "kind"} | fields))
    for kind, parser, fields in (
        ("FileAccess", _parse_file_access,
         {"pid", "path", "requested", "fs_kind", "owner_mount_ns", "proc_subject_pid"}),
        ("SocketOp", _parse_socket_op, {"pid", "family", "op"}),
        ("IpcOp", _parse_ipc_op, {"pid", "peer_pid", "mechanism"}),
        ("CapabilityUse", _parse_capability_use, {"pid", "capability", "possessed"}),
        ("CommitCreds", _parse_commit_creds, {"pid", "old_priv", "new_priv"}),
        ("SwitchNamespaces", _parse_switch_namespaces, {"pid"}),
        ("HardeningOp", _parse_hardening_op, {"pid", "op"}),
        ("fork", _parse_fork, {"parent", "child"}),
        ("exit", _parse_exit, {"pid"}),
        ("confine", _parse_confine, {"pid", "policy_name", "ns_info"}),
    )
}


def parse_trace_object(obj: dict, seq=None) -> TraceEvent:
    """Turn one decoded JSON object into a TraceEvent.

    ``seq`` may be pre-supplied for inline events (cli explain) that carry
    no sequence number of their own.
    """
    if not isinstance(obj, dict):
        raise MalformedEvent(seq, "event must be a JSON object")
    if "seq" in obj:
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
    parser, fields = entry
    if not obj.keys() <= fields:
        raise MalformedEvent(seq, f"unknown fields for {kind}: {sorted(obj.keys() - fields)}")
    return _new(TraceEvent, (seq, parser(obj, seq)))


# the decoder's scanner (C where available): one JSON value at an index,
# without ``json.loads``'s wrapper calls and whitespace scans
_scan_once = json.JSONDecoder().scan_once
# what JSON counts as whitespace; other padding makes a line invalid JSON
_JSON_SPACE = " \t\r\n"


def iter_trace(lines: Iterable[str]) -> Iterator[TraceEvent]:
    """Parse a JSONL trace lazily: header line first, then seq-ordered events.

    Each event is yielded before the next line is read, so an error in a
    later line is raised only when the iteration reaches it.  A line of
    JSON whitespace alone is skipped.
    """
    last_seq = None
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
        if last_seq is not None and event.seq <= last_seq:
            raise OutOfOrderTrace(event.seq)
        last_seq = event.seq
        yield event
    if not saw_header:
        raise TraceError("empty trace: missing format header")


def parse_trace(lines: Iterable[str]) -> list[TraceEvent]:
    """Parse a whole JSONL trace, raising any error before returning."""
    return list(iter_trace(lines))


def event_to_object(te: TraceEvent) -> dict:
    """Serialize a TraceEvent back into its wire-format JSON object."""
    ev = te.event
    out: dict = {"seq": te.seq}
    if isinstance(ev, FileAccess):
        out.update(kind="FileAccess", pid=ev.pid, path=ev.path,
                   requested=format_access(ev.requested))
        if ev.fs_kind != FsKind.REGULAR:
            out["fs_kind"] = _FSKIND_NAMES[ev.fs_kind]
        if ev.owner_mount_ns is not None:
            out["owner_mount_ns"] = ev.owner_mount_ns
        if ev.proc_subject_pid is not None:
            out["proc_subject_pid"] = ev.proc_subject_pid
    elif isinstance(ev, SocketOp):
        out.update(kind="SocketOp", pid=ev.pid, family=_FAMILY_NAMES[ev.family],
                   op=_SOCKOP_NAMES[ev.op])
    elif isinstance(ev, IpcOp):
        out.update(kind="IpcOp", pid=ev.pid, peer_pid=ev.peer_pid,
                   mechanism=_IPC_NAMES[ev.mechanism])
    elif isinstance(ev, CapabilityUse):
        out.update(kind="CapabilityUse", pid=ev.pid, capability=ev.capability,
                   possessed=ev.possessed)
    elif isinstance(ev, CommitCreds):
        out.update(kind="CommitCreds", pid=ev.pid,
                   old_priv={"uid": ev.old_priv.uid,
                             "capability_set": sorted(ev.old_priv.capability_set)},
                   new_priv={"uid": ev.new_priv.uid,
                             "capability_set": sorted(ev.new_priv.capability_set)})
    elif isinstance(ev, SwitchNamespaces):
        out.update(kind="SwitchNamespaces", pid=ev.pid)
    elif isinstance(ev, HardeningOp):
        out.update(kind="HardeningOp", pid=ev.pid, op=_HARDENING_NAMES[ev.op])
    elif isinstance(ev, Confine):
        out.update(kind="confine", pid=ev.pid, policy_name=ev.policy_name,
                   ns_info={"mount_ns": ev.mount_ns, "ipc_ns": ev.ipc_ns})
    elif isinstance(ev, Fork):
        out.update(kind="fork", parent=ev.parent, child=ev.child)
    elif isinstance(ev, Exit):
        out.update(kind="exit", pid=ev.pid)
    else:  # pragma: no cover
        raise TypeError(f"unhandled event {ev!r}")
    return out


def write_trace(events: Iterable[TraceEvent], fh: TextIO):
    fh.write(FORMAT_HEADER)
    for te in events:
        fh.write(json.dumps(event_to_object(te), separators=(",", ":")) + "\n")


# --- replay ---------------------------------------------------------------------

def replay(events: Iterable[TraceEvent], store: CompiledPolicyStore,
           state: ContainerState | None = None,
           audit_capacity: int = DEFAULT_AUDIT_CAPACITY, records=None,
) -> tuple[ContainerState, AuditLog]:
    """Apply a seq-ordered trace; returns final state and the audit log.

    The log keeps its records in ``records`` (a list by default), anything
    with ``append`` and ``len()``, such as an ``AuditWriter``.

    A Kill decision retires the pid immediately (its exit is implied, and
    the kill record subsumes any removal record).  Later events from a
    killed pid are audited as unconfined warnings — a live kernel would
    never deliver them, but traces can contain anything.
    """
    if state is None:
        state = ContainerState(store)
    log = AuditLog(audit_capacity, [] if records is None else records)
    append = log.append
    killed: set[int] = set()
    last_seq = None
    n_events = 0

    for seq, ev in events:
        if last_seq is not None and seq <= last_seq:
            raise OutOfOrderTrace(seq)
        last_seq = seq
        n_events += 1

        if isinstance(ev, _HOOK_TYPES):
            if ev.pid in killed:
                append(AuditRecord(seq, ev, V_UNCONFINED, R_KILLED_EVENT))
                continue
            decision = decide(ev, state, store)
            append(_new(AuditRecord, (seq, ev) + decision))
            if decision.verdict_code == V_KILL:
                killed.add(ev.pid)
                state.on_exit(ev.pid)
            continue

        if isinstance(ev, Confine):
            if ev.pid in killed:
                append(AuditRecord(seq, ev, O_ERROR, R_KILLED_CONFINE))
                continue
            try:
                container = state.confine(ev.pid, ev.policy_name,
                                          mount_ns=ev.mount_ns, ipc_ns=ev.ipc_ns)
            except StateError as exc:
                append(AuditRecord(seq, ev, O_ERROR, R_STATE_ERROR, str(exc)))
                continue
            cid = container.container_id
            append(_new(AuditRecord,
                        (seq, ev, O_CREATED, R_CREATED, cid, cid, ev.policy_name, None)))
        elif isinstance(ev, Fork):
            if ev.child in killed:
                append(AuditRecord(seq, ev, O_ERROR, R_KILLED_FORK))
                continue
            try:
                state.on_fork(ev.parent, ev.child)
            except StateError as exc:
                append(AuditRecord(seq, ev, O_ERROR, R_STATE_ERROR, str(exc)))
        elif isinstance(ev, Exit):
            removed = state.on_exit(ev.pid)
            if removed is not None:
                cid = removed.container_id
                append(_new(AuditRecord, (seq, ev, O_REMOVED, R_REMOVED, cid, cid,
                                          store.meta(removed.policy_id).name, None)))
        else:
            raise TypeError(f"replay() cannot apply event {ev!r}")

    log.events = n_events
    return state, log
