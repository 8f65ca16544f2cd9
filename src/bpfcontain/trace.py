"""Replay ordered event traces and collect the audit trail.

Traces stand in for live kernel attachment: JSON Lines, a ``{"format": 1}``
header, then one event object per line with a strictly increasing ``seq``.
Replay routes lifecycle records through container state, judges mediated
events through the engine, and appends one audit record per mediated event
(lifecycle records only audit errors, creations, and removals).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from .compiler import CompiledPolicyStore
from .engine import Decision, Verdict, decide
from .errors import (
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
from .policy import format_access, parse_access, normalize_event_path
from .state import ContainerState

TRACE_FORMAT_VERSION = 1
DEFAULT_AUDIT_CAPACITY = 65536


# --- lifecycle records --------------------------------------------------------

@dataclass(frozen=True)
class Confine:
    pid: int
    policy_name: str
    mount_ns: int = 0
    ipc_ns: int = 0

    def summary(self) -> str:
        return f"confine pid={self.pid} policy={self.policy_name}"


@dataclass(frozen=True)
class Fork:
    parent: int
    child: int

    def summary(self) -> str:
        return f"fork {self.parent}->{self.child}"


@dataclass(frozen=True)
class Exit:
    pid: int

    def summary(self) -> str:
        return f"exit {self.pid}"


LifecycleEvent = Confine | Fork | Exit


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    event: HookEvent | LifecycleEvent


# --- audit trail ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AuditRecord:
    seq: int
    container_id: int | None
    policy: str | None
    event: str
    decision: str
    reason: str
    taint_transition: bool = False

    def to_json(self) -> str:
        return json.dumps({
            "seq": self.seq,
            "container_id": self.container_id,
            "policy": self.policy,
            "event": self.event,
            "decision": self.decision,
            "reason": self.reason,
            "taint_transition": self.taint_transition,
        }, separators=(",", ":"))


@dataclass
class AuditLog:
    """Bounded in-memory audit sink with ring-buffer overflow accounting.

    New records are dropped (and counted) once the buffer is full, the way
    a fixed-size ring buffer sheds events the consumer never drained.
    """

    capacity: int = DEFAULT_AUDIT_CAPACITY
    records: list[AuditRecord] = field(default_factory=list)
    dropped: int = 0
    events: int = 0
    allows: int = 0
    denies: int = 0
    kills: int = 0
    taints: int = 0

    def append(self, record: AuditRecord):
        if len(self.records) < self.capacity:
            self.records.append(record)
        else:
            self.dropped += 1

    def count_decision(self, decision: Decision):
        if decision.verdict is Verdict.ALLOW:
            self.allows += 1
        elif decision.verdict is Verdict.DENY:
            self.denies += 1
        elif decision.verdict is Verdict.KILL:
            self.kills += 1
        if decision.taint_transition:
            self.taints += 1

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
        fh.write(json.dumps({"format": TRACE_FORMAT_VERSION}, separators=(",", ":")) + "\n")
        for record in self.records:
            fh.write(record.to_json() + "\n")


# --- trace parsing -------------------------------------------------------------

# wire spelling -> enum member, inverted from the tables in ``events``
_FS_KINDS = {name: kind for kind, name in _FSKIND_NAMES.items()}
_FAMILIES = {name: family for family, name in _FAMILY_NAMES.items()}
_SOCK_OPS = {name: op for op, name in _SOCKOP_NAMES.items()}
_MECHANISMS = {name: mech for mech, name in _IPC_NAMES.items()}
_HARDENING_OPS = {name: op for op, name in _HARDENING_NAMES.items()}

_KIND_FIELDS = {
    "FileAccess": {"pid", "path", "requested", "fs_kind", "owner_mount_ns", "proc_subject_pid"},
    "SocketOp": {"pid", "family", "op"},
    "IpcOp": {"pid", "peer_pid", "mechanism"},
    "CapabilityUse": {"pid", "capability", "possessed"},
    "CommitCreds": {"pid", "old_priv", "new_priv"},
    "SwitchNamespaces": {"pid"},
    "HardeningOp": {"pid", "op"},
    "fork": {"parent", "child"},
    "exit": {"pid"},
    "confine": {"pid", "policy_name", "ns_info"},
}


def _need(obj: dict, key: str, types, seq) -> object:
    if key not in obj:
        raise MalformedEvent(seq, f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise MalformedEvent(seq, f"field {key!r} has wrong type")
    return value


def _int(value, what: str, seq) -> int:
    """The one integer check for trace fields; JSON true/false are not integers."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedEvent(seq, f"{what} must be an integer")
    return value


def _int_field(obj: dict, key: str, seq) -> int:
    if key not in obj:
        raise MalformedEvent(seq, f"missing field {key!r}")
    return _int(obj[key], key, seq)


def _enum_field(obj: dict, key: str, table: dict, seq):
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
    return PrivLevel(uid=uid, capability_set=frozenset(caps))


def parse_trace_object(obj: dict, seq=None) -> TraceEvent:
    """Turn one decoded JSON object into a TraceEvent.

    ``seq`` may be pre-supplied for inline events (cli explain) that carry
    no sequence number of their own.
    """
    if not isinstance(obj, dict):
        raise MalformedEvent(seq, "event must be a JSON object")
    obj = dict(obj)
    if "seq" in obj:
        seq = _int(obj.pop("seq"), "seq", seq)
    elif seq is None:
        raise MalformedEvent(None, "missing field 'seq'")

    kind = obj.pop("kind", None)
    if kind is None:
        raise MalformedEvent(seq, "missing field 'kind'")
    if kind not in _KIND_FIELDS:
        raise MalformedEvent(seq, f"unknown event kind {kind!r}")
    extra = set(obj) - _KIND_FIELDS[kind]
    if extra:
        raise MalformedEvent(seq, f"unknown fields for {kind}: {sorted(extra)}")

    if kind == "FileAccess":
        pid = _int_field(obj, "pid", seq)
        path = _need(obj, "path", str, seq)
        try:
            path = normalize_event_path(path)
        except ValueError as exc:
            raise MalformedEvent(seq, str(exc)) from exc
        try:
            requested = parse_access(_need(obj, "requested", str, seq))
        except Exception as exc:
            raise MalformedEvent(seq, f"bad requested flags: {exc}") from exc
        fs_kind = FsKind.REGULAR
        if "fs_kind" in obj:
            fs_kind = _enum_field(obj, "fs_kind", _FS_KINDS, seq)
        owner_ns = None
        if "owner_mount_ns" in obj and obj["owner_mount_ns"] is not None:
            owner_ns = _int_field(obj, "owner_mount_ns", seq)
        subj = None
        if "proc_subject_pid" in obj and obj["proc_subject_pid"] is not None:
            subj = _int_field(obj, "proc_subject_pid", seq)
        return TraceEvent(seq, FileAccess(pid, path, requested, fs_kind, owner_ns, subj))
    if kind == "SocketOp":
        return TraceEvent(seq, SocketOp(
            _int_field(obj, "pid", seq),
            _enum_field(obj, "family", _FAMILIES, seq),
            _enum_field(obj, "op", _SOCK_OPS, seq),
        ))
    if kind == "IpcOp":
        return TraceEvent(seq, IpcOp(
            _int_field(obj, "pid", seq),
            _int_field(obj, "peer_pid", seq),
            _enum_field(obj, "mechanism", _MECHANISMS, seq),
        ))
    if kind == "CapabilityUse":
        possessed = _need(obj, "possessed", bool, seq)
        return TraceEvent(seq, CapabilityUse(
            _int_field(obj, "pid", seq),
            _need(obj, "capability", str, seq),
            possessed,
        ))
    if kind == "CommitCreds":
        return TraceEvent(seq, CommitCreds(
            _int_field(obj, "pid", seq),
            _priv_level(obj, "old_priv", seq),
            _priv_level(obj, "new_priv", seq),
        ))
    if kind == "SwitchNamespaces":
        return TraceEvent(seq, SwitchNamespaces(_int_field(obj, "pid", seq)))
    if kind == "HardeningOp":
        return TraceEvent(seq, HardeningOp(
            _int_field(obj, "pid", seq),
            _enum_field(obj, "op", _HARDENING_OPS, seq),
        ))
    if kind == "fork":
        return TraceEvent(seq, Fork(_int_field(obj, "parent", seq),
                                    _int_field(obj, "child", seq)))
    if kind == "exit":
        return TraceEvent(seq, Exit(_int_field(obj, "pid", seq)))
    # confine
    pid = _int_field(obj, "pid", seq)
    name = _need(obj, "policy_name", str, seq)
    mount_ns = ipc_ns = 0
    if "ns_info" in obj and obj["ns_info"] is not None:
        ns = _need(obj, "ns_info", dict, seq)
        extra = set(ns) - {"mount_ns", "ipc_ns"}
        if extra:
            raise MalformedEvent(seq, f"ns_info: unknown fields {sorted(extra)}")
        mount_ns = _int(ns.get("mount_ns", 0), "ns_info.mount_ns", seq)
        ipc_ns = _int(ns.get("ipc_ns", 0), "ns_info.ipc_ns", seq)
    return TraceEvent(seq, Confine(pid, name, mount_ns, ipc_ns))


def parse_trace(lines: Iterable[str]) -> list[TraceEvent]:
    """Parse a JSONL trace: header line first, then seq-ordered events."""
    events: list[TraceEvent] = []
    last_seq = None
    saw_header = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedEvent(last_seq, f"line {lineno}: invalid JSON: {exc}") from exc
        if not saw_header:
            if not isinstance(obj, dict) or obj.get("format") != TRACE_FORMAT_VERSION:
                raise TraceError(
                    f'trace must start with {{"format": {TRACE_FORMAT_VERSION}}}')
            saw_header = True
            continue
        event = parse_trace_object(obj)
        if last_seq is not None and event.seq <= last_seq:
            raise OutOfOrderTrace(event.seq)
        last_seq = event.seq
        events.append(event)
    if not saw_header:
        raise TraceError("empty trace: missing format header")
    return events


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
    fh.write(json.dumps({"format": TRACE_FORMAT_VERSION}, separators=(",", ":")) + "\n")
    for te in events:
        fh.write(json.dumps(event_to_object(te), separators=(",", ":")) + "\n")


# --- replay ---------------------------------------------------------------------

def replay(events: Iterable[TraceEvent], store: CompiledPolicyStore,
           state: ContainerState | None = None,
           audit_capacity: int = DEFAULT_AUDIT_CAPACITY,
) -> tuple[ContainerState, AuditLog]:
    """Apply a seq-ordered trace; returns final state and the audit log.

    A Kill decision retires the pid immediately (its exit is implied, and
    the kill record subsumes any removal record).  Later events from a
    killed pid are audited as unconfined warnings — a live kernel would
    never deliver them, but traces can contain anything.
    """
    if state is None:
        state = ContainerState(store)
    log = AuditLog(capacity=audit_capacity)
    killed: set[int] = set()
    last_seq = None

    for te in events:
        if last_seq is not None and te.seq <= last_seq:
            raise OutOfOrderTrace(te.seq)
        last_seq = te.seq
        log.events += 1
        ev = te.event

        if isinstance(ev, Confine):
            if ev.pid in killed:
                log.append(AuditRecord(te.seq, None, None, ev.summary(), "Error",
                                       "confine refused: pid was killed earlier in trace"))
                continue
            try:
                container = state.confine(ev.pid, ev.policy_name,
                                          mount_ns=ev.mount_ns, ipc_ns=ev.ipc_ns)
            except StateError as exc:
                log.append(AuditRecord(te.seq, None, None, ev.summary(), "Error", str(exc)))
                continue
            log.append(AuditRecord(te.seq, container.container_id, ev.policy_name,
                                   ev.summary(), "Created",
                                   f"container {container.container_id} created"))
            continue

        if isinstance(ev, Fork):
            if ev.child in killed:
                log.append(AuditRecord(te.seq, None, None, ev.summary(), "Error",
                                       "fork refused: child pid was killed earlier in trace"))
                continue
            try:
                state.on_fork(ev.parent, ev.child)
            except StateError as exc:
                log.append(AuditRecord(te.seq, None, None, ev.summary(), "Error", str(exc)))
            continue

        if isinstance(ev, Exit):
            removed = state.on_exit(ev.pid)
            if removed is not None:
                meta = store.meta(removed.policy_id)
                log.append(AuditRecord(te.seq, removed.container_id, meta.name,
                                       ev.summary(), "Removed",
                                       f"container {removed.container_id} removed"))
            continue

        # mediated events
        if ev.pid in killed:
            log.append(AuditRecord(te.seq, None, None, ev.summary(), "Unconfined",
                                   "warning: event from pid killed earlier in trace"))
            continue
        decision = decide(ev, state, store)
        log.count_decision(decision)
        # build the record only if the ring has room (drops are just counted)
        if len(log.records) < log.capacity:
            log.records.append(AuditRecord(
                te.seq, decision.container_id, decision.policy, ev.summary(),
                decision.verdict.value, decision.audit_reason(),
                taint_transition=decision.taint_transition,
            ))
        else:
            log.dropped += 1
        if decision.verdict is Verdict.KILL:
            killed.add(ev.pid)
            state.on_exit(ev.pid)

    return state, log
