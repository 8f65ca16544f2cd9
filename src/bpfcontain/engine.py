"""The reference-monitor core: one HookEvent in, one Decision out.

The pipeline, in precedence order: unconfined passthrough; hardening
checks (unconditional); implicit filesystem policy; taint triggers; the
untainted exemption; explicit deny rules; the capability mask; explicit
allow rules; the policy's default mode.  A taint trigger is committed
before the triggering event is judged, so the event itself is evaluated
under the tainted regime.

A Decision is codes only; its stage and reason text are rendered from the
reason table below when asked for.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import core
from .core import (
    R_ALLOW_RULE,
    R_BPFFS,
    R_DEFAULT,
    R_DENY_RULE,
    R_EXEMPT,
    R_NET_FAMILY,
    R_OVERLAY,
    R_PROC_FOREIGN,
    R_PROC_SELF,
    R_UNIX_IPC,
    T_CAP,
    T_DEV,
    T_IPC,
    T_NET,
    V_ALLOW,
    V_DENY,
    V_KILL,
    V_UNCONFINED,
)
from .compiler import MAP_CATEGORIES, PolicyMeta
from .events import (
    CapabilityUse,
    CommitCreds,
    FileAccess,
    FsKind,
    HardeningOp,
    HookEvent,
    IpcOp,
    SocketOp,
    SwitchNamespaces,
    HARDENING_SHORT,
)
from .policy import AccessFlags, format_access, format_device, format_net
from .state import Container, ContainerState


# the file-system kinds decide() tests for each FileAccess, loaded once
_PROCFS, _SYSFS, _OVERLAYFS, _BPFFS = (
    FsKind.PROCFS, FsKind.SYSFS, FsKind.OVERLAYFS, FsKind.BPFFS)
_WRITE_OR_APPEND = int(AccessFlags.WRITE | AccessFlags.APPEND)
# the (allow, deny, taint) triple of an ipc peer or capability no rule names
_NO_RULE = (0, 0, 0)


class Verdict(Enum):
    ALLOW = "Allow"
    DENY = "Deny"
    KILL = "Kill"
    UNCONFINED = "Unconfined"


_VERDICTS = tuple(Verdict)  # indexed by the kernel's V_* codes

# reason code -> (stage, text); ``{detail}`` is the decision's detail and
# ``{policy}`` its policy name.  Rule hits and the default mode are worded
# by ``reason_text`` from the kernel's detail and the verdict.  The kernel's
# codes have their rows here; the engine and the replay declare theirs below.
_REASONS = {
    R_EXEMPT: ("untainted-exemption", "untainted container is exempt from enforcement"),
    R_DENY_RULE: ("explicit-deny", None),
    R_ALLOW_RULE: ("explicit-allow", None),
    R_DEFAULT: ("default-mode", None),
    R_PROC_SELF: ("implicit-fs", "implicit policy: own {detail} entry"),
    R_PROC_FOREIGN: ("implicit-fs", "implicit policy: foreign {detail} entry"),
    R_OVERLAY: ("implicit-fs", "implicit policy: overlay filesystem owned by container"),
    R_BPFFS: ("hardening", "implicit hardening (bpffs pinned object)"),
    R_NET_FAMILY: ("implicit-net", "implicit policy: address family denied"),
    R_UNIX_IPC: ("ipc", "unix domain socket (ipc within container)"),
}


def _reason(stage: str, text: str) -> int:
    """Declare the next reason code: its row is ``(stage, text)``."""
    code = len(_REASONS) + 1
    _REASONS[code] = (stage, text)
    return code


# The engine's reason codes, numbered in the order they are declared.
R_UNCONFINED = _reason("unconfined", "pid is not confined")
R_ESCALATION_UID = _reason("hardening", "privilege escalation in commit_creds (uid {detail}->0)")
R_ESCALATION_CAPS = _reason("hardening", "privilege escalation in commit_creds (capability gain)")
R_CREDS_CHANGE = _reason("hardening", "credential change without escalation")
R_NS_SWITCH = _reason("hardening", "implicit hardening (namespace switch)")
R_HARDENING_OP = _reason("hardening", "implicit hardening ({detail})")
R_IPC_SAME = _reason("ipc", "ipc within the same container")
R_IPC_UNCONFINED = _reason("ipc", "ipc with an unconfined process")
R_IPC_DENY_RULE = _reason("explicit-deny", "ipc rule denies policy {detail}")
R_IPC_NO_RULE = _reason("ipc", "no ipc rule for policy {detail}")
R_IPC_ONE_SIDED = _reason("ipc", "policy {detail} does not allowlist {policy}")
R_IPC_NS_MISMATCH = _reason("ipc", "ipc namespace mismatch")
R_IPC_MUTUAL = _reason("ipc", "mutual ipc allowlist with policy {detail}")
R_CAP_DENY_RULE = _reason("explicit-deny", "capability rule denies {detail}")
R_CAP_ALLOW_RULE = _reason("explicit-allow", "capability rule {detail}")
R_CAP_NOT_POSSESSED = _reason("capability-mask", "capability {detail} not possessed")
R_CAP_NO_RULE = _reason("capability-mask", "capability mask, no rule for {detail}")
R_KILLED_EVENT = _reason("lifecycle", "warning: event from pid killed earlier in trace")
# lifecycle outcomes, audited by the replay rather than decided here
R_CREATED = _reason("lifecycle", "container {detail} created")
R_REMOVED = _reason("lifecycle", "container {detail} removed")
R_STATE_ERROR = _reason("lifecycle", "{detail}")


def _rule_text(tier: int, key, mask: int) -> str:
    """What a rule entry names: ``/etc rw``, ``tty rw``, ``client send``, a name."""
    if tier == T_NET:
        return format_net(key)
    if tier == T_IPC or tier == T_CAP:
        return key
    if tier == T_DEV:
        key = format_device(key)
    return f"{key} {format_access(mask)}"


def reason_text(verdict_code: int, code: int, detail=None, policy: str | None = None,
                taint_detail=None) -> str:
    """The audit reason for a decision's codes, e.g. ``device rule tty rw``."""
    if code == R_ALLOW_RULE or code == R_DENY_RULE:
        reason = f"{MAP_CATEGORIES[detail[0]]} rule {_rule_text(*detail)}"
    elif code == R_DEFAULT:
        reason = "default allow" if verdict_code == V_ALLOW else "no matching rule under default deny"
    else:
        reason = _REASONS[code][1].format(detail=detail, policy=policy)
    if taint_detail is None:
        return reason
    tier = taint_detail[0]
    trigger = _rule_text(*taint_detail)
    if tier != T_DEV:  # a device trigger names only the device
        trigger = f"{MAP_CATEGORIES[tier]} {trigger}"
    return f"tainted by rule {trigger}, then {reason}"


class Decision(NamedTuple):
    """One decision as codes; the text is rendered only when asked for.

    ``verdict_code`` is a kernel ``V_*`` code, ``code`` a reason code (the
    kernel's ``R_*`` or the engine's), ``detail`` the kernel's
    ``(tier, key, mask)`` for rule hits or the value the reason names, and
    ``taint_detail`` the taint rule this decision committed, if any.
    """

    verdict_code: int
    code: int
    detail: object = None
    container_id: int | None = None
    policy: str | None = None
    taint_detail: tuple | None = None

    @property
    def verdict(self) -> Verdict:
        return _VERDICTS[self.verdict_code]

    @property
    def stage(self) -> str:
        return _REASONS[self.code][0]

    @property
    def reason(self) -> str:
        """The audit line's reason, its taint clause included."""
        return reason_text(self.verdict_code, self.code, self.detail, self.policy,
                           self.taint_detail)

    @property
    def taint_transition(self) -> bool:
        return self.taint_detail is not None

    def explain(self) -> str:
        """Human-readable outcome, e.g. ``Allow: device rule tty rw``."""
        return f"{self.verdict.value}: {self.reason}"


# the decisions for every event from an unconfined pid, and from a killed one
_UNCONFINED = Decision(V_UNCONFINED, R_UNCONFINED)
_KILLED = Decision(V_UNCONFINED, R_KILLED_EVENT)
# ``tuple.__new__(NT, values)`` builds a NamedTuple in one C call, without the
# Python ``__new__`` its class generates; the hot paths here and in ``trace``
# build with it
_new = tuple.__new__


def _finish(verdict: int, code: int, detail, container: Container, policy: str,
            state: ContainerState, taint_detail) -> Decision:
    """Commit a pending taint transition and return the decision.

    Only an untainted container's decision names a taint rule."""
    if taint_detail is not None:
        state.taint(container)
    return _new(Decision, (verdict, code, detail, container.container_id, policy, taint_detail))


def decide(event: HookEvent, state: ContainerState) -> Decision:
    """Decide one mediated event against the state and the policy its container holds."""
    container = state.lookup(event.pid)
    if container is None:
        return _KILLED if event.pid in state.killed else _UNCONFINED
    meta = container.meta

    # hot kinds first; the hardening family below is enforced regardless of
    # taint state or default mode
    if isinstance(event, FileAccess):
        fs_kind = event.fs_kind
        requested = event.requested
        implicit = 0
        if fs_kind == _PROCFS or fs_kind == _SYSFS:
            implicit = (R_PROC_SELF if event.proc_subject_pid in container.pid_set
                        else R_PROC_FOREIGN)
        elif (fs_kind == _OVERLAYFS and event.owner_mount_ns is not None
              and event.owner_mount_ns == container.mount_ns):
            implicit = R_OVERLAY
        elif fs_kind == _BPFFS and requested & _WRITE_OR_APPEND:
            # pinned-object protection: mutating bpffs is hardening, not policy
            return Decision(V_DENY, R_BPFFS, None, container.container_id, meta.name)
        verdict, code, detail, taint_detail = core.decide_file_access(
            meta.files, meta.default_allow, container.tainted, implicit,
            event.path, requested,
        )
        if code == R_PROC_SELF or code == R_PROC_FOREIGN:
            detail = "procfs" if fs_kind == _PROCFS else "sysfs"
        return _finish(verdict, code, detail, container, meta.name, state, taint_detail)

    if isinstance(event, SocketOp):
        verdict, code, detail, taint_detail = core.decide_socket_op(
            meta.network, meta.default_allow, container.tainted, event.family, event.op)
        return _finish(verdict, code, detail, container, meta.name, state, taint_detail)

    if isinstance(event, IpcOp):
        return _decide_ipc(event, container, meta, state)

    if isinstance(event, CapabilityUse):
        return _decide_capability(event, container, meta, state)

    cid = container.container_id
    if isinstance(event, CommitCreds):
        old, new = event.old_priv, event.new_priv
        if new.uid == 0 and old.uid != 0:
            return Decision(V_KILL, R_ESCALATION_UID, old.uid, cid, meta.name)
        if not new.capability_set <= old.capability_set:
            return Decision(V_KILL, R_ESCALATION_CAPS, None, cid, meta.name)
        return Decision(V_ALLOW, R_CREDS_CHANGE, None, cid, meta.name)

    if isinstance(event, SwitchNamespaces):
        return Decision(V_DENY, R_NS_SWITCH, None, cid, meta.name)

    if isinstance(event, HardeningOp):
        return Decision(V_DENY, R_HARDENING_OP, HARDENING_SHORT[event.op], cid, meta.name)

    raise TypeError(f"decide() cannot judge event {event!r}")


def _decide_ipc(event: IpcOp, container: Container, meta: PolicyMeta,
                state: ContainerState) -> Decision:
    cid = container.container_id
    my_name = meta.name
    peer = state.lookup(event.peer_pid)
    if peer is None:
        if container.tainted:
            return Decision(V_DENY, R_IPC_UNCONFINED, None, cid, my_name)
        return Decision(V_ALLOW, R_EXEMPT, None, cid, my_name)
    if peer.container_id == cid:
        return Decision(V_ALLOW, R_IPC_SAME, None, cid, my_name)

    peer_name = peer.meta.name
    allow, deny, taint = meta.ipc.get(peer_name, _NO_RULE)
    if not container.tainted and not taint:
        return Decision(V_ALLOW, R_EXEMPT, None, cid, my_name)
    taint_detail = None if container.tainted else (T_IPC, peer_name, 0)
    peer_allow, peer_deny, _ = peer.meta.ipc.get(my_name, _NO_RULE)
    if deny or peer_deny:
        code = R_IPC_DENY_RULE
    elif not allow:
        code = R_IPC_NO_RULE
    elif not peer_allow:
        code = R_IPC_ONE_SIDED
    elif container.ipc_ns != peer.ipc_ns:
        code = R_IPC_NS_MISMATCH
    else:
        return _finish(V_ALLOW, R_IPC_MUTUAL, peer_name, container, my_name, state,
                       taint_detail)
    return _finish(V_DENY, code, peer_name, container, my_name, state, taint_detail)


def _decide_capability(event: CapabilityUse, container: Container, meta: PolicyMeta,
                       state: ContainerState) -> Decision:
    cap = event.capability
    my_name = meta.name
    allow, deny, taint = meta.capability.get(cap, _NO_RULE)

    taint_detail = None
    if not container.tainted:
        if taint:
            taint_detail = (T_CAP, cap, 0)
        else:
            return Decision(V_ALLOW, R_EXEMPT, None, container.container_id, my_name)

    if deny:
        code = R_CAP_DENY_RULE
    elif not allow:
        code = R_CAP_NO_RULE
    elif event.possessed:
        return _finish(V_ALLOW, R_CAP_ALLOW_RULE, cap, container, my_name, state, taint_detail)
    else:
        code = R_CAP_NOT_POSSESSED
    return _finish(V_DENY, code, cap, container, my_name, state, taint_detail)
