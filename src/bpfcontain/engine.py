"""The reference-monitor core: one HookEvent in, one Decision out.

The pipeline, in precedence order: unconfined passthrough; hardening
checks (unconditional); implicit filesystem policy; taint triggers; the
untainted exemption; explicit deny rules; the capability mask; explicit
allow rules; the policy's default mode.  A taint trigger is committed
before the triggering event is judged, so the event itself is evaluated
under the tainted regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    SUBJ_FOREIGN,
    SUBJ_NA,
    SUBJ_OWN,
    T_CAP,
    T_DEV,
    T_FILE,
    T_FS,
    T_IPC,
    T_NET,
    T_SUBDIR,
)
from .compiler import CompiledPolicyStore, F_ALLOW, F_DENY, F_TAINT
from .errors import StoreNotSealed, UnknownPolicy
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
from .policy import format_access, format_device, format_net
from .state import Container, ContainerState


class Verdict(Enum):
    ALLOW = "Allow"
    DENY = "Deny"
    KILL = "Kill"
    UNCONFINED = "Unconfined"


_VERDICTS = (Verdict.ALLOW, Verdict.DENY, Verdict.KILL, Verdict.UNCONFINED)


@dataclass(frozen=True, slots=True)
class Decision:
    verdict: Verdict
    stage: str
    reason: str
    container_id: int | None = None
    policy: str | None = None
    taint_transition: bool = False
    taint_reason: str | None = None

    @property
    def allowed(self) -> bool:
        return self.verdict is Verdict.ALLOW

    def explain(self) -> str:
        """Human-readable outcome, e.g. ``Allow: device rule tty rw``."""
        return f"{self.verdict.value}: {self.audit_reason()}"

    def audit_reason(self) -> str:
        if self.taint_transition:
            return f"tainted by rule {self.taint_reason}, then {self.reason}"
        return self.reason


def _describe_entry(tier: int, key, mask: int) -> str:
    if tier == T_FILE:
        return f"file rule {key} {format_access(mask)}"
    if tier == T_SUBDIR:
        return f"subdir rule {key} {format_access(mask)}"
    if tier == T_FS:
        return f"filesystem rule {key} {format_access(mask)}"
    if tier == T_DEV:
        return f"device rule {format_device(key)} {format_access(mask)}"
    if tier == T_NET:
        return f"network rule {format_net(key)}"
    raise ValueError(f"unknown tier {tier}")


def _describe_taint(tier: int, key, mask: int) -> str:
    # shorter phrasing used inside "tainted by rule ..." prefixes
    if tier == T_DEV:
        return f"{format_device(key)} {format_access(mask)}"
    if tier == T_FILE:
        return f"file {key} {format_access(mask)}"
    if tier == T_SUBDIR:
        return f"subdir {key} {format_access(mask)}"
    if tier == T_FS:
        return f"filesystem {key} {format_access(mask)}"
    if tier == T_NET:
        return f"network {format_net(key)}"
    if tier == T_IPC:
        return f"ipc {key}"
    if tier == T_CAP:
        return f"capability {key}"
    raise ValueError(f"unknown tier {tier}")


def _kernel_reason(code: int, detail, event) -> tuple[str, str]:
    """Map a kernel reason code to (stage, reason text)."""
    if code == R_EXEMPT:
        return "untainted-exemption", "untainted container is exempt from enforcement"
    if code == R_DENY_RULE:
        return "explicit-deny", _describe_entry(*detail)
    if code == R_ALLOW_RULE:
        return "explicit-allow", _describe_entry(*detail)
    if code == R_DEFAULT:
        return "default-mode", "default mode"
    if code == R_PROC_SELF:
        fs = "procfs" if event.fs_kind == FsKind.PROCFS else "sysfs"
        return "implicit-fs", f"implicit policy: own {fs} entry"
    if code == R_PROC_FOREIGN:
        fs = "procfs" if event.fs_kind == FsKind.PROCFS else "sysfs"
        return "implicit-fs", f"implicit policy: foreign {fs} entry"
    if code == R_OVERLAY:
        return "implicit-fs", "implicit policy: overlay filesystem owned by container"
    if code == R_BPFFS:
        return "hardening", "implicit hardening (bpffs pinned object)"
    if code == R_NET_FAMILY:
        return "implicit-net", "implicit policy: address family denied"
    if code == R_UNIX_IPC:
        return "ipc", "unix domain socket (ipc within container)"
    raise ValueError(f"unknown kernel reason {code}")


def _finish(verdict_code: int, stage: str, reason: str, container: Container,
            meta_name: str, state: ContainerState, taint_detail) -> Decision:
    taint_transition = False
    taint_reason = None
    if taint_detail is not None and not container.tainted:
        state.taint(container.container_id)
        taint_transition = True
        taint_reason = _describe_taint(*taint_detail)
    verdict = _VERDICTS[verdict_code]
    if verdict is Verdict.DENY and stage == "default-mode":
        reason = "no matching rule under default deny"
    elif verdict is Verdict.ALLOW and stage == "default-mode":
        reason = "default allow"
    return Decision(
        verdict=verdict,
        stage=stage,
        reason=reason,
        container_id=container.container_id,
        policy=meta_name,
        taint_transition=taint_transition,
        taint_reason=taint_reason,
    )


def decide(event: HookEvent, state: ContainerState,
           store: CompiledPolicyStore) -> Decision:
    """Decide one mediated event against current state and the sealed store."""
    if not store.sealed:
        raise StoreNotSealed("decisions require a sealed store")

    container = state.lookup(event.pid)
    if container is None:
        return Decision(Verdict.UNCONFINED, "unconfined", "pid is not confined")
    meta = store.meta(container.policy_id)
    if meta is None:
        raise UnknownPolicy(f"policy id {container.policy_id:#x}")

    # hot kinds first; the hardening family below is enforced regardless of
    # taint state or default mode
    if isinstance(event, FileAccess):
        if event.fs_kind in (FsKind.PROCFS, FsKind.SYSFS):
            if event.proc_subject_pid is not None and event.proc_subject_pid in container.pid_set:
                subject_rel = SUBJ_OWN
            else:
                subject_rel = SUBJ_FOREIGN
        else:
            subject_rel = SUBJ_NA
        overlay_owned = (
            event.fs_kind == FsKind.OVERLAYFS
            and event.owner_mount_ns is not None
            and event.owner_mount_ns == container.mount_ns
        )
        file_t, subdir_t, fs_t, dev_t = store.kernel_tables(container.policy_id)
        verdict, code, detail, taint_detail = core.decide_file_access(
            file_t, subdir_t, fs_t, dev_t,
            meta.default_allow, container.tainted,
            event.path, int(event.requested), int(event.fs_kind),
            subject_rel, overlay_owned,
        )
        stage, reason = _kernel_reason(code, detail, event)
        return _finish(verdict, stage, reason, container, meta.name, state, taint_detail)

    if isinstance(event, SocketOp):
        allow_cats, deny_cats, taint_cats = store.network_entry(container.policy_id)
        verdict, code, detail, taint_detail = core.decide_socket_op(
            allow_cats, deny_cats, taint_cats,
            meta.default_allow, container.tainted,
            int(event.family), int(event.op),
        )
        stage, reason = _kernel_reason(code, detail, event)
        return _finish(verdict, stage, reason, container, meta.name, state, taint_detail)

    if isinstance(event, IpcOp):
        return _decide_ipc(event, container, meta.name, state, store)

    if isinstance(event, CapabilityUse):
        return _decide_capability(event, container, meta.name, state, store)

    if isinstance(event, CommitCreds):
        if event.escalates:
            if event.new_priv.uid == 0 and event.old_priv.uid != 0:
                why = f"privilege escalation in commit_creds (uid {event.old_priv.uid}->0)"
            else:
                why = "privilege escalation in commit_creds (capability gain)"
            return Decision(Verdict.KILL, "hardening", why,
                            container.container_id, meta.name)
        return Decision(Verdict.ALLOW, "hardening",
                        "credential change without escalation",
                        container.container_id, meta.name)

    if isinstance(event, SwitchNamespaces):
        return Decision(Verdict.DENY, "hardening",
                        "implicit hardening (namespace switch)",
                        container.container_id, meta.name)

    if isinstance(event, HardeningOp):
        return Decision(Verdict.DENY, "hardening",
                        f"implicit hardening ({HARDENING_SHORT[event.op]})",
                        container.container_id, meta.name)

    raise TypeError(f"decide() cannot judge event {event!r}")


def _decide_ipc(event: IpcOp, container: Container, my_name: str,
                state: ContainerState, store: CompiledPolicyStore) -> Decision:
    peer = state.lookup(event.peer_pid)
    if peer is not None and peer.container_id == container.container_id:
        return Decision(Verdict.ALLOW, "ipc", "ipc within the same container",
                        container.container_id, my_name)

    taint_detail = None
    if not container.tainted:
        if peer is not None:
            flags = store.ipc_entry(container.policy_id, peer.policy_id)
            if flags & F_TAINT:
                peer_name = store.meta(peer.policy_id).name
                taint_detail = (T_IPC, peer_name, 0)
        if taint_detail is None:
            return Decision(Verdict.ALLOW, "untainted-exemption",
                            "untainted container is exempt from enforcement",
                            container.container_id, my_name)

    if peer is None:
        return _finish(1, "ipc", "ipc with an unconfined process",
                       container, my_name, state, taint_detail)

    peer_name = store.meta(peer.policy_id).name
    mine = store.ipc_entry(container.policy_id, peer.policy_id)
    theirs = store.ipc_entry(peer.policy_id, container.policy_id)
    if mine & F_DENY or theirs & F_DENY:
        return _finish(1, "explicit-deny", f"ipc rule denies policy {peer_name}",
                       container, my_name, state, taint_detail)
    if not mine & F_ALLOW:
        return _finish(1, "ipc", f"no ipc rule for policy {peer_name}",
                       container, my_name, state, taint_detail)
    if not theirs & F_ALLOW:
        return _finish(1, "ipc", f"policy {peer_name} does not allowlist {my_name}",
                       container, my_name, state, taint_detail)
    if container.ipc_ns != peer.ipc_ns:
        return _finish(1, "ipc", "ipc namespace mismatch",
                       container, my_name, state, taint_detail)
    return _finish(0, "ipc", f"mutual ipc allowlist with policy {peer_name}",
                   container, my_name, state, taint_detail)


def _decide_capability(event: CapabilityUse, container: Container, my_name: str,
                       state: ContainerState, store: CompiledPolicyStore) -> Decision:
    flags = store.capability_entry(container.policy_id, event.capability)

    taint_detail = None
    if not container.tainted:
        if flags & F_TAINT:
            taint_detail = (T_CAP, event.capability, 0)
        else:
            return Decision(Verdict.ALLOW, "untainted-exemption",
                            "untainted container is exempt from enforcement",
                            container.container_id, my_name)

    if flags & F_DENY:
        return _finish(1, "explicit-deny", f"capability rule denies {event.capability}",
                       container, my_name, state, taint_detail)
    if flags & F_ALLOW:
        if event.possessed:
            return _finish(0, "explicit-allow", f"capability rule {event.capability}",
                           container, my_name, state, taint_detail)
        return _finish(1, "capability-mask",
                       f"capability {event.capability} not possessed",
                       container, my_name, state, taint_detail)
    return _finish(1, "capability-mask",
                   f"capability mask, no rule for {event.capability}",
                   container, my_name, state, taint_detail)
