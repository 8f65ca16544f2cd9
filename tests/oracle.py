"""Naive reference interpreter used as the independent decision oracle.

Walks raw PolicyDocument rule lists for every decision — no compiled
store, no shared kernel code.  Deliberately slow and literal: each query
rescans the document, so the compiled path can be checked against it
entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from bpfcontain.events import (
    CapabilityUse,
    CommitCreds,
    FileAccess,
    FsKind,
    HardeningOp,
    IpcOp,
    SocketOp,
    SocketFamily,
    SocketOpKind,
    SwitchNamespaces,
)
from bpfcontain.policy import DefaultMode, DeviceKind, PolicyDocument

ALLOW, DENY, KILL, UNCONFINED = "Allow", "Deny", "Kill", "Unconfined"

W_OR_A = 2 | 4  # write|append bits
MAX_NESTED_SUBDIRS = 8
ALL_NET = 15

_OP_NEEDS = {
    SocketOpKind.CONNECT: 1,   # client
    SocketOpKind.BIND: 2,      # server
    SocketOpKind.LISTEN: 2,
    SocketOpKind.ACCEPT: 2,
    SocketOpKind.SHUTDOWN: 2,
    SocketOpKind.SEND: 4,
    SocketOpKind.RECEIVE: 8,
}


@dataclass
class OracleContainer:
    doc: PolicyDocument
    tainted: bool
    mount_ns: int = 0
    ipc_ns: int = 0
    pids: set[int] = field(default_factory=set)


@dataclass
class OracleWorld:
    """pid -> container mapping mirroring a ContainerState snapshot."""

    by_pid: dict[int, OracleContainer] = field(default_factory=dict)

    def confine(self, pid: int, doc: PolicyDocument, mount_ns=0, ipc_ns=0) -> OracleContainer:
        cont = OracleContainer(doc, tainted=not doc.taint,
                               mount_ns=mount_ns, ipc_ns=ipc_ns, pids={pid})
        self.by_pid[pid] = cont
        return cont

    def join(self, pid: int, cont: OracleContainer):
        cont.pids.add(pid)
        self.by_pid[pid] = cont


def components(path: str) -> list[str]:
    return [c for c in path.split("/") if c]


def device_kind_of(path: str) -> DeviceKind | None:
    if path == "/dev/null":
        return DeviceKind.NULL
    if path == "/dev/zero":
        return DeviceKind.ZERO
    if path in ("/dev/random", "/dev/urandom"):
        return DeviceKind.RANDOM
    if path.startswith("/dev/tty") or path.startswith("/dev/pts/"):
        return DeviceKind.TTY
    return None


def subdir_matches(root: str, path: str) -> bool:
    """Within the nested-subdirectory bound and strictly below the root."""
    if root == path:
        return False
    prefix = root if root.endswith("/") else root + "/"
    if not path.startswith(prefix):
        return False
    below = len(components(path)) - len(components(root))
    return 1 <= below <= MAX_NESTED_SUBDIRS + 1


def _rule_list(doc: PolicyDocument, which: str):
    return {"allow": doc.allow, "deny": doc.deny, "taint": doc.taint}[which]


def rule_mask(doc, which, category, key) -> int:
    """The union of the access of ``which``'s rules with this category and key."""
    mask = 0
    for rule in _rule_list(doc, which):
        if rule.category == category and rule.key == key:
            mask |= int(rule.access)
    return mask


def containing_mountpoint(doc: PolicyDocument, path: str) -> str | None:
    """Longest declared mountpoint that is a prefix of (or equals) path."""
    best = None
    for rules in (doc.allow, doc.deny, doc.taint):
        for rule in rules:
            if rule.category != "filesystem":
                continue
            mp = rule.key
            prefix = mp if mp.endswith("/") else mp + "/"
            if path == mp or path.startswith(prefix):
                if best is None or len(components(mp)) > len(components(best)):
                    best = mp
    return best


def matching_subdir_roots(doc, path) -> list[str]:
    """All declared subdir roots matching path, deepest first."""
    roots = set()
    for rules in (doc.allow, doc.deny, doc.taint):
        for rule in rules:
            if rule.category == "subdir" and subdir_matches(rule.key, path):
                roots.add(rule.key)
    return sorted(roots, key=lambda r: len(components(r)), reverse=True)


def net_mask(doc, which) -> int:
    return rule_mask(doc, which, "network", None)


def has_ipc_rule(doc, which, peer_name) -> bool:
    return bool(rule_mask(doc, which, "ipc", peer_name))


def has_cap_rule(doc, which, cap) -> bool:
    return bool(rule_mask(doc, which, "capability", cap))


def _file_rule_matches(doc, which, path, requested) -> bool:
    """Any ``which`` rule reaching this path with overlapping access."""
    if rule_mask(doc, which, "file", path) & requested:
        return True
    for root in matching_subdir_roots(doc, path):
        if rule_mask(doc, which, "subdir", root) & requested:
            return True
    mp = containing_mountpoint(doc, path)
    if mp is not None and rule_mask(doc, which, "filesystem", mp) & requested:
        return True
    kind = device_kind_of(path)
    if kind is not None and rule_mask(doc, which, "device", kind) & requested:
        return True
    return False


def file_deny_matches(doc, path, requested) -> bool:
    return _file_rule_matches(doc, "deny", path, requested)


def file_taint_matches(doc, path, requested) -> bool:
    return _file_rule_matches(doc, "taint", path, requested)


def file_granted(doc, path, explicit_only_tiers: bool) -> int:
    """The allow mask fixed by the most specific matching tier.

    ``explicit_only_tiers`` restricts resolution to file/subdir rules, the
    only ones that can rescue a foreign procfs/sysfs entry.
    """
    mask = rule_mask(doc, "allow", "file", path)
    if mask:
        return mask
    for root in matching_subdir_roots(doc, path):
        mask = rule_mask(doc, "allow", "subdir", root)
        if mask:
            return mask
    if explicit_only_tiers:
        return 0
    mp = containing_mountpoint(doc, path)
    if mp is not None:
        mask = rule_mask(doc, "allow", "filesystem", mp)
        if mask:
            return mask
    kind = device_kind_of(path)
    if kind is not None:
        mask = rule_mask(doc, "allow", "device", kind)
        if mask:
            return mask
    return 0


def oracle_decide(event, world: OracleWorld) -> tuple[str, bool]:
    """Returns (verdict, taint_triggered); never mutates the world."""
    cont = world.by_pid.get(event.pid)
    if cont is None:
        return UNCONFINED, False
    doc = cont.doc
    default_allow = doc.default == DefaultMode.ALLOW

    if isinstance(event, CommitCreds):
        escalates = (event.new_priv.uid == 0 and event.old_priv.uid != 0) or bool(
            event.new_priv.capability_set - event.old_priv.capability_set)
        return (KILL if escalates else ALLOW), False
    if isinstance(event, (SwitchNamespaces, HardeningOp)):
        return DENY, False

    if isinstance(event, FileAccess):
        return _oracle_file(event, cont, doc, default_allow)
    if isinstance(event, SocketOp):
        return _oracle_socket(event, cont, doc, default_allow)
    if isinstance(event, IpcOp):
        return _oracle_ipc(event, cont, doc, world)
    if isinstance(event, CapabilityUse):
        return _oracle_capability(event, cont, doc)
    raise TypeError(f"oracle cannot judge {event!r}")


def _oracle_file(event, cont, doc, default_allow):
    req = int(event.requested)
    path = event.path

    if event.fs_kind == FsKind.BPFFS and req & W_OR_A:
        return DENY, False

    own = foreign = False
    if event.fs_kind in (FsKind.PROCFS, FsKind.SYSFS):
        if event.proc_subject_pid is not None and event.proc_subject_pid in cont.pids:
            own = True
        else:
            foreign = True
    overlay_owned = (event.fs_kind == FsKind.OVERLAYFS
                     and event.owner_mount_ns is not None
                     and event.owner_mount_ns == cont.mount_ns)

    if foreign:
        granted = file_granted(doc, path, explicit_only_tiers=True)
        if req & ~granted:
            return DENY, False

    tainted = cont.tainted
    triggered = False
    if not tainted:
        if file_taint_matches(doc, path, req):
            triggered = True
        else:
            return ALLOW, False

    if file_deny_matches(doc, path, req):
        return DENY, triggered
    if own or overlay_owned:
        return ALLOW, triggered
    granted = file_granted(doc, path, explicit_only_tiers=foreign)
    if granted and not (req & ~granted):
        return ALLOW, triggered
    if foreign:
        return DENY, triggered
    return (ALLOW if default_allow else DENY), triggered


def _oracle_socket(event, cont, doc, default_allow):
    if event.family == SocketFamily.UNIX:
        return ALLOW, False
    if event.family == SocketFamily.OTHER:
        return (ALLOW if not cont.tainted else DENY), False

    tainted = cont.tainted
    triggered = False
    if not tainted:
        needs = _OP_NEEDS.get(event.op)
        if needs is not None and net_mask(doc, "taint") & needs:
            triggered = True
        else:
            return ALLOW, False

    allow_cats = net_mask(doc, "allow")
    deny_cats = net_mask(doc, "deny")
    if event.op == SocketOpKind.CREATE:
        if deny_cats == ALL_NET:
            return DENY, triggered
        if allow_cats:
            return ALLOW, triggered
    else:
        needs = _OP_NEEDS[event.op]
        if deny_cats & needs:
            return DENY, triggered
        if allow_cats & needs:
            return ALLOW, triggered
    return (ALLOW if default_allow else DENY), triggered


def _oracle_ipc(event, cont, doc, world):
    peer = world.by_pid.get(event.peer_pid)
    if peer is cont:
        return ALLOW, False

    triggered = False
    if not cont.tainted:
        if peer is not None and has_ipc_rule(doc, "taint", peer.doc.name):
            triggered = True
        else:
            return ALLOW, False

    if peer is None:
        return DENY, triggered
    if has_ipc_rule(doc, "deny", peer.doc.name) or has_ipc_rule(peer.doc, "deny", doc.name):
        return DENY, triggered
    if not has_ipc_rule(doc, "allow", peer.doc.name):
        return DENY, triggered
    if not has_ipc_rule(peer.doc, "allow", doc.name):
        return DENY, triggered
    if cont.ipc_ns != peer.ipc_ns:
        return DENY, triggered
    return ALLOW, triggered


def _oracle_capability(event, cont, doc):
    cap = event.capability
    triggered = False
    if not cont.tainted:
        if has_cap_rule(doc, "taint", cap):
            triggered = True
        else:
            return ALLOW, False
    if has_cap_rule(doc, "deny", cap):
        return DENY, triggered
    if has_cap_rule(doc, "allow", cap):
        return (ALLOW if event.possessed else DENY), triggered
    return DENY, triggered
