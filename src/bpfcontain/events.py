"""Mediated kernel events, one class per hook family.

These are the inputs to the decision pipeline; lifecycle records (confine,
fork, exit) live in the trace layer and mutate container state instead.
Both are ``policy.Value`` records: their ``__slots__`` are their fields and
their wire schema, in order, and an ``__init__`` sets those slots and nothing
else, so they are cheap to build.  An event is equal only to an event of the
same type with the same fields, mutable and unhashable.
"""

from __future__ import annotations

from enum import IntEnum

from .policy import ACCESS_STRINGS, Value


class FsKind(IntEnum):
    REGULAR = 0
    PROCFS = 1
    SYSFS = 2
    OVERLAYFS = 3
    BPFFS = 4


class SocketFamily(IntEnum):
    IPV4 = 0
    IPV6 = 1
    UNIX = 2
    OTHER = 3


class SocketOpKind(IntEnum):
    CREATE = 0
    BIND = 1
    LISTEN = 2
    ACCEPT = 3
    CONNECT = 4
    SEND = 5
    RECEIVE = 6
    SHUTDOWN = 7


class IpcMechanism(IntEnum):
    UNIX_SOCKET = 0
    SIGNAL = 1
    SYSV = 2
    SHMEM = 3


class HardeningKind(IntEnum):
    BPF_SYSCALL = 0
    KEYRING = 1
    PTRACE = 2
    MOUNT = 3
    LOCKDOWN = 4
    UNLINK_PINNED_OBJECT = 5


class FileAccess(Value):
    """One file access; ``requested`` is a mask of ``AccessFlags`` bits.

    The trace parser gives it as a plain int; an ``AccessFlags`` member
    judges and renders the same.
    """

    __slots__ = ("pid", "path", "requested", "fs_kind", "owner_mount_ns", "proc_subject_pid")

    def __init__(self, pid: int, path: str, requested: int, fs_kind: FsKind = FsKind.REGULAR,
                 owner_mount_ns: int | None = None, proc_subject_pid: int | None = None):
        self.pid = pid
        self.path = path
        self.requested = requested
        self.fs_kind = fs_kind
        self.owner_mount_ns = owner_mount_ns
        self.proc_subject_pid = proc_subject_pid

    def summary(self) -> str:
        return f"FileAccess {self.path} {ACCESS_STRINGS[self.requested & 15]}"


class SocketOp(Value):
    __slots__ = ("pid", "family", "op")

    def __init__(self, pid: int, family: SocketFamily, op: SocketOpKind):
        self.pid = pid
        self.family = family
        self.op = op

    def summary(self) -> str:
        return f"SocketOp {_FAMILY_NAMES[self.family]} {_SOCKOP_NAMES[self.op]}"


class IpcOp(Value):
    __slots__ = ("pid", "peer_pid", "mechanism")

    def __init__(self, pid: int, peer_pid: int, mechanism: IpcMechanism):
        self.pid = pid
        self.peer_pid = peer_pid
        self.mechanism = mechanism

    def summary(self) -> str:
        return f"IpcOp peer={self.peer_pid} {_IPC_NAMES[self.mechanism]}"


class CapabilityUse(Value):
    __slots__ = ("pid", "capability", "possessed")

    def __init__(self, pid: int, capability: str, possessed: bool):
        self.pid = pid
        self.capability = capability
        self.possessed = possessed

    def summary(self) -> str:
        state = "possessed" if self.possessed else "not possessed"
        return f"CapabilityUse {self.capability} ({state})"


class PrivLevel(Value):
    __slots__ = ("uid", "capability_set")

    def __init__(self, uid: int, capability_set: frozenset[str] = frozenset()):
        self.uid = uid
        self.capability_set = capability_set


class CommitCreds(Value):
    __slots__ = ("pid", "old_priv", "new_priv")

    def __init__(self, pid: int, old_priv: PrivLevel, new_priv: PrivLevel):
        self.pid = pid
        self.old_priv = old_priv
        self.new_priv = new_priv

    def summary(self) -> str:
        return f"CommitCreds uid {self.old_priv.uid}->{self.new_priv.uid}"


class SwitchNamespaces(Value):
    __slots__ = ("pid",)

    def __init__(self, pid: int):
        self.pid = pid

    def summary(self) -> str:
        return "SwitchNamespaces"


class HardeningOp(Value):
    __slots__ = ("pid", "op")

    def __init__(self, pid: int, op: HardeningKind):
        self.pid = pid
        self.op = op

    def summary(self) -> str:
        return f"HardeningOp {_HARDENING_NAMES[self.op]}"


# mediated kinds, most frequent first: replay tests an event against them in order
HookEvent = (
    FileAccess | SocketOp | IpcOp | CapabilityUse
    | HardeningOp | CommitCreds | SwitchNamespaces
)

# Wire-format spellings (trace files and audit summaries); the trace parser
# inverts these tables, so each spelling is written once.
_FAMILY_NAMES = {
    SocketFamily.IPV4: "Ipv4",
    SocketFamily.IPV6: "Ipv6",
    SocketFamily.UNIX: "Unix",
    SocketFamily.OTHER: "Other",
}
_SOCKOP_NAMES = {o: o.name.capitalize() for o in SocketOpKind}
_IPC_NAMES = {
    IpcMechanism.UNIX_SOCKET: "UnixSocket",
    IpcMechanism.SIGNAL: "Signal",
    IpcMechanism.SYSV: "SysV",
    IpcMechanism.SHMEM: "ShMem",
}
_FSKIND_NAMES = {k: k.name.capitalize() for k in FsKind}
_HARDENING_NAMES = {
    HardeningKind.BPF_SYSCALL: "BpfSyscall",
    HardeningKind.KEYRING: "Keyring",
    HardeningKind.PTRACE: "Ptrace",
    HardeningKind.MOUNT: "Mount",
    HardeningKind.LOCKDOWN: "Lockdown",
    HardeningKind.UNLINK_PINNED_OBJECT: "UnlinkPinnedObject",
}
# enum type -> its table above
_WIRE_NAMES = {FsKind: _FSKIND_NAMES, SocketFamily: _FAMILY_NAMES, SocketOpKind: _SOCKOP_NAMES,
               IpcMechanism: _IPC_NAMES, HardeningKind: _HARDENING_NAMES}

# Short spellings used in hardening denial reasons ("implicit hardening (bpf)").
HARDENING_SHORT = {
    HardeningKind.BPF_SYSCALL: "bpf",
    HardeningKind.KEYRING: "keyring",
    HardeningKind.PTRACE: "ptrace",
    HardeningKind.MOUNT: "mount",
    HardeningKind.LOCKDOWN: "lockdown",
    HardeningKind.UNLINK_PINNED_OBJECT: "unlink pinned object",
}
