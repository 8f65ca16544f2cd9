"""Mediated kernel events, one dataclass per hook family.

These are the inputs to the decision pipeline; lifecycle records (confine,
fork, exit) live in the trace layer and mutate container state instead.
Both are slotted dataclasses, cheap to build: equal only to an event of the
same type with the same fields, mutable and unhashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .policy import ACCESS_STRINGS


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


@dataclass(slots=True)
class FileAccess:
    """One file access; ``requested`` is a mask of ``AccessFlags`` bits.

    The trace parser gives it as a plain int; an ``AccessFlags`` member
    judges and renders the same.
    """

    pid: int
    path: str
    requested: int
    fs_kind: FsKind = FsKind.REGULAR
    owner_mount_ns: int | None = None
    proc_subject_pid: int | None = None

    def summary(self) -> str:
        return f"FileAccess {self.path} {ACCESS_STRINGS[self.requested & 15]}"


@dataclass(slots=True)
class SocketOp:
    pid: int
    family: SocketFamily
    op: SocketOpKind

    def summary(self) -> str:
        return f"SocketOp {_FAMILY_NAMES[self.family]} {_SOCKOP_NAMES[self.op]}"


@dataclass(slots=True)
class IpcOp:
    pid: int
    peer_pid: int
    mechanism: IpcMechanism

    def summary(self) -> str:
        return f"IpcOp peer={self.peer_pid} {_IPC_NAMES[self.mechanism]}"


@dataclass(slots=True)
class CapabilityUse:
    pid: int
    capability: str
    possessed: bool

    def summary(self) -> str:
        state = "possessed" if self.possessed else "not possessed"
        return f"CapabilityUse {self.capability} ({state})"


@dataclass(slots=True)
class PrivLevel:
    uid: int
    capability_set: frozenset[str] = frozenset()


@dataclass(slots=True)
class CommitCreds:
    pid: int
    old_priv: PrivLevel
    new_priv: PrivLevel

    @property
    def escalates(self) -> bool:
        """uid transition to root, or any capability the old set lacked."""
        if self.new_priv.uid == 0 and self.old_priv.uid != 0:
            return True
        return not self.new_priv.capability_set <= self.old_priv.capability_set

    def summary(self) -> str:
        return f"CommitCreds uid {self.old_priv.uid}->{self.new_priv.uid}"


@dataclass(slots=True)
class SwitchNamespaces:
    pid: int

    def summary(self) -> str:
        return "SwitchNamespaces"


@dataclass(slots=True)
class HardeningOp:
    pid: int
    op: HardeningKind

    def summary(self) -> str:
        return f"HardeningOp {_HARDENING_NAMES[self.op]}"


HookEvent = (
    FileAccess | SocketOp | IpcOp | CapabilityUse
    | CommitCreds | SwitchNamespaces | HardeningOp
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

# Short spellings used in hardening denial reasons ("implicit hardening (bpf)").
HARDENING_SHORT = {
    HardeningKind.BPF_SYSCALL: "bpf",
    HardeningKind.KEYRING: "keyring",
    HardeningKind.PTRACE: "ptrace",
    HardeningKind.MOUNT: "mount",
    HardeningKind.LOCKDOWN: "lockdown",
    HardeningKind.UNLINK_PINNED_OBJECT: "unlink pinned object",
}
