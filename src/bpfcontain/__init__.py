"""Container-confinement policy engine, driven by replayed event traces.

Parse YAML confinement policies, compile them into sealed fixed-capacity
decision maps, track container lifecycles, and judge kernel-hook events
through a reference-monitor pipeline — all against traces instead of a
live kernel, so every policy semantic is testable anywhere.
"""

from .compiler import (
    CompiledPolicyStore,
    MapCapacities,
    compile_policies,
)
from .engine import Decision, Verdict, decide
from .errors import BpfcontainError
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
from .policy import (
    AccessFlags,
    DeviceKind,
    NetCategory,
    PolicyDocument,
    load_policy_dir,
    parse_access,
    parse_policy,
    validate_policy_set,
)
from .state import Container, ContainerState
from .trace import (
    AuditLog,
    AuditRecord,
    Confine,
    Exit,
    Fork,
    TraceEvent,
    parse_trace,
    replay,
    write_trace,
)

__version__ = "0.1.0"

# The decision kernel (``bpfcontain.core``) is pure Python.
BACKEND = "python"

__all__ = [
    "AccessFlags",
    "AuditLog",
    "AuditRecord",
    "BACKEND",
    "BpfcontainError",
    "CapabilityUse",
    "CommitCreds",
    "CompiledPolicyStore",
    "Confine",
    "Container",
    "ContainerState",
    "Decision",
    "DeviceKind",
    "Exit",
    "FileAccess",
    "Fork",
    "FsKind",
    "HardeningKind",
    "HardeningOp",
    "IpcMechanism",
    "IpcOp",
    "MapCapacities",
    "NetCategory",
    "PolicyDocument",
    "PrivLevel",
    "SocketFamily",
    "SocketOp",
    "SocketOpKind",
    "SwitchNamespaces",
    "TraceEvent",
    "Verdict",
    "compile_policies",
    "decide",
    "load_policy_dir",
    "parse_access",
    "parse_policy",
    "parse_trace",
    "replay",
    "validate_policy_set",
    "write_trace",
]
