"""Shared test corpus: fixed rule vocabulary, event vocabulary, and world
builders used by the oracle-equivalence, parity, and property tests, and
the one loader of the benchmark's workload generators.

The vocabulary is deliberately small and overlapping: paths that hit file,
subdir, filesystem, and device tiers at once; both boundary depths of the
subdir nesting limit; own/foreign procfs; owned/foreign overlayfs.

The replay workload is perfbench's ``steady_mix``, not a copy of it: the
tests load ``perfbench/workloads.py`` through ``workloads`` here, so
criterion 8's trace and the benchmark's are made by the same code.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

from bpfcontain.compiler import compile_policies
from bpfcontain.events import (
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
from bpfcontain.policy import (
    AccessFlags,
    DefaultMode,
    DeviceKind,
    NetCategory,
    PolicyDocument,
    Rule,
    parse_access,
    parse_policy,
)
from bpfcontain.state import ContainerState
from bpfcontain.trace import parse_trace

from oracle import OracleWorld

R = AccessFlags.READ
W = AccessFlags.WRITE
A = AccessFlags.APPEND
X = AccessFlags.EXECUTE

SUBJECT = "probe"
SUBJECT_PID = 10
SIBLING_PID = 11
PEER_A_PID = 20
PEER_B_PID = 30
UNCONFINED_PID = 99
SUBJECT_MOUNT_NS = 100
SHARED_IPC_NS = 200

# 23 rule atoms: 10 paths (5 file / 3 subdir / 2 filesystem), 4 device
# kinds, 4 network categories, 3 capabilities, 2 ipc peers.
RULE_ATOMS = (
    Rule("file", "/etc/app.conf", R),
    Rule("file", "/var/log/app.log", R | A),
    Rule("file", "/data/tree/leaf.txt", R | W),
    Rule("file", "/dev/null", W),
    Rule("file", "/proc/1/status", R),
    Rule("subdir", "/data/tree", R | W),
    Rule("subdir", "/srv", R),
    Rule("subdir", "/home/user", W | A),
    Rule("filesystem", "/", R),
    Rule("filesystem", "/var", R | W),
    Rule("device", DeviceKind.TTY, R | W),
    Rule("device", DeviceKind.RANDOM, R),
    Rule("device", DeviceKind.NULL, W),
    Rule("device", DeviceKind.ZERO, R),
    Rule("network", None, NetCategory.CLIENT),
    Rule("network", None, NetCategory.SERVER),
    Rule("network", None, NetCategory.SEND),
    Rule("network", None, NetCategory.RECEIVE),
    Rule("capability", "CAP_NET_BIND_SERVICE", 1),
    Rule("capability", "CAP_SYS_ADMIN", 1),
    Rule("capability", "CAP_KILL", 1),
    Rule("ipc", "peer_a", 1),
    Rule("ipc", "peer_b", 1),
)

PEER_A_DOC = PolicyDocument(name="peer_a", entry="/usr/bin/peer_a",
                            allow=[Rule("ipc", SUBJECT, 1)])
PEER_B_DOC = PolicyDocument(name="peer_b", entry="/usr/bin/peer_b")

_DEPTH8 = "/data/tree/" + "/".join(f"a{i}" for i in range(1, 9)) + "/deep.txt"
_DEPTH9 = "/data/tree/" + "/".join(f"a{i}" for i in range(1, 10)) + "/deep.txt"


def _fa(path, flags, **kw):
    return FileAccess(SUBJECT_PID, path, parse_access(flags), **kw)


EVENTS = (
    # regular files across all four tiers and both subdir depth boundaries
    _fa("/etc/app.conf", "r"),
    _fa("/etc/app.conf", "w"),
    _fa("/var/log/app.log", "ra"),
    _fa("/var/log/app.log", "w"),
    _fa("/data/tree/leaf.txt", "rw"),
    _fa("/data/tree/sub/deep.txt", "w"),
    _fa(_DEPTH8, "r"),
    _fa(_DEPTH9, "r"),
    _fa("/srv/www/index.html", "r"),
    _fa("/home/user/doc.txt", "a"),
    _fa("/var/cache/blob", "w"),
    _fa("/opt/other", "r"),
    _fa("/dev/null", "w"),
    _fa("/dev/tty", "rw"),
    _fa("/dev/tty", "r"),
    _fa("/dev/urandom", "r"),
    _fa("/dev/zero", "r"),
    # procfs/sysfs: own entry, foreign rescuable, foreign bare
    _fa("/proc/10/status", "r", fs_kind=FsKind.PROCFS, proc_subject_pid=SUBJECT_PID),
    _fa("/proc/1/status", "r", fs_kind=FsKind.PROCFS, proc_subject_pid=1),
    _fa("/proc/1/status", "w", fs_kind=FsKind.PROCFS, proc_subject_pid=1),
    _fa("/proc/meminfo", "r", fs_kind=FsKind.PROCFS),
    _fa("/sys/devices/cpu", "r", fs_kind=FsKind.SYSFS),
    # overlayfs owned / foreign
    _fa("/merged/file", "rw", fs_kind=FsKind.OVERLAYFS, owner_mount_ns=SUBJECT_MOUNT_NS),
    _fa("/merged/file", "rw", fs_kind=FsKind.OVERLAYFS, owner_mount_ns=999),
    # bpffs: write is hardening, read falls through to explicit policy
    _fa("/sys/fs/bpf/map", "w", fs_kind=FsKind.BPFFS),
    _fa("/sys/fs/bpf/map", "r", fs_kind=FsKind.BPFFS),
    # sockets
    *(SocketOp(SUBJECT_PID, SocketFamily.IPV4, op) for op in SocketOpKind),
    SocketOp(SUBJECT_PID, SocketFamily.IPV6, SocketOpKind.CONNECT),
    SocketOp(SUBJECT_PID, SocketFamily.UNIX, SocketOpKind.CREATE),
    SocketOp(SUBJECT_PID, SocketFamily.OTHER, SocketOpKind.CREATE),
    # ipc: mutual-capable peer, non-allowlisting peer, sibling, unconfined
    IpcOp(SUBJECT_PID, PEER_A_PID, IpcMechanism.SIGNAL),
    IpcOp(SUBJECT_PID, PEER_B_PID, IpcMechanism.SHMEM),
    IpcOp(SUBJECT_PID, SIBLING_PID, IpcMechanism.UNIX_SOCKET),
    IpcOp(SUBJECT_PID, UNCONFINED_PID, IpcMechanism.SYSV),
    # capabilities
    CapabilityUse(SUBJECT_PID, "CAP_NET_BIND_SERVICE", True),
    CapabilityUse(SUBJECT_PID, "CAP_NET_BIND_SERVICE", False),
    CapabilityUse(SUBJECT_PID, "CAP_SYS_ADMIN", True),
    CapabilityUse(SUBJECT_PID, "CAP_SYS_ADMIN", False),
    CapabilityUse(SUBJECT_PID, "CAP_KILL", True),
    # credential changes
    CommitCreds(SUBJECT_PID, PrivLevel(1000), PrivLevel(0)),
    CommitCreds(SUBJECT_PID, PrivLevel(1000), PrivLevel(1000)),
    CommitCreds(SUBJECT_PID, PrivLevel(0, frozenset()),
                PrivLevel(0, frozenset({"CAP_KILL"}))),
    # namespace escape and the implicit hardening hooks
    SwitchNamespaces(SUBJECT_PID),
    *(HardeningOp(SUBJECT_PID, op) for op in HardeningKind),
)

# events whose outcome cannot depend on taint state (hardening class)
TAINT_INVARIANT = tuple(
    ev for ev in EVENTS
    if isinstance(ev, (CommitCreds, SwitchNamespaces, HardeningOp))
    or (isinstance(ev, FileAccess) and ev.fs_kind == FsKind.BPFFS
        and ev.requested & (W | A))
)


def make_policy(rules_with_lists, default=DefaultMode.DENY,
                name=SUBJECT) -> PolicyDocument:
    """Build a document from (rule, listname) pairs."""
    doc = PolicyDocument(name=name, entry="/usr/bin/probe", default=default)
    for rule, which in rules_with_lists:
        getattr(doc, which).append(rule)
    return doc


def enumerate_policies(max_rules=3):
    """Every rule set of size <= max_rules x allow/deny/taint assignments.

    Both default modes are enumerated for sets of up to two rules; the
    three-rule sets (which dominate the count) run under default-deny,
    where the default stage is actually reachable and load-bearing.
    """
    lists = ("allow", "deny", "taint")
    for k in range(max_rules + 1):
        modes = (DefaultMode.DENY, DefaultMode.ALLOW) if k <= 2 else (DefaultMode.DENY,)
        for combo in itertools.combinations(RULE_ATOMS, k):
            for assignment in itertools.product(lists, repeat=k):
                pairs = tuple(zip(combo, assignment))
                for mode in modes:
                    yield make_policy(pairs, default=mode)


def build_world(doc: PolicyDocument):
    """Compile doc (+ the two fixed peers) and confine the standard pids.

    Returns (store, state, container, oracle_world, oracle_container).
    """
    store = compile_policies([doc, PEER_A_DOC, PEER_B_DOC])
    state = ContainerState(store)
    container = state.confine(SUBJECT_PID, doc.name,
                              mount_ns=SUBJECT_MOUNT_NS, ipc_ns=SHARED_IPC_NS)
    state.on_fork(SUBJECT_PID, SIBLING_PID)
    state.confine(PEER_A_PID, "peer_a", mount_ns=300, ipc_ns=SHARED_IPC_NS)
    state.confine(PEER_B_PID, "peer_b", mount_ns=400, ipc_ns=SHARED_IPC_NS)

    world = OracleWorld()
    cont = world.confine(SUBJECT_PID, doc,
                         mount_ns=SUBJECT_MOUNT_NS, ipc_ns=SHARED_IPC_NS)
    world.join(SIBLING_PID, cont)
    world.confine(PEER_A_PID, PEER_A_DOC, mount_ns=300, ipc_ns=SHARED_IPC_NS)
    world.confine(PEER_B_PID, PEER_B_DOC, mount_ns=400, ipc_ns=SHARED_IPC_NS)
    return store, state, container, world, cont


def random_policy(rng: random.Random, name=SUBJECT, max_rules=6,
                  force_taint=None) -> PolicyDocument:
    """A random document over the atom vocabulary (for property tests)."""
    k = rng.randint(0, max_rules)
    pairs = [(rng.choice(RULE_ATOMS), rng.choice(("allow", "deny", "taint")))
             for _ in range(k)]
    if force_taint is True and not any(which == "taint" for _, which in pairs):
        pairs.append((rng.choice(RULE_ATOMS), "taint"))
    if force_taint is False:
        pairs = [(rule, which if which != "taint" else "allow")
                 for rule, which in pairs]
    mode = DefaultMode.ALLOW if rng.random() < 0.3 else DefaultMode.DENY
    return make_policy(pairs, default=mode, name=name)


def random_event(rng: random.Random):
    return rng.choice(EVENTS)


# --- the steady_mix workload (criterion 8 and perfbench) -------------------

def load_perfbench(name: str):
    """``perfbench/<name>.py`` loaded read-only: ``perfbench`` is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# the one generator of the benchmark's workloads
workloads = load_perfbench("workloads")
# perfbench/test_perfbench.py imports this name
WORKLOAD_POLICIES = workloads.STEADY_POLICIES


def synthetic_workload(n_events: int, seed: int = workloads.DEFAULT_SEED):
    """steady_mix as a (store, events) pair: its 10 policies compiled and its
    trace parsed, the bytes ``bpfcontain run`` reads in the benchmark."""
    workload = workloads.steady_mix(seed, n_events)
    store = compile_policies([parse_policy(text) for _, text in workload.policies])
    return store, parse_trace(workload.trace_lines())
