"""Shared test corpus: fixed rule vocabulary, event vocabulary, and world
builders used by the oracle-equivalence, parity, and property tests.

The vocabulary is deliberately small and overlapping: paths that hit file,
subdir, filesystem, and device tiers at once; both boundary depths of the
subdir nesting limit; own/foreign procfs; owned/foreign overlayfs.
"""

from __future__ import annotations

import itertools
import random

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
    CapabilityRule,
    DefaultMode,
    DeviceKind,
    DeviceRule,
    FileRule,
    FilesystemRule,
    IpcRule,
    NetworkRule,
    NetCategory,
    PolicyDocument,
    SubdirRule,
    parse_access,
)
from bpfcontain.state import ContainerState

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
    FileRule("/etc/app.conf", R),
    FileRule("/var/log/app.log", R | A),
    FileRule("/data/tree/leaf.txt", R | W),
    FileRule("/dev/null", W),
    FileRule("/proc/1/status", R),
    SubdirRule("/data/tree", R | W),
    SubdirRule("/srv", R),
    SubdirRule("/home/user", W | A),
    FilesystemRule("/", R),
    FilesystemRule("/var", R | W),
    DeviceRule(DeviceKind.TTY, R | W),
    DeviceRule(DeviceKind.RANDOM, R),
    DeviceRule(DeviceKind.NULL, W),
    DeviceRule(DeviceKind.ZERO, R),
    NetworkRule(NetCategory.CLIENT),
    NetworkRule(NetCategory.SERVER),
    NetworkRule(NetCategory.SEND),
    NetworkRule(NetCategory.RECEIVE),
    CapabilityRule("CAP_NET_BIND_SERVICE"),
    CapabilityRule("CAP_SYS_ADMIN"),
    CapabilityRule("CAP_KILL"),
    IpcRule("peer_a"),
    IpcRule("peer_b"),
)

PEER_A_DOC = PolicyDocument(name="peer_a", entry="/usr/bin/peer_a",
                            allow=[IpcRule(SUBJECT)])
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


# --- synthetic replay workload (perf criterion and perfbench steady_mix) ------

WORKLOAD_POLICIES = """\
name: web
entry: /usr/bin/httpd
allow:
  - network: client server send receive
  - subdir: /srv/www r
  - file: /var/log/web.log ra
  - tty: rw
---
name: db
entry: /usr/bin/mysqld
allow:
  - subdir: /var/lib/db rw
  - network: server send receive
  - ipc: web
taint:
  - network: server
---
name: worker
entry: /usr/bin/worker
allow:
  - subdir: /data rw
  - device: random r
  - capability: CAP_KILL
deny:
  - file: /data/secrets r
---
name: logger
entry: /usr/bin/logger
allow:
  - file: /var/log/app.log ra
  - filesystem: /tmp rw
---
name: sandboxed
entry: /usr/bin/untrusted
---
name: desktop
entry: /usr/bin/app
default: allow
deny:
  - subdir: /home/user/secrets rw
  - network: server
---
name: backup
entry: /usr/bin/backup
allow:
  - filesystem: / r
  - file: /backup/out.tar rwa
taint:
  - file: /backup/out.tar w
---
name: monitor
entry: /usr/bin/monitor
allow:
  - subdir: /proc r
  - device: zero r
---
name: chat
entry: /usr/bin/chat
allow:
  - network: client send receive
  - ipc: web
  - tty: rw
---
name: builder
entry: /usr/bin/make
allow:
  - subdir: /build rw
  - subdir: /usr/include r
  - device: null w
"""


def workload_policies():
    from bpfcontain.policy import parse_policy
    return [parse_policy(text) for text in WORKLOAD_POLICIES.split("---\n")]


def synthetic_workload(n_events: int, seed: int = 0x5EED):
    """A deterministic (store, trace) pair: 10 policies, file-heavy events."""
    from bpfcontain.trace import Confine, Exit, Fork, TraceEvent

    docs = workload_policies()
    names = [d.name for d in docs]
    store = compile_policies(docs)
    rng = random.Random(seed)

    paths = (
        ["/srv/www/index.html", "/srv/www/a/b/c.css", "/var/log/web.log",
         "/var/lib/db/table", "/data/in/file", "/data/secrets",
         "/var/log/app.log", "/tmp/scratch", "/home/user/secrets/key",
         "/backup/out.tar", "/build/obj/main.o", "/usr/include/stdio.h",
         "/etc/passwd", "/usr/lib/libc.so.6", "/opt/tool/bin"]
        + [f"/data/tree/{i}/{j}/leaf" for i in range(4) for j in range(4)]
        + ["/dev/tty", "/dev/pts/0", "/dev/urandom", "/dev/null", "/dev/zero"]
    )
    flags = ["r", "w", "ra", "rw", "rx"]

    events = []
    pids = []
    next_pid = 1
    seq = 0

    def emit(ev):
        nonlocal seq
        seq += 1
        events.append(TraceEvent(seq, ev))

    for name in names * 3:  # 30 containers up front
        emit(Confine(next_pid, name,
                     mount_ns=rng.randint(1, 5), ipc_ns=rng.randint(1, 3)))
        pids.append(next_pid)
        next_pid += 1

    while len(events) < n_events:
        pid = rng.choice(pids)
        roll = rng.random()
        if roll < 0.70:
            kind = rng.random()
            if kind < 0.85:
                emit(FileAccess(pid, rng.choice(paths), parse_access(rng.choice(flags))))
            elif kind < 0.92:
                emit(FileAccess(pid, f"/proc/{rng.choice(pids)}/status",
                                parse_access("r"), fs_kind=FsKind.PROCFS,
                                proc_subject_pid=rng.choice(pids)))
            else:
                emit(FileAccess(pid, "/merged/layer/file", parse_access("rw"),
                                fs_kind=FsKind.OVERLAYFS,
                                owner_mount_ns=rng.randint(1, 5)))
        elif roll < 0.85:
            emit(SocketOp(pid, rng.choice((SocketFamily.IPV4, SocketFamily.IPV6)),
                          rng.choice(tuple(SocketOpKind))))
        elif roll < 0.90:
            emit(CapabilityUse(pid, rng.choice(("CAP_KILL", "CAP_SYS_ADMIN")),
                               rng.random() < 0.8))
        elif roll < 0.94:
            emit(IpcOp(pid, rng.choice(pids), rng.choice(tuple(IpcMechanism))))
        elif roll < 0.97 and len(pids) < 500:
            emit(Fork(pid, next_pid))
            pids.append(next_pid)
            next_pid += 1
        elif roll < 0.99:
            emit(HardeningOp(pid, rng.choice(tuple(HardeningKind))))
        elif len(pids) > 40:
            gone = pids.pop(rng.randrange(len(pids)))
            emit(Exit(gone))
        else:
            emit(SwitchNamespaces(pid))

    return store, events[:n_events]
