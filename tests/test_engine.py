"""Decision pipeline semantics, one spec example at a time."""

import itertools
from pathlib import Path

import pytest

from bpfcontain.compiler import compile_policies
from bpfcontain.engine import Verdict, decide
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
from bpfcontain.policy import AccessFlags, parse_access, parse_policy
from bpfcontain.state import ContainerState

from corpus import EVENTS, build_world, enumerate_policies


def _world(*texts, capacities=None):
    docs = [parse_policy(t) for t in texts]
    store = compile_policies(docs, capacities)
    return store, ContainerState(store)


def _one_container(text, pid=100, **confine_kw):
    store, state = _world(text)
    doc_name = parse_policy(text).name
    container = state.confine(pid, doc_name, **confine_kw)
    return store, state, container


MINIMAL = "name: hello_minimal\nentry: /usr/bin/hello.static\nallow:\n  - tty: rw\n"
TAINT = (
    "name: hello_taint\nentry: /usr/bin/hello.dynamic\n"
    "allow:\n  - tty: rw\ntaint:\n  - tty: r\n"
)


def test_tty_write_allowed_by_device_rule():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/dev/tty", parse_access("w")), state)
    assert d.verdict is Verdict.ALLOW
    assert d.explain() == "Allow: device rule tty rw"


def test_pts_paths_count_as_tty():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/dev/pts/3", parse_access("rw")), state)
    assert d.verdict is Verdict.ALLOW


def test_unmatched_access_denied_under_default_deny():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/etc/passwd", parse_access("r")), state)
    assert d.verdict is Verdict.DENY
    assert d.stage == "default-mode"


def test_untainted_container_is_exempt():
    store, state, _ = _one_container(TAINT)
    # e.g. mapping a shared library during setup
    d = decide(FileAccess(100, "/usr/lib/libc.so.6", parse_access("rx")), state)
    assert d.verdict is Verdict.ALLOW
    assert d.stage == "untainted-exemption"


def test_taint_trigger_judged_under_tainted_regime():
    store, state, container = _one_container(TAINT)
    d = decide(FileAccess(100, "/dev/tty", parse_access("r")), state)
    assert d.verdict is Verdict.ALLOW
    assert d.taint_transition
    assert container.tainted
    assert d.explain() == "Allow: tainted by rule tty r, then device rule tty rw"
    # enforcement has begun: unmatched access now denied
    d2 = decide(FileAccess(100, "/etc/shadow", parse_access("r")), state)
    assert d2.verdict is Verdict.DENY


def test_capability_mask_binds_default_allow_policies():
    text = "name: p\nentry: /bin/p\ndefault: allow\n"
    store, state, _ = _one_container(text)
    d = decide(CapabilityUse(100, "CAP_SYS_ADMIN", True), state)
    assert d.verdict is Verdict.DENY
    assert d.explain() == "Deny: capability mask, no rule for CAP_SYS_ADMIN"


def test_capability_rule_requires_possession():
    text = "name: p\nentry: /bin/p\nallow:\n  - capability: CAP_SYS_ADMIN\n"
    store, state, _ = _one_container(text)
    assert decide(CapabilityUse(100, "CAP_SYS_ADMIN", True), state).verdict is Verdict.ALLOW
    d = decide(CapabilityUse(100, "CAP_SYS_ADMIN", False), state)
    assert d.verdict is Verdict.DENY
    assert "not possessed" in d.reason


def test_commit_creds_escalation_kills():
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(1000), PrivLevel(0)), state)
    assert d.verdict is Verdict.KILL
    assert d.stage == "hardening"


def test_commit_creds_capability_gain_kills():
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(0, frozenset()),
                           PrivLevel(0, frozenset({"CAP_SYS_ADMIN"}))), state)
    assert d.verdict is Verdict.KILL


def test_commit_creds_capability_swap_kills():
    # same uid, and the new set is no superset of the old, but CAP_SYS_ADMIN is gained
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(1000, frozenset({"CAP_KILL"})),
                           PrivLevel(1000, frozenset({"CAP_SYS_ADMIN"}))), state)
    assert d.verdict is Verdict.KILL
    assert d.explain() == "Kill: privilege escalation in commit_creds (capability gain)"


def test_commit_creds_without_escalation_passes():
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(1000), PrivLevel(1000)), state)
    assert d.verdict is Verdict.ALLOW
    # dropping back to the same capability set is not a gain
    d = decide(CommitCreds(100, PrivLevel(0, frozenset({"CAP_KILL"})),
                           PrivLevel(0, frozenset({"CAP_KILL"}))), state)
    assert d.verdict is Verdict.ALLOW
    # nor is dropping a capability
    d = decide(CommitCreds(100, PrivLevel(1000, frozenset({"CAP_KILL", "CAP_CHOWN"})),
                           PrivLevel(1000, frozenset({"CAP_KILL"}))), state)
    assert d.verdict is Verdict.ALLOW


def test_hardening_ops_denied_even_untainted():
    store, state, container = _one_container(TAINT)
    assert not container.tainted
    for op in HardeningKind:
        d = decide(HardeningOp(100, op), state)
        assert d.verdict is Verdict.DENY, op
        assert d.stage == "hardening"
    assert decide(SwitchNamespaces(100), state).verdict is Verdict.DENY
    assert not container.tainted  # hardening never taints


def test_bpf_denial_message():
    store, state, _ = _one_container(MINIMAL)
    d = decide(HardeningOp(100, HardeningKind.BPF_SYSCALL), state)
    assert d.explain() == "Deny: implicit hardening (bpf)"


def test_unconfined_pid_passthrough():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(999, "/etc/passwd", parse_access("r")), state)
    assert d.verdict is Verdict.UNCONFINED


def test_an_event_from_a_killed_pid_is_unconfined_and_named_so():
    store, state, _ = _one_container(MINIMAL)
    state.kill(100)
    d = decide(FileAccess(100, "/dev/tty", parse_access("r")), state)
    assert d.verdict is Verdict.UNCONFINED
    assert d.container_id is None and d.policy is None
    assert d.explain() == "Unconfined: warning: event from pid killed earlier in trace"
    # a pid never confined is only unconfined
    d = decide(FileAccess(999, "/dev/tty", parse_access("r")), state)
    assert d.explain() == "Unconfined: pid is not confined"


# --- implicit filesystem policy ------------------------------------------------

def test_own_procfs_entry_allowed():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/proc/100/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=100), state)
    assert d.verdict is Verdict.ALLOW
    assert d.reason == "implicit policy: own procfs entry"


def test_sibling_procfs_entry_counts_as_own():
    store, state, _ = _one_container(MINIMAL)
    state.on_fork(100, 101)
    d = decide(FileAccess(100, "/proc/101/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=101), state)
    assert d.verdict is Verdict.ALLOW


def test_foreign_procfs_denied_without_explicit_rule():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state)
    assert d.verdict is Verdict.DENY
    assert d.reason == "implicit policy: foreign procfs entry"


def test_foreign_procfs_denied_even_for_untainted_container():
    store, state, _ = _one_container(TAINT)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state)
    assert d.verdict is Verdict.DENY


def test_foreign_procfs_rescued_by_explicit_file_rule():
    text = MINIMAL + "  - file: /proc/1/status r\n"
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state)
    assert d.verdict is Verdict.ALLOW
    # but only for the access the rule grants
    d = decide(FileAccess(100, "/proc/1/status", parse_access("w"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state)
    assert d.verdict is Verdict.DENY


def test_filesystem_rule_does_not_rescue_foreign_procfs():
    text = MINIMAL + "  - filesystem: / rw\n"
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state)
    assert d.verdict is Verdict.DENY


def test_sysfs_gets_procfs_treatment():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/sys/kernel/something", parse_access("r"),
                          fs_kind=FsKind.SYSFS), state)
    assert d.verdict is Verdict.DENY
    assert d.reason == "implicit policy: foreign sysfs entry"


def test_owned_overlayfs_is_allowed_without_rules():
    store, state, _ = _one_container(MINIMAL, mount_ns=7)
    d = decide(FileAccess(100, "/merged/data", parse_access("rw"),
                          fs_kind=FsKind.OVERLAYFS, owner_mount_ns=7), state)
    assert d.verdict is Verdict.ALLOW
    assert "overlay" in d.reason


def test_foreign_overlayfs_follows_explicit_policy():
    store, state, _ = _one_container(MINIMAL, mount_ns=7)
    d = decide(FileAccess(100, "/merged/data", parse_access("rw"),
                          fs_kind=FsKind.OVERLAYFS, owner_mount_ns=8), state)
    assert d.verdict is Verdict.DENY


def test_overlay_allow_still_loses_to_deny_rules():
    text = MINIMAL + "deny:\n  - file: /merged/secret rw\n"
    store, state, _ = _one_container(text, mount_ns=7)
    d = decide(FileAccess(100, "/merged/secret", parse_access("r"),
                          fs_kind=FsKind.OVERLAYFS, owner_mount_ns=7), state)
    assert d.verdict is Verdict.DENY
    assert d.stage == "explicit-deny"


def test_bpffs_write_routes_to_hardening():
    store, state, container = _one_container(TAINT)
    d = decide(FileAccess(100, "/sys/fs/bpf/pinned", parse_access("w"),
                          fs_kind=FsKind.BPFFS), state)
    assert d.verdict is Verdict.DENY
    assert d.stage == "hardening"
    assert not container.tainted  # fires before taint evaluation


def test_bpffs_read_falls_through_to_policy():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/sys/fs/bpf/pinned", parse_access("r"),
                          fs_kind=FsKind.BPFFS), state)
    assert d.verdict is Verdict.DENY
    assert d.stage == "default-mode"


# --- explicit file matching ------------------------------------------------------

def test_requested_access_must_be_subset():
    text = "name: p\nentry: /bin/p\nallow:\n  - file: /var/log/mylog.log ra\n"
    store, state, _ = _one_container(text)
    assert decide(FileAccess(100, "/var/log/mylog.log", parse_access("ra")),
                  state).verdict is Verdict.ALLOW
    assert decide(FileAccess(100, "/var/log/mylog.log", parse_access("r")),
                  state).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, "/var/log/mylog.log", parse_access("w")), state)
    assert d.verdict is Verdict.DENY


def test_subdir_depth_bound():
    text = "name: p\nentry: /bin/p\nallow:\n  - subdir: /a r\n"
    store, state, _ = _one_container(text)
    ok = "/a/" + "/".join(f"d{i}" for i in range(1, 9)) + "/f"      # 8 nested dirs
    too_deep = "/a/" + "/".join(f"d{i}" for i in range(1, 10)) + "/f"  # 9 nested dirs
    assert decide(FileAccess(100, "/a/f", parse_access("r")), state).verdict is Verdict.ALLOW
    assert decide(FileAccess(100, ok, parse_access("r")), state).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, too_deep, parse_access("r")), state)
    assert d.verdict is Verdict.DENY


def test_subdir_rule_does_not_match_its_own_root():
    text = "name: p\nentry: /bin/p\nallow:\n  - subdir: /a r\n"
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/a", parse_access("r")), state)
    assert d.verdict is Verdict.DENY


def test_deny_precedence_across_tiers():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - filesystem: / rw\n"
        "deny:\n  - file: /etc/shadow r\n"
    )
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/etc/shadow", parse_access("r")), state)
    assert d.verdict is Verdict.DENY
    assert d.stage == "explicit-deny"
    assert decide(FileAccess(100, "/etc/passwd", parse_access("r")),
                  state).verdict is Verdict.ALLOW


def test_most_specific_tier_fixes_the_grant():
    # the exact file rule shadows the broader filesystem grant
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - file: /srv/data r\n  - filesystem: / rw\n"
    )
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/srv/data", parse_access("w")), state)
    assert d.verdict is Verdict.DENY
    assert decide(FileAccess(100, "/srv/other", parse_access("w")),
                  state).verdict is Verdict.ALLOW


def test_deepest_subdir_rule_wins_the_tier():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - subdir: /a rw\n  - subdir: /a/b r\n"
    )
    store, state, _ = _one_container(text)
    assert decide(FileAccess(100, "/a/x", parse_access("w")),
                  state).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, "/a/b/x", parse_access("w")), state)
    assert d.verdict is Verdict.DENY


def test_file_rule_outranks_device_rule():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - file: /dev/null r\n  - device: null w\n"
    )
    store, state, _ = _one_container(text)
    # file tier grants only r, so w is not covered despite the device rule
    d = decide(FileAccess(100, "/dev/null", parse_access("w")), state)
    assert d.verdict is Verdict.DENY


def test_longest_mountpoint_is_the_containing_filesystem():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - filesystem: / rw\n"
        "deny:\n  - filesystem: /var w\n"
    )
    store, state, _ = _one_container(text)
    assert decide(FileAccess(100, "/etc/x", parse_access("w")),
                  state).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, "/var/x", parse_access("w")), state)
    assert d.verdict is Verdict.DENY
    # the / rule does not reach into the /var filesystem
    d = decide(FileAccess(100, "/var/x", parse_access("r")), state)
    assert d.verdict is Verdict.DENY
    assert d.stage == "default-mode"


NO_RULE = "Deny: no matching rule under default deny"
_MOUNTS = "fs: / r\n  - fs: /var rw\n  - fs: /var/lib w"
# the edges of the file kernel's walk down its prefix tree: allow rules, the
# path, the request, and the explanation of the decision
WALK_EDGES = {
    "root-path-under-subdir-root": ("subdir: / rw", "/", "r", NO_RULE),
    "root-path-under-fs-root": ("filesystem: / r", "/", "r", "Allow: filesystem rule / r"),
    "subdir-root": ("subdir: / r", "/etc/x", "r", "Allow: subdir rule / r"),
    "fs-root": ("filesystem: / r", "/etc/x/y", "r", "Allow: filesystem rule / r"),
    "subdir-key-is-the-path": ("subdir: /srv/data r", "/srv/data", "r", NO_RULE),
    "fs-key-is-the-path": ("fs: /srv/data r", "/srv/data", "r",
                           "Allow: filesystem rule /srv/data r"),
    "subdir-9-levels-up": ("subdir: /a r", "/a" + "/d" * 9, "r", "Allow: subdir rule /a r"),
    "subdir-10-levels-up": ("subdir: /a r", "/a" + "/d" * 10, "r", NO_RULE),
    "sibling-decoy": ("subdir: /srv/data r\n  - fs: /srv/data r", "/srv/data2", "r", NO_RULE),
    "under-a-sibling-decoy": ("subdir: /srv/data r\n  - fs: /srv/data r", "/srv/data2/x", "r",
                              NO_RULE),
    "deepest-mount": (_MOUNTS, "/var/lib/x", "w", "Allow: filesystem rule /var/lib w"),
    "deepest-mount-narrows": (_MOUNTS, "/var/lib/x", "r", NO_RULE),
    "middle-mount": (_MOUNTS, "/var/log/x", "w", "Allow: filesystem rule /var rw"),
    "off-the-tree": ("subdir: /a/b/c rw\n  - fs: /a/b/c rw", "/a/b/x", "r", NO_RULE),
    "off-the-tree-under-a-key": ("subdir: /a r\n  - subdir: /a/b/c rw", "/a/b/x", "r",
                                 "Allow: subdir rule /a r"),
}


@pytest.mark.parametrize("rules,path,request_,explained", WALK_EDGES.values(),
                         ids=WALK_EDGES.keys())
def test_the_walk_edges(rules, path, request_, explained):
    store, state, _ = _one_container(f"name: p\nentry: /bin/p\nallow:\n  - {rules}\n")
    assert decide(FileAccess(100, path, parse_access(request_)), state).explain() == explained


# --- network ---------------------------------------------------------------------

NET = "name: p\nentry: /bin/p\nallow:\n  - network: {cats}\n"


def _sock(store, state, family, op):
    return decide(SocketOp(100, family, op), state)


def test_client_grants_connect():
    store, state, _ = _one_container(NET.format(cats="client"))
    assert _sock(store, state, SocketFamily.IPV4, SocketOpKind.CONNECT).verdict is Verdict.ALLOW
    assert _sock(store, state, SocketFamily.IPV4, SocketOpKind.BIND).verdict is Verdict.DENY


def test_server_grants_the_listening_lifecycle():
    store, state, _ = _one_container(NET.format(cats="server"))
    for op in (SocketOpKind.BIND, SocketOpKind.LISTEN, SocketOpKind.ACCEPT,
               SocketOpKind.SHUTDOWN):
        assert _sock(store, state, SocketFamily.IPV4, op).verdict is Verdict.ALLOW, op
    assert _sock(store, state, SocketFamily.IPV4, SocketOpKind.CONNECT).verdict is Verdict.DENY


def test_send_receive_categories():
    store, state, _ = _one_container(NET.format(cats="send"))
    assert _sock(store, state, SocketFamily.IPV6, SocketOpKind.SEND).verdict is Verdict.ALLOW
    assert _sock(store, state, SocketFamily.IPV6, SocketOpKind.RECEIVE).verdict is Verdict.DENY


def test_any_category_grants_create():
    store, state, _ = _one_container(NET.format(cats="receive"))
    assert _sock(store, state, SocketFamily.IPV4, SocketOpKind.CREATE).verdict is Verdict.ALLOW


def test_create_denied_only_by_total_network_deny():
    text = "name: p\nentry: /bin/p\ndefault: allow\ndeny:\n  - network: server\n"
    store, state, _ = _one_container(text)
    assert _sock(store, state, SocketFamily.IPV4, SocketOpKind.CREATE).verdict is Verdict.ALLOW
    text = ("name: p\nentry: /bin/p\ndefault: allow\n"
            "deny:\n  - network: client server send receive\n")
    store, state, _ = _one_container(text)
    assert _sock(store, state, SocketFamily.IPV4, SocketOpKind.CREATE).verdict is Verdict.DENY


def test_other_families_implicitly_denied_once_tainted():
    store, state, _ = _one_container(NET.format(cats="client"))
    d = _sock(store, state, SocketFamily.OTHER, SocketOpKind.CREATE)
    assert d.verdict is Verdict.DENY
    assert d.stage == "implicit-net"


def test_unix_sockets_are_ipc_not_network():
    store, state, _ = _one_container(MINIMAL)
    d = _sock(store, state, SocketFamily.UNIX, SocketOpKind.CREATE)
    assert d.verdict is Verdict.ALLOW
    assert d.stage == "ipc"


def test_network_taint_rule():
    text = "name: p\nentry: /bin/p\nallow:\n  - network: server\ntaint:\n  - network: server\n"
    store, state, container = _one_container(text)
    assert not container.tainted
    # creation alone does not taint
    assert _sock(store, state, SocketFamily.IPV4, SocketOpKind.CREATE).verdict is Verdict.ALLOW
    assert not container.tainted
    d = _sock(store, state, SocketFamily.IPV4, SocketOpKind.ACCEPT)
    assert d.verdict is Verdict.ALLOW
    assert d.taint_transition
    assert container.tainted


# --- ipc -------------------------------------------------------------------------

IPC_A = "name: a\nentry: /bin/a\nallow:\n  - ipc: b\n"
IPC_B = "name: b\nentry: /bin/b\nallow:\n  - ipc: a\n"
IPC_B_SILENT = "name: b\nentry: /bin/b\n"


def _ipc_world(a_text, b_text, same_ns=True):
    store, state = _world(a_text, b_text)
    state.confine(1, "a", ipc_ns=10)
    state.confine(2, "b", ipc_ns=10 if same_ns else 11)
    return store, state


def test_ipc_within_same_container_always_allowed():
    store, state = _world(IPC_A)
    state.confine(1, "a", ipc_ns=10)
    state.on_fork(1, 2)
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state)
    assert d.verdict is Verdict.ALLOW
    assert d.reason == "ipc within the same container"


def test_mutual_allowlist_same_namespace_allows():
    store, state = _ipc_world(IPC_A, IPC_B)
    d = decide(IpcOp(1, 2, IpcMechanism.SHMEM), state)
    assert d.verdict is Verdict.ALLOW
    assert "mutual ipc allowlist" in d.reason


def test_one_sided_allowlist_denies():
    store, state = _ipc_world(IPC_A, IPC_B_SILENT)
    assert decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state).verdict is Verdict.DENY
    # and from the other side as well
    assert decide(IpcOp(2, 1, IpcMechanism.SIGNAL), state).verdict is Verdict.DENY


def test_mutual_allowlist_but_namespace_mismatch_denies():
    store, state = _ipc_world(IPC_A, IPC_B, same_ns=False)
    d = decide(IpcOp(1, 2, IpcMechanism.SYSV), state)
    assert d.verdict is Verdict.DENY
    assert "namespace" in d.reason


def test_ipc_with_unconfined_peer_denied_when_tainted():
    store, state = _world(IPC_A)
    state.confine(1, "a")
    d = decide(IpcOp(1, 99, IpcMechanism.SIGNAL), state)
    assert d.verdict is Verdict.DENY


def test_ipc_deny_rule_wins_over_mutual_allow():
    a = "name: a\nentry: /bin/a\nallow:\n  - ipc: b\ndeny:\n  - ipc: b\n"
    store, state = _ipc_world(a, IPC_B)
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state)
    assert d.verdict is Verdict.DENY
    assert d.stage == "explicit-deny"


def test_ipc_taint_rule_triggers_on_peer_contact():
    a = ("name: a\nentry: /bin/a\nallow:\n  - ipc: b\n"
         "taint:\n  - ipc: b\n")
    store, state = _ipc_world(a, IPC_B)
    container = state.lookup(1)
    assert not container.tainted
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state)
    assert d.taint_transition
    assert container.tainted
    assert d.verdict is Verdict.ALLOW  # mutual + same ns


def test_untainted_container_exempt_from_ipc_policy():
    a = "name: a\nentry: /bin/a\ntaint:\n  - tty: r\n"
    store, state = _world(a, IPC_B_SILENT)
    state.confine(1, "a", ipc_ns=10)
    state.confine(2, "b", ipc_ns=11)
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state)
    assert d.verdict is Verdict.ALLOW
    assert d.stage == "untainted-exemption"


# --- purity ------------------------------------------------------------------------

def test_decide_is_deterministic_on_identical_snapshots():
    events = [
        FileAccess(100, "/dev/tty", parse_access("w")),
        SocketOp(100, SocketFamily.IPV4, SocketOpKind.CONNECT),
        CapabilityUse(100, "CAP_KILL", True),
    ]
    results = []
    for _ in range(2):
        store, state, _ = _one_container(MINIMAL)
        results.append([decide(ev, state) for ev in events])
    assert results[0] == results[1]


def test_an_access_flags_mask_decides_as_its_int():
    # the trace parser gives plain int masks; a library caller may pass the
    # AccessFlags member and must get an equal decision
    file_events = [ev for ev in EVENTS if isinstance(ev, FileAccess)]
    assert all(type(ev.requested) is AccessFlags for ev in file_events)
    for doc in itertools.islice(enumerate_policies(), 0, None, 251):
        flags_store, flags_state, _, _, _ = build_world(doc)
        int_store, int_state, _, _, _ = build_world(doc)
        for ev in file_events:
            fields = {name: getattr(ev, name) for name in ev.__slots__}
            as_int = FileAccess(**{**fields, "requested": int(ev.requested)})
            assert (decide(ev, flags_state)
                    == decide(as_int, int_state)), (doc, ev)


def test_the_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    # the python block under "## Library use", run beside the web.yml it reads
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    (tmp_path / "web.yml").write_text(
        "name: web\nentry: /usr/bin/web\nallow:\n  - tty: rw\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(readme), "exec"), {})
    assert capsys.readouterr().out == "Allow: device rule tty rw\n"


def test_each_reason_code_is_distinct_and_has_one_row():
    from bpfcontain import core, engine, trace

    # by name: the engine imports the kernel's codes
    codes = list({name: value for module in (core, engine)
                  for name, value in vars(module).items() if name.startswith("R_")}.values())
    assert len(set(codes)) == len(codes)
    assert set(engine._REASONS) == set(codes)
    assert sorted(codes) == list(range(1, len(engine._REASONS) + 1))
    assert [engine._VERDICTS[v] for v in (core.V_ALLOW, core.V_DENY, core.V_KILL,
                                          core.V_UNCONFINED)] == [
        Verdict.ALLOW, Verdict.DENY, Verdict.KILL, Verdict.UNCONFINED]
    # the audit's outcome codes follow the verdicts
    assert [trace.OUTCOMES[o] for o in (trace.O_CREATED, trace.O_REMOVED, trace.O_ERROR)] == [
        "Created", "Removed", "Error"]


def test_a_decision_reason_is_the_audit_reason_taint_clause_included():
    # the Connect taints the container, and the then-tainted container has no
    # network grant
    _, state, _ = _one_container(
        "name: t\nentry: /bin/t\nallow:\n  - file: /etc/hosts r\ntaint:\n  - net: client\n")
    d = decide(SocketOp(100, SocketFamily.IPV4, SocketOpKind.CONNECT), state)
    assert d.reason == ("tainted by rule network client, "
                        "then no matching rule under default deny")
    assert d.explain() == f"Deny: {d.reason}"
