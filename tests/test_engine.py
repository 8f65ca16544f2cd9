"""Decision pipeline semantics, one spec example at a time."""

import dataclasses
import itertools

import pytest

from bpfcontain.compiler import CompiledPolicyStore, PolicyMeta, compile_policies, policy_id
from bpfcontain.engine import Verdict, decide
from bpfcontain.errors import StoreNotSealed, UnknownPolicy
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
    d = decide(FileAccess(100, "/dev/tty", parse_access("w")), state, store)
    assert d.verdict is Verdict.ALLOW
    assert d.explain() == "Allow: device rule tty rw"


def test_pts_paths_count_as_tty():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/dev/pts/3", parse_access("rw")), state, store)
    assert d.verdict is Verdict.ALLOW


def test_unmatched_access_denied_under_default_deny():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/etc/passwd", parse_access("r")), state, store)
    assert d.verdict is Verdict.DENY
    assert d.stage == "default-mode"


def test_untainted_container_is_exempt():
    store, state, _ = _one_container(TAINT)
    # e.g. mapping a shared library during setup
    d = decide(FileAccess(100, "/usr/lib/libc.so.6", parse_access("rx")), state, store)
    assert d.verdict is Verdict.ALLOW
    assert d.stage == "untainted-exemption"


def test_taint_trigger_judged_under_tainted_regime():
    store, state, container = _one_container(TAINT)
    d = decide(FileAccess(100, "/dev/tty", parse_access("r")), state, store)
    assert d.verdict is Verdict.ALLOW
    assert d.taint_transition
    assert container.tainted
    assert d.explain() == "Allow: tainted by rule tty r, then device rule tty rw"
    # enforcement has begun: unmatched access now denied
    d2 = decide(FileAccess(100, "/etc/shadow", parse_access("r")), state, store)
    assert d2.verdict is Verdict.DENY


def test_capability_mask_binds_default_allow_policies():
    text = "name: p\nentry: /bin/p\ndefault: allow\n"
    store, state, _ = _one_container(text)
    d = decide(CapabilityUse(100, "CAP_SYS_ADMIN", True), state, store)
    assert d.verdict is Verdict.DENY
    assert d.explain() == "Deny: capability mask, no rule for CAP_SYS_ADMIN"


def test_capability_rule_requires_possession():
    text = "name: p\nentry: /bin/p\nallow:\n  - capability: CAP_SYS_ADMIN\n"
    store, state, _ = _one_container(text)
    assert decide(CapabilityUse(100, "CAP_SYS_ADMIN", True), state, store).verdict is Verdict.ALLOW
    d = decide(CapabilityUse(100, "CAP_SYS_ADMIN", False), state, store)
    assert d.verdict is Verdict.DENY
    assert "not possessed" in d.reason


def test_commit_creds_escalation_kills():
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(1000), PrivLevel(0)), state, store)
    assert d.verdict is Verdict.KILL
    assert d.stage == "hardening"


def test_commit_creds_capability_gain_kills():
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(0, frozenset()),
                           PrivLevel(0, frozenset({"CAP_SYS_ADMIN"}))), state, store)
    assert d.verdict is Verdict.KILL


def test_commit_creds_capability_swap_kills():
    # same uid, and the new set is no superset of the old, but CAP_SYS_ADMIN is gained
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(1000, frozenset({"CAP_KILL"})),
                           PrivLevel(1000, frozenset({"CAP_SYS_ADMIN"}))), state, store)
    assert d.verdict is Verdict.KILL
    assert d.explain() == "Kill: privilege escalation in commit_creds (capability gain)"


def test_commit_creds_without_escalation_passes():
    store, state, _ = _one_container(MINIMAL)
    d = decide(CommitCreds(100, PrivLevel(1000), PrivLevel(1000)), state, store)
    assert d.verdict is Verdict.ALLOW
    # dropping back to the same capability set is not a gain
    d = decide(CommitCreds(100, PrivLevel(0, frozenset({"CAP_KILL"})),
                           PrivLevel(0, frozenset({"CAP_KILL"}))), state, store)
    assert d.verdict is Verdict.ALLOW
    # nor is dropping a capability
    d = decide(CommitCreds(100, PrivLevel(1000, frozenset({"CAP_KILL", "CAP_CHOWN"})),
                           PrivLevel(1000, frozenset({"CAP_KILL"}))), state, store)
    assert d.verdict is Verdict.ALLOW


def test_hardening_ops_denied_even_untainted():
    store, state, container = _one_container(TAINT)
    assert not container.tainted
    for op in HardeningKind:
        d = decide(HardeningOp(100, op), state, store)
        assert d.verdict is Verdict.DENY, op
        assert d.stage == "hardening"
    assert decide(SwitchNamespaces(100), state, store).verdict is Verdict.DENY
    assert not container.tainted  # hardening never taints


def test_bpf_denial_message():
    store, state, _ = _one_container(MINIMAL)
    d = decide(HardeningOp(100, HardeningKind.BPF_SYSCALL), state, store)
    assert d.explain() == "Deny: implicit hardening (bpf)"


def test_unconfined_pid_passthrough():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(999, "/etc/passwd", parse_access("r")), state, store)
    assert d.verdict is Verdict.UNCONFINED


def test_unsealed_store_is_refused():
    store = CompiledPolicyStore()
    state = ContainerState(compile_policies([parse_policy(MINIMAL)]))
    with pytest.raises(StoreNotSealed):
        decide(FileAccess(1, "/x", parse_access("r")), state, store)
    # a pid confined over a sealed store, judged against an unsealed one
    state.confine(100, "hello_minimal")
    with pytest.raises(StoreNotSealed):
        decide(FileAccess(100, "/x", parse_access("r")), state, store)

    # a pid confined over an unsealed store: its meta has no tables yet
    store.put_meta(7, PolicyMeta("p", False, False, "/bin/p"))
    state = ContainerState(store)
    state.confine(1, "p")
    for event in (FileAccess(1, "/x", 1),
                  SocketOp(1, SocketFamily.IPV4, SocketOpKind.CONNECT),
                  CapabilityUse(1, "CAP_KILL", True),
                  HardeningOp(1, HardeningKind.PTRACE)):
        with pytest.raises(StoreNotSealed):
            decide(event, state, store)
    # only seal() gives a meta its tables, so a loaded meta cannot pass as sealed
    for tables in ({"files": (None, None, None, None, 0)}, {"network": (0, 0, 0)},
                   {"ipc": {}}, {"capability": {}}):
        with pytest.raises(ValueError, match="gets its tables from seal"):
            store.put_meta(7, PolicyMeta("p", False, False, "/bin/p", **tables))
    assert store.meta(7).files is None


def test_policy_missing_from_the_store_is_named_by_id():
    _, state, _ = _one_container(MINIMAL)
    other = compile_policies([parse_policy(TAINT)])
    with pytest.raises(UnknownPolicy) as exc:
        decide(FileAccess(100, "/x", parse_access("r")), state, other)
    pid = policy_id("hello_minimal")
    assert str(exc.value) == f"no loaded policy with id {pid:#x}"
    assert exc.value.policy_id == pid and exc.value.name is None


# --- implicit filesystem policy ------------------------------------------------

def test_own_procfs_entry_allowed():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/proc/100/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=100), state, store)
    assert d.verdict is Verdict.ALLOW
    assert d.reason == "implicit policy: own procfs entry"


def test_sibling_procfs_entry_counts_as_own():
    store, state, _ = _one_container(MINIMAL)
    state.on_fork(100, 101)
    d = decide(FileAccess(100, "/proc/101/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=101), state, store)
    assert d.verdict is Verdict.ALLOW


def test_foreign_procfs_denied_without_explicit_rule():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state, store)
    assert d.verdict is Verdict.DENY
    assert d.reason == "implicit policy: foreign procfs entry"


def test_foreign_procfs_denied_even_for_untainted_container():
    store, state, _ = _one_container(TAINT)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state, store)
    assert d.verdict is Verdict.DENY


def test_foreign_procfs_rescued_by_explicit_file_rule():
    text = MINIMAL + "  - file: /proc/1/status r\n"
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state, store)
    assert d.verdict is Verdict.ALLOW
    # but only for the access the rule grants
    d = decide(FileAccess(100, "/proc/1/status", parse_access("w"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state, store)
    assert d.verdict is Verdict.DENY


def test_filesystem_rule_does_not_rescue_foreign_procfs():
    text = MINIMAL + "  - filesystem: / rw\n"
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/proc/1/status", parse_access("r"),
                          fs_kind=FsKind.PROCFS, proc_subject_pid=1), state, store)
    assert d.verdict is Verdict.DENY


def test_sysfs_gets_procfs_treatment():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/sys/kernel/something", parse_access("r"),
                          fs_kind=FsKind.SYSFS), state, store)
    assert d.verdict is Verdict.DENY
    assert d.reason == "implicit policy: foreign sysfs entry"


def test_owned_overlayfs_is_allowed_without_rules():
    store, state, _ = _one_container(MINIMAL, mount_ns=7)
    d = decide(FileAccess(100, "/merged/data", parse_access("rw"),
                          fs_kind=FsKind.OVERLAYFS, owner_mount_ns=7), state, store)
    assert d.verdict is Verdict.ALLOW
    assert "overlay" in d.reason


def test_foreign_overlayfs_follows_explicit_policy():
    store, state, _ = _one_container(MINIMAL, mount_ns=7)
    d = decide(FileAccess(100, "/merged/data", parse_access("rw"),
                          fs_kind=FsKind.OVERLAYFS, owner_mount_ns=8), state, store)
    assert d.verdict is Verdict.DENY


def test_overlay_allow_still_loses_to_deny_rules():
    text = MINIMAL + "deny:\n  - file: /merged/secret rw\n"
    store, state, _ = _one_container(text, mount_ns=7)
    d = decide(FileAccess(100, "/merged/secret", parse_access("r"),
                          fs_kind=FsKind.OVERLAYFS, owner_mount_ns=7), state, store)
    assert d.verdict is Verdict.DENY
    assert d.stage == "explicit-deny"


def test_bpffs_write_routes_to_hardening():
    store, state, container = _one_container(TAINT)
    d = decide(FileAccess(100, "/sys/fs/bpf/pinned", parse_access("w"),
                          fs_kind=FsKind.BPFFS), state, store)
    assert d.verdict is Verdict.DENY
    assert d.stage == "hardening"
    assert not container.tainted  # fires before taint evaluation


def test_bpffs_read_falls_through_to_policy():
    store, state, _ = _one_container(MINIMAL)
    d = decide(FileAccess(100, "/sys/fs/bpf/pinned", parse_access("r"),
                          fs_kind=FsKind.BPFFS), state, store)
    assert d.verdict is Verdict.DENY
    assert d.stage == "default-mode"


# --- explicit file matching ------------------------------------------------------

def test_requested_access_must_be_subset():
    text = "name: p\nentry: /bin/p\nallow:\n  - file: /var/log/mylog.log ra\n"
    store, state, _ = _one_container(text)
    assert decide(FileAccess(100, "/var/log/mylog.log", parse_access("ra")),
                  state, store).verdict is Verdict.ALLOW
    assert decide(FileAccess(100, "/var/log/mylog.log", parse_access("r")),
                  state, store).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, "/var/log/mylog.log", parse_access("w")), state, store)
    assert d.verdict is Verdict.DENY


def test_subdir_depth_bound():
    text = "name: p\nentry: /bin/p\nallow:\n  - subdir: /a r\n"
    store, state, _ = _one_container(text)
    ok = "/a/" + "/".join(f"d{i}" for i in range(1, 9)) + "/f"      # 8 nested dirs
    too_deep = "/a/" + "/".join(f"d{i}" for i in range(1, 10)) + "/f"  # 9 nested dirs
    assert decide(FileAccess(100, "/a/f", parse_access("r")), state, store).verdict is Verdict.ALLOW
    assert decide(FileAccess(100, ok, parse_access("r")), state, store).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, too_deep, parse_access("r")), state, store)
    assert d.verdict is Verdict.DENY


def test_subdir_rule_does_not_match_its_own_root():
    text = "name: p\nentry: /bin/p\nallow:\n  - subdir: /a r\n"
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/a", parse_access("r")), state, store)
    assert d.verdict is Verdict.DENY


def test_deny_precedence_across_tiers():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - filesystem: / rw\n"
        "deny:\n  - file: /etc/shadow r\n"
    )
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/etc/shadow", parse_access("r")), state, store)
    assert d.verdict is Verdict.DENY
    assert d.stage == "explicit-deny"
    assert decide(FileAccess(100, "/etc/passwd", parse_access("r")),
                  state, store).verdict is Verdict.ALLOW


def test_most_specific_tier_fixes_the_grant():
    # the exact file rule shadows the broader filesystem grant
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - file: /srv/data r\n  - filesystem: / rw\n"
    )
    store, state, _ = _one_container(text)
    d = decide(FileAccess(100, "/srv/data", parse_access("w")), state, store)
    assert d.verdict is Verdict.DENY
    assert decide(FileAccess(100, "/srv/other", parse_access("w")),
                  state, store).verdict is Verdict.ALLOW


def test_deepest_subdir_rule_wins_the_tier():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - subdir: /a rw\n  - subdir: /a/b r\n"
    )
    store, state, _ = _one_container(text)
    assert decide(FileAccess(100, "/a/x", parse_access("w")),
                  state, store).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, "/a/b/x", parse_access("w")), state, store)
    assert d.verdict is Verdict.DENY


def test_file_rule_outranks_device_rule():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - file: /dev/null r\n  - device: null w\n"
    )
    store, state, _ = _one_container(text)
    # file tier grants only r, so w is not covered despite the device rule
    d = decide(FileAccess(100, "/dev/null", parse_access("w")), state, store)
    assert d.verdict is Verdict.DENY


def test_longest_mountpoint_is_the_containing_filesystem():
    text = (
        "name: p\nentry: /bin/p\n"
        "allow:\n  - filesystem: / rw\n"
        "deny:\n  - filesystem: /var w\n"
    )
    store, state, _ = _one_container(text)
    assert decide(FileAccess(100, "/etc/x", parse_access("w")),
                  state, store).verdict is Verdict.ALLOW
    d = decide(FileAccess(100, "/var/x", parse_access("w")), state, store)
    assert d.verdict is Verdict.DENY
    # the / rule does not reach into the /var filesystem
    d = decide(FileAccess(100, "/var/x", parse_access("r")), state, store)
    assert d.verdict is Verdict.DENY
    assert d.stage == "default-mode"


# --- network ---------------------------------------------------------------------

NET = "name: p\nentry: /bin/p\nallow:\n  - network: {cats}\n"


def _sock(store, state, family, op):
    return decide(SocketOp(100, family, op), state, store)


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
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state, store)
    assert d.verdict is Verdict.ALLOW
    assert d.reason == "ipc within the same container"


def test_mutual_allowlist_same_namespace_allows():
    store, state = _ipc_world(IPC_A, IPC_B)
    d = decide(IpcOp(1, 2, IpcMechanism.SHMEM), state, store)
    assert d.verdict is Verdict.ALLOW
    assert "mutual ipc allowlist" in d.reason


def test_one_sided_allowlist_denies():
    store, state = _ipc_world(IPC_A, IPC_B_SILENT)
    assert decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state, store).verdict is Verdict.DENY
    # and from the other side as well
    assert decide(IpcOp(2, 1, IpcMechanism.SIGNAL), state, store).verdict is Verdict.DENY


def test_mutual_allowlist_but_namespace_mismatch_denies():
    store, state = _ipc_world(IPC_A, IPC_B, same_ns=False)
    d = decide(IpcOp(1, 2, IpcMechanism.SYSV), state, store)
    assert d.verdict is Verdict.DENY
    assert "namespace" in d.reason


def test_ipc_with_unconfined_peer_denied_when_tainted():
    store, state = _world(IPC_A)
    state.confine(1, "a")
    d = decide(IpcOp(1, 99, IpcMechanism.SIGNAL), state, store)
    assert d.verdict is Verdict.DENY


def test_ipc_deny_rule_wins_over_mutual_allow():
    a = "name: a\nentry: /bin/a\nallow:\n  - ipc: b\ndeny:\n  - ipc: b\n"
    store, state = _ipc_world(a, IPC_B)
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state, store)
    assert d.verdict is Verdict.DENY
    assert d.stage == "explicit-deny"


def test_ipc_taint_rule_triggers_on_peer_contact():
    a = ("name: a\nentry: /bin/a\nallow:\n  - ipc: b\n"
         "taint:\n  - ipc: b\n")
    store, state = _ipc_world(a, IPC_B)
    container = state.lookup(1)
    assert not container.tainted
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state, store)
    assert d.taint_transition
    assert container.tainted
    assert d.verdict is Verdict.ALLOW  # mutual + same ns


def test_untainted_container_exempt_from_ipc_policy():
    a = "name: a\nentry: /bin/a\ntaint:\n  - tty: r\n"
    store, state = _world(a, IPC_B_SILENT)
    state.confine(1, "a", ipc_ns=10)
    state.confine(2, "b", ipc_ns=11)
    d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state, store)
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
        results.append([decide(ev, state, store) for ev in events])
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
            as_int = dataclasses.replace(ev, requested=int(ev.requested))
            assert (decide(ev, flags_state, flags_store)
                    == decide(as_int, int_state, int_store)), (doc, ev)
