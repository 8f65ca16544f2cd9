"""Policy lowering: ids, map layout, capacities, and the seal."""

import threading

import pytest

from bpfcontain.compiler import (
    KEYED_CATEGORIES,
    MAP_CATEGORIES,
    CompiledPolicyStore,
    MapCapacities,
    PolicyMeta,
    compile_policies,
    policy_id,
)
from bpfcontain.errors import (
    CapacityExceeded,
    EmptyName,
    PolicyIdCollision,
    StoreSealed,
)
from bpfcontain.policy import AccessFlags, DeviceKind, parse_policy

from conftest import MINIMAL_POLICY, TAINT_POLICY
from corpus import enumerate_policies, workloads

# FNV-1a 64 golden values, computed once with the reference byte loop
GOLDEN_IDS = {
    "hello_minimal": 0xD386E44883176ACF,
    "hello_taint": 0xFC9D499C5986FFF4,
    "x": 0xAF63F54C86021707,
}


def test_policy_id_deterministic():
    assert policy_id("x") == policy_id("x")


def test_policy_id_distinct_names():
    assert policy_id("hello_minimal") != policy_id("hello_taint")


@pytest.mark.parametrize("name,expected", sorted(GOLDEN_IDS.items()))
def test_policy_id_golden(name, expected):
    assert policy_id(name) == expected


def test_policy_id_rejects_empty():
    with pytest.raises(EmptyName):
        policy_id("")


def test_compile_minimal_policy():
    doc = parse_policy(MINIMAL_POLICY)
    store = compile_policies([doc], MapCapacities(**{c: 16 for c in (
        "file", "subdir", "filesystem", "device", "network", "ipc", "capability", "meta")}))
    pid = policy_id("hello_minimal")
    assert store.count("device") == 1
    rw = int(AccessFlags.READ | AccessFlags.WRITE)
    assert store.entry("device", pid, int(DeviceKind.TTY)) == (rw, 0, 0)
    meta = store.meta(pid)
    assert meta.name == "hello_minimal"
    assert meta.tainted_from_start
    assert not meta.default_allow
    assert meta.entry == "/usr/bin/hello.static"


def test_compile_taint_policy_merges_same_key():
    # allow rw and taint r land in one entry under the same (policy, tty) key
    doc = parse_policy(TAINT_POLICY)
    store = compile_policies([doc])
    pid = policy_id("hello_taint")
    rw = int(AccessFlags.READ | AccessFlags.WRITE)
    r = int(AccessFlags.READ)
    assert store.entry("device", pid, int(DeviceKind.TTY)) == (rw, 0, r)
    assert not store.meta(pid).tainted_from_start


# policy text -> the fifth value of its meta's ``files``: the components of
# the deepest subdir or filesystem key, which bounds the file kernel's
# ancestor walk
WALK_BOUNDS = {
    "subdir-and-root": ("  - subdir: /a/b/c r\n  - filesystem: / rw\n", 3),
    "file-rules-only": ("  - file: /a/b/c/d/e r\n  - tty: rw\n", 0),
    "root-only": ("  - filesystem: / r\n", 0),
    "several-depths": ("  - subdir: /a r\n  - filesystem: /v/w/x/y rw\n"
                       "  - subdir: /p/q/ r\n  - file: /a/b/c/d/e/f r\n", 4),
}


@pytest.mark.parametrize("rules,top", WALK_BOUNDS.values(), ids=WALK_BOUNDS.keys())
def test_sealed_files_bound_the_ancestor_walk(rules, top):
    store = compile_policies([parse_policy(f"name: p\nentry: /bin/p\nallow:\n{rules}")])
    assert store.meta(policy_id("p")).files[4] == top


def test_walk_bound_is_per_policy_and_spans_rule_lists():
    store = compile_policies([
        parse_policy("name: deep\nentry: /bin/p\nallow:\n  - subdir: /a r\n"
                     "deny:\n  - filesystem: /a/b w\ntaint:\n  - subdir: /a/b/c/d r\n"),
        parse_policy("name: flat\nentry: /bin/p\nallow:\n  - filesystem: /a rw\n"),
    ])
    assert store.meta(policy_id("deep")).files[4] == 4
    assert store.meta(policy_id("flat")).files[4] == 1


def test_capacity_exceeded_by_seventeenth_file_rule():
    rules = "\n".join(f"  - file: /f{i} r" for i in range(17))
    doc = parse_policy(f"name: x\nentry: /bin/sh\nallow:\n{rules}\n")
    with pytest.raises(CapacityExceeded) as exc:
        compile_policies([doc], MapCapacities(file=16))
    assert exc.value.category == "file"


def test_capacity_counts_span_policies():
    docs = []
    for n in ("a", "b"):
        rules = "\n".join(f"  - file: /{n}{i} r" for i in range(9))
        docs.append(parse_policy(f"name: {n}\nentry: /bin/sh\nallow:\n{rules}\n"))
    with pytest.raises(CapacityExceeded):
        compile_policies(docs, MapCapacities(file=16))
    compile_policies(docs, MapCapacities(file=18))


def test_capacities_must_be_positive():
    with pytest.raises(ValueError):
        MapCapacities(file=0)


def test_seal_semantics():
    store = CompiledPolicyStore()
    store.put_meta(1, PolicyMeta("p", False, True, "/bin/p"))
    store.merge_rule("file", 1, "/x", allow=1)
    assert store.meta(1).files is None  # the tables come with the seal
    store.seal()
    assert store.meta(1).files == ({"/x": (1, 0, 0)}, None, None, None, 0)
    with pytest.raises(StoreSealed):
        store.merge_rule("file", 1, "/y", allow=1)
    with pytest.raises(StoreSealed):
        store.merge_rule("file", 1, "/x", deny=2)  # updates fail too
    with pytest.raises(StoreSealed):
        store.put_meta(2, PolicyMeta("q", False, True, "/bin/q"))
    with pytest.raises(StoreSealed):
        store.merge_network_rule(1, allow=1)
    with pytest.raises(StoreSealed):
        store.merge_rule("ipc", 1, 2, allow=1)
    with pytest.raises(StoreSealed):
        store.merge_rule("capability", 1, "CAP_KILL", allow=1)
    # lookups still work, sealing again is a no-op
    assert store.entry("file", 1, "/x") == (1, 0, 0)
    store.seal()
    assert store.sealed


def test_public_views_are_read_only():
    doc = parse_policy(MINIMAL_POLICY)
    store = compile_policies([doc])
    pid = policy_id("hello_minimal")
    with pytest.raises(TypeError):
        store.device_rules[123] = {}
    with pytest.raises(TypeError):
        store.network_rules[123] = (1, 2, 3)
    # the nested per-policy mappings are frozen too
    with pytest.raises(TypeError):
        store.device_rules[pid][int(DeviceKind.TTY)] = (15, 0, 0)


def test_compile_is_deterministic():
    docs = [parse_policy(MINIMAL_POLICY), parse_policy(TAINT_POLICY)]
    a = compile_policies(docs)
    b = compile_policies(docs)
    assert dict(a.device_rules) == dict(b.device_rules)
    assert dict(a.network_rules) == dict(b.network_rules)
    assert a.policy_names() == b.policy_names()


def test_policy_id_collision_is_hard_error():
    store = CompiledPolicyStore()
    store.put_meta(42, PolicyMeta("a", False, True, "/bin/a"))
    with pytest.raises(PolicyIdCollision):
        store.put_meta(42, PolicyMeta("b", False, True, "/bin/b"))


def test_ipc_and_capability_flags():
    doc = parse_policy(
        "name: a\nentry: /bin/a\n"
        "allow:\n  - ipc: b\n  - capability: CAP_KILL\n"
        "taint:\n  - ipc: b\n"
    )
    store = compile_policies([doc])
    pid, peer = policy_id("a"), policy_id("b")
    assert store.entry("ipc", pid, peer) == (1, 0, 1)
    assert store.entry("capability", pid, "CAP_KILL") == (1, 0, 0)
    assert store.entry("capability", pid, "CAP_SYS_ADMIN") is None


def test_sealed_store_is_safe_for_concurrent_readers():
    doc = parse_policy(TAINT_POLICY)
    store = compile_policies([doc])
    pid = policy_id("hello_taint")
    expected = store.entry("device", pid, int(DeviceKind.TTY))
    errors = []

    def reader():
        for _ in range(2000):
            if store.entry("device", pid, int(DeviceKind.TTY)) != expected:
                errors.append("inconsistent read")

    def writer():
        for _ in range(100):
            try:
                store.merge_rule("device", pid, 0, allow=8)
            except StoreSealed:
                pass
            else:
                errors.append("mutation succeeded after seal")

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads += [threading.Thread(target=writer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def _assert_meta_is_the_store(store):
    """Each policy's sealed tables are the store's own, entry for entry."""
    metas = {}
    for name in store.policy_names():
        pid = store.find_policy(name)
        meta = metas[pid] = store.meta(pid)
        tables = dict(zip(KEYED_CATEGORIES, (*meta.files[:4], meta.ipc, meta.capability)))
        for category, table in tables.items():
            held = store._maps[category].get(pid)
            if held is None:
                assert table == ({} if category in ("ipc", "capability") else None)
                continue
            assert table is held
            for key, entry in table.items():
                assert entry == store.entry(category, pid, key)
        assert meta.network == store.network_rules.get(pid, (0, 0, 0))
    store.seal()
    assert {pid: store.meta(pid) for pid in metas} == metas


# per-category entries of each benchmark workload's policies at the
# reference seed; one value shape must charge every map as before
WORKLOAD_COUNTS = {
    "steady_mix": dict(file=4, subdir=7, filesystem=2, device=5, network=4, ipc=2,
                       capability=1, meta=10),
    "cold_paths": dict(file=1, subdir=20, filesystem=9, device=8, network=8, ipc=56,
                       capability=8, meta=8),
    "lifecycle_churn": dict(file=300, subdir=300, filesystem=0, device=300, network=300,
                            ipc=1785, capability=656, meta=300),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_COUNTS))
def test_sealed_meta_is_the_store_for_the_workloads(name):
    workload = workloads.build(name, workloads.DEFAULT_SEED)
    capacities = {c: n for c, n in workload.capacities.items() if c in MAP_CATEGORIES}
    store = compile_policies([parse_policy(text) for _, text in workload.policies],
                             MapCapacities(**capacities))
    assert {c: store.count(c) for c in MAP_CATEGORIES} == WORKLOAD_COUNTS[name]
    _assert_meta_is_the_store(store)


def test_sealed_meta_is_the_store_for_every_enumerated_policy():
    for doc in enumerate_policies():
        _assert_meta_is_the_store(compile_policies([doc]))
