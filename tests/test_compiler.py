"""Policy lowering: ids, map layout, capacities, and the seal."""

import operator
import threading
from types import MappingProxyType

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
from bpfcontain.engine import Verdict, decide
from bpfcontain.errors import (
    CapacityExceeded,
    CompileError,
    EmptyName,
    PolicyIdCollision,
    StoreSealed,
)
from bpfcontain.events import CapabilityUse, FileAccess
from bpfcontain.policy import AccessFlags, DefaultMode, DeviceKind, parse_policy
from bpfcontain.state import ContainerState

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
    meta = store.meta(pid)
    assert meta.files[3] == {int(DeviceKind.TTY): (rw, 0, 0)}
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
    assert store.meta(pid).files[3][int(DeviceKind.TTY)] == (rw, 0, r)
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
    meta = store.meta(1)
    assert meta.files == ({"/x": (1, 0, 0)}, None, None, None, 0)
    with pytest.raises(StoreSealed):
        store.merge_rule("file", 1, "/y", allow=1)
    with pytest.raises(StoreSealed):
        store.merge_rule("file", 1, "/x", deny=2)  # updates fail too
    with pytest.raises(StoreSealed):
        store.put_meta(2, PolicyMeta("q", False, True, "/bin/q"))
    with pytest.raises(StoreSealed):
        store.merge_rule("network", 1, None, allow=1)
    with pytest.raises(StoreSealed):
        store.merge_rule("ipc", 1, 2, allow=1)
    with pytest.raises(StoreSealed):
        store.merge_rule("capability", 1, "CAP_KILL", allow=1)
    # lookups still work, sealing again is a no-op, and the metas are the
    # only copy of the tables: no build state outlives the seal
    assert store.meta(1).files[0]["/x"] == (1, 0, 0)
    assert store.seal() is store
    assert store.sealed
    assert store.meta(1) is meta
    assert set(vars(store)) == {"capacities", "_sealed", "_meta", "_ids_by_name", "_counts"}


def test_compile_is_deterministic():
    docs = [parse_policy(MINIMAL_POLICY), parse_policy(TAINT_POLICY)]
    a = compile_policies(docs)
    b = compile_policies(docs)
    for doc in docs:
        pid = policy_id(doc.name)
        assert a.meta(pid) == b.meta(pid)
        assert a.find_policy(doc.name) == b.find_policy(doc.name) == pid


def test_policy_id_collision_is_hard_error():
    store = CompiledPolicyStore()
    store.put_meta(42, PolicyMeta("a", False, True, "/bin/a"))
    with pytest.raises(PolicyIdCollision):
        store.put_meta(42, PolicyMeta("b", False, True, "/bin/b"))


def test_a_policy_loaded_twice_is_refused():
    # a second document with a loaded name once merged into the first: its
    # header won, and a default-allow copy turned a default-deny policy open
    deny = parse_policy("name: web\nentry: /bin/web\nallow:\n  - file: /srv r\n")
    allow = parse_policy("name: web\nentry: /bin/web\ndefault: allow\n")
    for docs in ([deny, allow], [allow, deny], [deny, deny]):
        with pytest.raises(CompileError, match="'web'") as exc:
            compile_policies(docs)
        assert type(exc.value) is CompileError
    store = CompiledPolicyStore()
    store.put_meta(42, PolicyMeta("a", False, True, "/bin/a"))
    with pytest.raises(CompileError, match="'a' is already loaded"):
        store.put_meta(42, PolicyMeta("a", True, False, "/bin/a"))
    assert not store.meta(42).default_allow
    assert store.count("meta") == 1


def test_ipc_and_capability_flags():
    doc = parse_policy(
        "name: a\nentry: /bin/a\n"
        "allow:\n  - ipc: b\n  - capability: CAP_KILL\n"
        "taint:\n  - ipc: b\n"
    )
    store = compile_policies([doc])
    pid, peer = policy_id("a"), policy_id("b")
    meta = store.meta(pid)
    assert meta.ipc == {peer: (1, 0, 1)}
    assert meta.capability == {"CAP_KILL": (1, 0, 0)}
    assert meta.capability.get("CAP_SYS_ADMIN") is None
    # a policy without ipc or capability rules gets empty tables
    bare = compile_policies([parse_policy(MINIMAL_POLICY)]).meta(policy_id("hello_minimal"))
    assert bare.ipc == bare.capability == {}


def test_sealed_store_is_safe_for_concurrent_readers():
    doc = parse_policy(TAINT_POLICY)
    store = compile_policies([doc])
    pid = policy_id("hello_taint")
    expected = store.meta(pid).files[3][int(DeviceKind.TTY)]
    errors = []

    def reader():
        for _ in range(2000):
            if store.meta(pid).files[3].get(int(DeviceKind.TTY)) != expected:
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


def _fold(doc):
    """The document's rules as per-category tables of (allow, deny, taint),
    an ipc peer keyed by its policy id."""
    tables = {category: {} for category in KEYED_CATEGORIES}
    for slot, rules in enumerate((doc.allow, doc.deny, doc.taint)):
        for rule in rules:
            key = policy_id(rule.key) if rule.category == "ipc" else rule.key
            entry = tables[rule.category].setdefault(key, [0, 0, 0])
            entry[slot] |= int(rule.access)
    return {category: {key: tuple(entry) for key, entry in table.items()}
            for category, table in tables.items()}


def _assert_meta_is_the_store(docs, store):
    """Each policy's sealed meta holds its documents' rules, entry for entry,
    in read-only tables."""
    for doc in docs:
        pid = policy_id(doc.name)
        meta = store.meta(pid)
        assert store.find_policy(doc.name) == pid
        assert (meta.name, meta.default_allow, meta.tainted_from_start, meta.entry) == (
            doc.name, doc.default is DefaultMode.ALLOW, doc.tainted_from_start, doc.entry)
        tables = _fold(doc)
        held = dict(zip(("file", "subdir", "filesystem", "device", "ipc", "capability"),
                        (*meta.files[:4], meta.ipc, meta.capability)))
        for category, table in held.items():
            if not tables[category] and category not in ("ipc", "capability"):
                assert table is None, category
                continue
            assert type(table) is MappingProxyType, category
            assert dict(table) == tables[category], category
        assert meta.network == tables["network"].get(None, (0, 0, 0))
        paths = [*tables["subdir"], *tables["filesystem"]]
        assert meta.files[4] == max((len([c for c in p.split("/") if c]) for p in paths),
                                    default=0)
    metas = {policy_id(doc.name): store.meta(policy_id(doc.name)) for doc in docs}
    store.seal()
    assert {pid: store.meta(pid) for pid in metas} == metas


_NEW_ENTRY = (15, 0, 0)
# every dict method that edits, called through ``dict`` so that a subclass
# or a view cannot answer it with its own override
_EDITS = {
    "__setitem__": lambda key: (key, _NEW_ENTRY),
    "__delitem__": lambda key: (key,),
    "update": lambda key: ({key: _NEW_ENTRY},),
    "pop": lambda key: (key,),
    "popitem": lambda key: (),
    "clear": lambda key: (),
    "setdefault": lambda key: (key, _NEW_ENTRY),
    "__ior__": lambda key: ({key: _NEW_ENTRY},),
}


def _decisions(docs, store):
    """A decision per path and capability key of every policy, and for
    ``/etc/shadow``, each in a fresh container."""
    decisions = []
    for n, doc in enumerate(docs):
        meta = store.meta(policy_id(doc.name))
        state = ContainerState(store)
        state.confine(n + 1, doc.name)
        paths = {"/etc/shadow", *(key for table in meta.files[:3] if table for key in table)}
        events = [FileAccess(n + 1, path, 15) for path in sorted(paths)]
        events += [CapabilityUse(n + 1, name, False) for name in sorted(meta.capability)]
        decisions += [decide(event, state) for event in events]
    return decisions


def _refused(edit, *args, errors=TypeError):
    try:
        edit(*args)
    except errors:
        return True
    return False


def _assert_tables_refuse_edits(docs, store):
    before = _decisions(docs, store)
    for doc in docs:
        meta = store.meta(policy_id(doc.name))
        for table in (*meta.files[:4], meta.ipc, meta.capability):
            if table is None:
                continue
            key = next(iter(table), "/etc/shadow")
            for name, args in _EDITS.items():
                assert _refused(getattr(dict, name), table, *args(key)), name
                # the table's own method, where it has one, refuses too
                method = getattr(table, name, None)
                assert method is None or _refused(method, *args(key)), name
            # ``table[key] = ...`` and ``del table[key]``: the proxy raises
            # IndexError for an int key past the index range, as half of all
            # policy ids are, and TypeError otherwise
            assert _refused(operator.setitem, table, key, _NEW_ENTRY,
                            errors=(TypeError, IndexError))
            assert _refused(operator.delitem, table, key, errors=(TypeError, IndexError))
    assert _decisions(docs, store) == before


def test_the_readme_shadow_edit_is_refused():
    doc = parse_policy("name: web\nentry: /bin/web\nallow:\n  - file: /srv/www r\n")
    store = compile_policies([doc])
    state = ContainerState(store)
    state.confine(1, "web")
    meta = store.meta(policy_id("web"))
    shadow = FileAccess(1, "/etc/shadow", int(AccessFlags.READ))
    assert decide(shadow, state).verdict is Verdict.DENY
    with pytest.raises(TypeError):
        meta.files[0]["/etc/shadow"] = (15, 0, 0)
    with pytest.raises(TypeError):
        dict.__setitem__(meta.files[0], "/etc/shadow", (15, 0, 0))
    assert decide(shadow, state).explain() == "Deny: no matching rule under default deny"
    _assert_tables_refuse_edits([doc], store)


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


def _workload_store(name):
    workload = workloads.build(name, workloads.DEFAULT_SEED)
    capacities = {c: n for c, n in workload.capacities.items() if c in MAP_CATEGORIES}
    docs = [parse_policy(text) for _, text in workload.policies]
    return docs, compile_policies(docs, MapCapacities(**capacities))


@pytest.mark.parametrize("name", sorted(WORKLOAD_COUNTS))
def test_sealed_meta_is_the_store_for_the_workloads(name):
    docs, store = _workload_store(name)
    assert {c: store.count(c) for c in MAP_CATEGORIES} == WORKLOAD_COUNTS[name]
    _assert_meta_is_the_store(docs, store)


def test_sealed_meta_is_the_store_for_every_enumerated_policy():
    for doc in enumerate_policies():
        _assert_meta_is_the_store([doc], compile_policies([doc]))


@pytest.mark.parametrize("name", sorted(WORKLOAD_COUNTS))
def test_sealed_tables_refuse_edits_for_the_workloads(name):
    _assert_tables_refuse_edits(*_workload_store(name))


def test_sealed_tables_refuse_edits_for_every_enumerated_policy():
    for doc in enumerate_policies():
        _assert_tables_refuse_edits([doc], compile_policies([doc]))
