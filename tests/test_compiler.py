"""Policy lowering: names, map layout, capacities, and the read-only store."""

import operator
import posixpath
import threading
from types import MappingProxyType

import pytest

from bpfcontain import compiler
from bpfcontain.compiler import (
    KEYED_CATEGORIES,
    MAP_CATEGORIES,
    MapCapacities,
    PolicyMeta,
    compile_policies,
)
from bpfcontain.engine import Verdict, decide
from bpfcontain.errors import (
    CapacityExceeded,
    CompileError,
    EmptyName,
)
from bpfcontain.events import CapabilityUse, FileAccess
from bpfcontain.policy import AccessFlags, DefaultMode, DeviceKind, PolicyDocument, parse_policy
from bpfcontain.state import ContainerState

from conftest import MINIMAL_POLICY, TAINT_POLICY
from corpus import enumerate_policies, workloads

def test_compile_minimal_policy():
    doc = parse_policy(MINIMAL_POLICY)
    store = compile_policies([doc], MapCapacities(**{c: 16 for c in (
        "file", "subdir", "filesystem", "device", "network", "ipc", "capability", "meta")}))
    assert store.count("device") == 1
    rw = int(AccessFlags.READ | AccessFlags.WRITE)
    meta = store.meta("hello_minimal")
    assert meta.files[2] == {int(DeviceKind.TTY): (rw, 0, 0)}
    assert meta.name == "hello_minimal"
    assert meta.tainted_from_start
    assert not meta.default_allow


def test_compile_taint_policy_merges_same_key():
    # allow rw and taint r land in one entry under the same (policy, tty) key
    doc = parse_policy(TAINT_POLICY)
    meta = compile_policies([doc]).meta("hello_taint")
    rw = int(AccessFlags.READ | AccessFlags.WRITE)
    r = int(AccessFlags.READ)
    assert meta.files[2][int(DeviceKind.TTY)] == (rw, 0, r)
    assert not meta.tainted_from_start


def _tree(text):
    """The prefix tree of the one policy ``p`` that ``text`` lists rules for."""
    store = compile_policies([parse_policy(f"name: p\nentry: /bin/p\n{text}")])
    return store.meta("p").files[1]


_R, _RW = int(AccessFlags.READ), int(AccessFlags.READ | AccessFlags.WRITE)
_BARE = (None, None)
# allow rules -> the prefix tree the compiler builds for them: each subdir or
# filesystem key and each of its ancestors -> (subdir entry, filesystem entry)
PREFIX_TREES = {
    "subdir-and-root": ("  - subdir: /a/b/c r\n  - filesystem: / rw\n", {
        "/": (None, (_RW, 0, 0)), "/a": _BARE, "/a/b": _BARE,
        "/a/b/c": ((_R, 0, 0), None)}),
    "root-subdir": ("  - subdir: / r\n", {"/": ((_R, 0, 0), None)}),
    "one-key-both-kinds": ("  - subdir: /srv r\n  - fs: /srv rw\n", {
        "/": _BARE, "/srv": ((_R, 0, 0), (_RW, 0, 0))}),
    "nested-and-siblings": ("  - subdir: /a r\n  - filesystem: /a/b/c rw\n"
                            "  - subdir: /a/bc/ r\n  - file: /a/b/x/y r\n", {
        "/": _BARE, "/a": ((_R, 0, 0), None), "/a/b": _BARE,
        "/a/b/c": (None, (_RW, 0, 0)), "/a/bc": ((_R, 0, 0), None)}),
}


@pytest.mark.parametrize("rules,tree", PREFIX_TREES.values(), ids=PREFIX_TREES.keys())
def test_sealed_files_hold_the_prefix_tree(rules, tree):
    held = _tree(f"allow:\n{rules}")
    assert type(held) is MappingProxyType
    assert dict(held) == tree


@pytest.mark.parametrize("rules", ["", "allow:\n  - file: /a/b/c r\n  - tty: rw\n",
                                   "allow:\n  - net: client\n  - cap: kill\n  - ipc: q\n"])
def test_a_policy_without_subdir_or_filesystem_rules_has_no_tree(rules):
    assert _tree(rules) is None


def test_the_tree_is_per_policy_and_spans_rule_lists():
    store = compile_policies([
        parse_policy("name: deep\nentry: /bin/p\nallow:\n  - subdir: /a r\n"
                     "deny:\n  - filesystem: /a/b w\ntaint:\n  - subdir: /a/b/c/d r\n"),
        parse_policy("name: flat\nentry: /bin/p\nallow:\n  - filesystem: /a rw\n"),
    ])
    w = int(AccessFlags.WRITE)
    assert dict(store.meta("deep").files[1]) == {
        "/": _BARE, "/a": ((_R, 0, 0), None), "/a/b": (None, (0, w, 0)),
        "/a/b/c": _BARE, "/a/b/c/d": ((0, 0, _R), None)}
    assert dict(store.meta("flat").files[1]) == {
        "/": _BARE, "/a": (None, (_RW, 0, 0))}
    # equal nodes are one object across the store's policies
    deep, flat = (store.meta(n).files[1] for n in ("deep", "flat"))
    assert deep["/"] is deep["/a/b/c"] is flat["/"]


# two distinct keys of each category a policy can hold several of; a policy
# has one network key (None), and meta has one entry per policy
CAPACITY_RULES = {
    "file": ("file: /a r", "file: /b r"),
    "subdir": ("subdir: /a r", "subdir: /b r"),
    "filesystem": ("fs: /a r", "fs: /b r"),
    "device": ("tty: r", "device: random r"),
    "network": ("net: client",),
    "ipc": ("ipc: a", "ipc: b"),
    "capability": ("cap: kill", "cap: CAP_NET_RAW"),
    "meta": (),
}


@pytest.mark.parametrize("category", MAP_CATEGORIES)
def test_each_new_key_takes_one_slot_and_counts_span_policies(category):
    # each policy lists its keys under allow, deny and taint: one slot a key
    rules = "".join(f"  - {rule}\n" for rule in CAPACITY_RULES[category])
    lists = "".join(f"{which}:\n{rules}" for which in ("allow", "deny", "taint") if rules)
    docs = [parse_policy(f"name: p{n}\nentry: /bin/p\n{lists}") for n in range(3)]
    entries = 3 * (len(CAPACITY_RULES[category]) or 1)
    store = compile_policies(docs, MapCapacities(**{category: entries}))
    expected = dict.fromkeys(MAP_CATEGORIES, 0)
    expected["meta"] = 3
    expected[category] = entries
    assert {c: store.count(c) for c in MAP_CATEGORIES} == expected
    # the last policy's last key is the one past the limit
    limit = entries - 1
    with pytest.raises(CapacityExceeded) as exc:
        compile_policies(docs, MapCapacities(**{category: limit}))
    assert (exc.value.category, exc.value.capacity) == (category, limit)
    assert str(exc.value) == f"capacity exceeded for map {category!r} (limit {limit})"


def test_capacities_must_be_positive():
    with pytest.raises(ValueError):
        MapCapacities(file=0)


def test_the_store_is_its_two_queries_and_no_build_state():
    store = compile_policies([parse_policy("name: p\nentry: /bin/p\nallow:\n  - file: /x r\n")])
    assert {name for name in dir(store) if not name.startswith("_")} == {"count", "meta"}
    assert set(vars(store)) == {"_meta", "_counts"}
    assert store.meta("p").files == ({"/x": (1, 0, 0)}, None, None)
    assert store.meta("unknown") is None


def test_compile_is_deterministic():
    docs = [parse_policy(MINIMAL_POLICY), parse_policy(TAINT_POLICY)]
    a = compile_policies(docs)
    b = compile_policies(docs)
    for doc in docs:
        assert a.meta(doc.name) == b.meta(doc.name)


def test_an_empty_name_is_refused_before_its_meta_slot():
    for capacities in (None, MapCapacities(meta=1)):
        with pytest.raises(EmptyName, match="policy name must be a non-empty string"):
            compile_policies([parse_policy(MINIMAL_POLICY), PolicyDocument("", "/bin/x")],
                             capacities)


def test_a_policy_loaded_twice_is_refused(monkeypatch):
    # a second document with a loaded name once merged into the first: its
    # header won, and a default-allow copy turned a default-deny policy open
    deny = parse_policy("name: web\nentry: /bin/web\nallow:\n  - file: /srv r\n")
    allow = parse_policy("name: web\nentry: /bin/web\ndefault: allow\n")
    for docs in ([deny, allow], [allow, deny], [deny, deny]):
        with pytest.raises(CompileError, match="'web'") as exc:
            compile_policies(docs)
        assert type(exc.value) is CompileError
    # refused before the meta slot, and the first document's header is the
    # only one ever built
    built = []
    monkeypatch.setattr(compiler, "PolicyMeta",
                        lambda *args, **kw: built.append(PolicyMeta(*args, **kw)) or built[-1])
    with pytest.raises(CompileError) as exc:
        compile_policies([deny, allow], MapCapacities(meta=1))
    assert type(exc.value) is CompileError
    assert str(exc.value) == "policy 'web' is already loaded"
    assert [(meta.name, meta.default_allow) for meta in built] == [("web", False)]


def test_ipc_and_capability_flags():
    doc = parse_policy(
        "name: a\nentry: /bin/a\n"
        "allow:\n  - ipc: b\n  - capability: CAP_KILL\n"
        "taint:\n  - ipc: b\n"
    )
    store = compile_policies([doc])
    meta = store.meta("a")
    # keyed by the peer's name, though no loaded policy has it
    assert meta.ipc == {"b": (1, 0, 1)}
    assert store.meta("b") is None
    assert meta.capability == {"CAP_KILL": (1, 0, 0)}
    assert meta.capability.get("CAP_SYS_ADMIN") is None
    # a policy without ipc or capability rules gets empty tables
    bare = compile_policies([parse_policy(MINIMAL_POLICY)]).meta("hello_minimal")
    assert bare.ipc == bare.capability == {}


def test_sealed_store_is_safe_for_concurrent_readers():
    doc = parse_policy(TAINT_POLICY)
    store = compile_policies([doc])
    meta = store.meta("hello_taint")
    expected = meta.files[2][int(DeviceKind.TTY)]
    errors = []

    def reader():
        for _ in range(2000):
            if store.meta("hello_taint").files[2].get(int(DeviceKind.TTY)) != expected:
                errors.append("inconsistent read")

    def writer():
        for _ in range(100):
            try:
                dict.__setitem__(meta.files[2], 0, (8, 0, 0))
            except TypeError:
                pass
            else:
                errors.append("a table took an edit")

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads += [threading.Thread(target=writer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def _fold(doc):
    """The document's rules as per-category tables of (allow, deny, taint),
    each under its rule's own key."""
    tables = {category: {} for category in KEYED_CATEGORIES}
    for slot, rules in enumerate((doc.allow, doc.deny, doc.taint)):
        for rule in rules:
            entry = tables[rule.category].setdefault(rule.key, [0, 0, 0])
            entry[slot] |= int(rule.access)
    return {category: {key: tuple(entry) for key, entry in table.items()}
            for category, table in tables.items()}


def _ancestors(key):
    while key != "/":
        key = posixpath.dirname(key)
        yield key


def _assert_meta_is_the_store(docs, store):
    """Each policy's meta holds its documents' rules, entry for entry,
    in read-only tables."""
    for doc in docs:
        meta = store.meta(doc.name)
        assert (meta.name, meta.default_allow, meta.tainted_from_start) == (
            doc.name, doc.default is DefaultMode.ALLOW, doc.tainted_from_start)
        tables = _fold(doc)
        file_t, tree, dev_t = meta.files
        held = dict(zip(("file", "device", "ipc", "capability"),
                        (file_t, dev_t, meta.ipc, meta.capability)))
        for category, table in held.items():
            if not tables[category] and category in ("file", "device"):
                assert table is None, category
                continue
            assert type(table) is MappingProxyType, category
            assert dict(table) == tables[category], category
        assert meta.network == tables["network"].get(None, (0, 0, 0))
        # the tree's nodes hold the subdir and filesystem entries, and the
        # rest of the tree is the keys' ancestors, with neither
        subdir, fs = tables["subdir"], tables["filesystem"]
        if not subdir and not fs:
            assert tree is None
            continue
        assert type(tree) is MappingProxyType
        assert {key: node[0] for key, node in tree.items() if node[0] is not None} == subdir
        assert {key: node[1] for key, node in tree.items() if node[1] is not None} == fs
        assert set(tree) == {*subdir, *fs, *(anc for key in (*subdir, *fs)
                                             for anc in _ancestors(key))}


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
        meta = store.meta(doc.name)
        state = ContainerState(store)
        state.confine(n + 1, doc.name)
        paths = {"/etc/shadow", *(key for table in meta.files[:2] if table for key in table)}
        events = [FileAccess(n + 1, path, 15) for path in sorted(paths)]
        events += [CapabilityUse(n + 1, name, False) for name in sorted(meta.capability)]
        decisions += [decide(event, state) for event in events]
    return decisions


def _refused(edit, *args):
    try:
        edit(*args)
    except TypeError:
        return True
    return False


def _assert_tables_refuse_edits(docs, store):
    before = _decisions(docs, store)
    for doc in docs:
        meta = store.meta(doc.name)
        for table in (*meta.files, meta.ipc, meta.capability):
            if table is None:
                continue
            key = next(iter(table), "/etc/shadow")
            for name, args in _EDITS.items():
                assert _refused(getattr(dict, name), table, *args(key)), name
                # the table's own method, where it has one, refuses too
                method = getattr(table, name, None)
                assert method is None or _refused(method, *args(key)), name
            # ``table[key] = ...`` and ``del table[key]``
            assert _refused(operator.setitem, table, key, _NEW_ENTRY)
            assert _refused(operator.delitem, table, key)
    assert _decisions(docs, store) == before


def test_the_readme_shadow_edit_is_refused():
    doc = parse_policy("name: web\nentry: /bin/web\nallow:\n  - file: /srv/www r\n")
    store = compile_policies([doc])
    state = ContainerState(store)
    state.confine(1, "web")
    meta = store.meta("web")
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
