"""Lower policy documents into per-category, fixed-capacity decision maps.

The compiled store mirrors a kernel-map architecture: one bounded map per
rule category, keyed by 64-bit policy id, populated once at load and
read-only for the lifetime of the engine.  ``compile_policies`` is its one
builder; the store it returns has no mutation API.
"""

from __future__ import annotations

import sys
from types import MappingProxyType

from .errors import CapacityExceeded, CompileError, EmptyName, PolicyIdCollision
from .policy import DefaultMode, FrozenValue, PolicyDocument

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def policy_id(name: str) -> int:
    """FNV-1a 64 over the UTF-8 policy name; the engine's policy key."""
    if not name:
        raise EmptyName("cannot hash an empty policy name")
    h = FNV64_OFFSET_BASIS
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * FNV64_PRIME) & _U64
    return h


DEFAULT_MAP_CAPACITY = 256

MAP_CATEGORIES = (
    "file", "subdir", "filesystem", "device", "network", "ipc", "capability", "meta",
)


class MapCapacities(FrozenValue):
    """The capacity of each category's map, one field per MAP_CATEGORIES name."""

    __slots__ = MAP_CATEGORIES

    def __init__(self, file=DEFAULT_MAP_CAPACITY, subdir=DEFAULT_MAP_CAPACITY,
                 filesystem=DEFAULT_MAP_CAPACITY, device=DEFAULT_MAP_CAPACITY,
                 network=DEFAULT_MAP_CAPACITY, ipc=DEFAULT_MAP_CAPACITY,
                 capability=DEFAULT_MAP_CAPACITY, meta=DEFAULT_MAP_CAPACITY):
        self._init(file, subdir, filesystem, device, network, ipc, capability, meta)
        for name in MAP_CATEGORIES:
            if getattr(self, name) <= 0:
                raise ValueError(f"capacity for {name!r} must be positive")


class PolicyMeta(FrozenValue):
    """A policy's header and its tables, built once by ``compile_policies``.

    ``files`` is ``(file_t, tree, dev_t)``, ``file_t`` and ``dev_t`` None if
    the policy has no such rule and ``tree`` its ``_prefix_tree``;
    ``network`` is its category-mask triple; ``ipc`` and ``capability`` map
    a peer policy id or a capability name to its triple.  Every table is a
    read-only MappingProxyType and the only copy of its rules: it refuses
    every edit with TypeError, or IndexError for an item edit under an ipc
    key past the index range.
    """

    __slots__ = ("name", "default_allow", "tainted_from_start",
                 "files", "network", "ipc", "capability")

    def __init__(self, name: str, default_allow: bool, tainted_from_start: bool,
                 files: tuple, network: tuple[int, int, int],
                 ipc: MappingProxyType, capability: MappingProxyType):
        self._init(name, default_allow, tainted_from_start, files, network, ipc, capability)


# the categories keyed below the policy: policy_id -> key -> (allow, deny, taint)
KEYED_CATEGORIES = tuple(category for category in MAP_CATEGORIES if category != "meta")
# the ipc or capability table of a policy without such rules
_NO_RULES = MappingProxyType({})


def _prefix_tree(subdir_t, fs_t, nodes=None):
    """The file kernel's walk table: each subdir or filesystem key, and each
    ancestor of one, maps to its ``(subdir entry, filesystem entry)``, an
    entry None where the prefix is no key of that kind; None if there is
    neither kind of key.

    A path prefix that is not in the tree is no key and no key's ancestor,
    so a walk down a path stops there.  ``nodes`` shares equal nodes, and
    ancestors are interned, so policies whose keys share a directory share
    its name."""
    if not subdir_t and not fs_t:
        return None
    subdir_t, fs_t = subdir_t or {}, fs_t or {}
    intern = ({} if nodes is None else nodes).setdefault
    bare = intern((None, None), (None, None))
    tree = {}
    for key in (*subdir_t, *fs_t):
        cut = 0
        while cut >= 0:
            tree.setdefault(sys.intern(key[:cut] or "/"), bare)
            cut = key.find("/", cut + 1)
        node = (subdir_t.get(key), fs_t.get(key))
        tree[key] = intern(node, node)
    return MappingProxyType(tree)


class CompiledPolicyStore:
    """The compiled policies, read-only from the moment ``compile_policies``
    builds them.

    Every category but meta maps policy_id -> key -> an (allow, deny, taint)
    triple: access masks for a path or device, category masks under the one
    network key None, 1/0 for an ipc peer or a capability.  Each policy's
    frozen PolicyMeta holds its tables, so the metas are the store: read
    them with ``meta(pid)``.  ``count(category)`` is how many entries that
    category's map holds.
    """

    def __init__(self, metas: dict[int, PolicyMeta], counts: dict[str, int]):
        self._meta = metas
        self._ids_by_name = {meta.name: pid for pid, meta in metas.items()}
        self._counts = counts

    def count(self, category: str) -> int:
        return self._counts[category]

    def find_policy(self, name: str) -> int | None:
        return self._ids_by_name.get(name)

    def meta(self, pid: int) -> PolicyMeta | None:
        return self._meta.get(pid)


def compile_policies(
    docs: list[PolicyDocument],
    capacities: MapCapacities | None = None,
) -> CompiledPolicyStore:
    """Lower documents into a CompiledPolicyStore, in one pass.

    Lowering is lossless with respect to decision behavior: every rule lands
    in exactly one category map, with allow/deny/taint folded into one entry
    per key.  Ipc rules are stored one-directionally under the declaring
    policy; mutuality is a decision-time check so load order never matters.
    A key new to its policy's table takes one slot of its category's map,
    and each policy one slot of meta (CapacityExceeded past the limit); a
    policy whose id is already taken raises PolicyIdCollision, or
    CompileError when it is the same name loaded twice.
    """
    capacities = capacities or MapCapacities()
    counts = dict.fromkeys(MAP_CATEGORIES, 0)

    def charge(category):
        limit = getattr(capacities, category)
        if counts[category] >= limit:
            raise CapacityExceeded(category, limit)
        counts[category] += 1

    metas: dict[int, PolicyMeta] = {}
    # one object per distinct keyed triple: policies repeat a few many times
    triples: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    nodes = {}  # the prefix trees' shared nodes
    for doc in docs:
        pid = policy_id(doc.name)
        if pid in metas:
            if metas[pid].name != doc.name:
                raise PolicyIdCollision(metas[pid].name, doc.name, pid)
            raise CompileError(f"policy {doc.name!r} is already loaded")
        charge("meta")
        tables = {category: {} for category in KEYED_CATEGORIES}
        for slot, rules in enumerate((doc.allow, doc.deny, doc.taint)):
            for rule in rules:
                table = tables[rule.category]
                key = policy_id(rule.key) if rule.category == "ipc" else rule.key
                entry = table.get(key)
                if entry is None:
                    charge(rule.category)
                    entry = table[key] = [0, 0, 0]
                entry[slot] |= int(rule.access)
        t = {category: {key: triples.setdefault(entry, entry)
                        for key, entry in zip(table, map(tuple, table.values()))}
             for category, table in tables.items()}
        metas[pid] = PolicyMeta(
            doc.name, doc.default == DefaultMode.ALLOW, doc.tainted_from_start,
            files=(MappingProxyType(t["file"]) if t["file"] else None,
                   _prefix_tree(t["subdir"], t["filesystem"], nodes),
                   MappingProxyType(t["device"]) if t["device"] else None),
            network=t["network"].get(None, (0, 0, 0)),
            ipc=MappingProxyType(t["ipc"]) if t["ipc"] else _NO_RULES,
            capability=MappingProxyType(t["capability"]) if t["capability"] else _NO_RULES,
        )
    return CompiledPolicyStore(metas, counts)
