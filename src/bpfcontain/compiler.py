"""Lower policy documents into per-category, fixed-capacity decision maps.

The compiled store mirrors a kernel-map architecture: one bounded map per
rule category, keyed by 64-bit policy id, populated once at load and then
sealed read-only for the lifetime of the engine.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import CapacityExceeded, CompileError, EmptyName, PolicyIdCollision, StoreSealed
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
    """A policy's header and, once its store is sealed, its tables.

    ``seal()`` fills the tables: ``files`` is ``(file_t, subdir_t, fs_t,
    dev_t, top)``, each table None if the policy has no such rule and ``top``
    the number of components in its deepest subdir or filesystem key (``/``
    counting 0, and 0 if it has neither kind); ``network`` is its
    category-mask triple; ``ipc`` and ``capability`` map a peer policy id or
    a capability name to its triple.  Every table is a read-only
    MappingProxyType and the only copy of its rules: it refuses every edit
    with TypeError, or IndexError for an item edit under an ipc key past the
    index range.
    """

    __slots__ = ("name", "default_allow", "tainted_from_start", "entry",
                 "files", "network", "ipc", "capability")

    def __init__(self, name: str, default_allow: bool, tainted_from_start: bool, entry: str,
                 files: tuple | None = None, network: tuple[int, int, int] | None = None,
                 ipc: dict | None = None, capability: dict | None = None):
        self._init(name, default_allow, tainted_from_start, entry,
                   files, network, ipc, capability)


# the categories keyed below the policy: policy_id -> key -> (allow, deny, taint)
KEYED_CATEGORIES = tuple(category for category in MAP_CATEGORIES if category != "meta")
# the ipc, capability or network table of a sealed policy without such rules
_NO_RULES = MappingProxyType({})


class CompiledPolicyStore:
    """Per-category decision maps with fixed capacities and a one-way seal.

    Every category but meta maps policy_id -> key -> an (allow, deny, taint)
    triple: access masks for a path or device, category masks under the one
    network key None, 1/0 for an ipc peer or a capability.
    ``seal()`` hands each policy's meta its tables and drops the build
    state, so the metas are the sealed store: read them with ``meta(pid)``.
    Mutation after ``seal()`` raises StoreSealed — the read-only-after-load
    analog.
    """

    def __init__(self, capacities: MapCapacities | None = None):
        self.capacities = capacities or MapCapacities()
        self._sealed = False
        self._keyed: dict[str, dict[int, dict[object, tuple[int, int, int]]]] = {
            category: {} for category in KEYED_CATEGORIES
        }
        # one object per distinct keyed triple: policies repeat a few many times
        self._triples: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        self._meta: dict[int, PolicyMeta] = {}
        self._ids_by_name: dict[str, int] = {}
        self._counts = {name: 0 for name in MAP_CATEGORIES}

    # -- loading -------------------------------------------------------------

    def _check_mutable(self):
        if self._sealed:
            raise StoreSealed("policy store is sealed")

    def _charge(self, category: str, new_entry: bool):
        if not new_entry:
            return
        limit = getattr(self.capacities, category)
        if self._counts[category] + 1 > limit:
            raise CapacityExceeded(category, limit)
        self._counts[category] += 1

    def put_meta(self, pid: int, meta: PolicyMeta):
        self._check_mutable()
        if pid in self._meta:
            if self._meta[pid].name != meta.name:
                raise PolicyIdCollision(self._meta[pid].name, meta.name, pid)
            raise CompileError(f"policy {meta.name!r} is already loaded")
        self._charge("meta", True)
        self._meta[pid] = meta
        self._ids_by_name[meta.name] = pid

    def merge_rule(self, category: str, pid: int, key, allow=0, deny=0, taint=0):
        """Union the given masks into the (policy, key) entry, creating it if new."""
        self._check_mutable()
        per_policy = self._keyed[category].setdefault(pid, {})
        old = per_policy.get(key)
        self._charge(category, old is None)
        a, d, t = old or (0, 0, 0)
        entry = (a | int(allow), d | int(deny), t | int(taint))
        per_policy[key] = self._triples.setdefault(entry, entry)

    def seal(self) -> "CompiledPolicyStore":
        """Freeze the store, give each policy's meta its read-only tables and
        drop the build state; sealing again does nothing."""
        if self._sealed:
            return self
        self._sealed = True
        maps = {category: {pid: MappingProxyType(table) for pid, table in per_policy.items()}
                for category, per_policy in self._keyed.items()}
        for pid, meta in self._meta.items():
            subdir_t, fs_t = maps["subdir"].get(pid), maps["filesystem"].get(pid)
            top = max((key.count("/") if key != "/" else 0
                       for table in (subdir_t, fs_t) if table for key in table), default=0)
            self._meta[pid] = PolicyMeta(
                meta.name, meta.default_allow, meta.tainted_from_start, meta.entry,
                files=(maps["file"].get(pid), subdir_t, fs_t, maps["device"].get(pid), top),
                network=maps["network"].get(pid, _NO_RULES).get(None, (0, 0, 0)),
                ipc=maps["ipc"].get(pid, _NO_RULES),
                capability=maps["capability"].get(pid, _NO_RULES),
            )
        del self._keyed, self._triples
        return self

    # -- queries ---------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

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
    """Lower documents into a sealed CompiledPolicyStore.

    Lowering is lossless with respect to decision behavior: every rule lands
    in exactly one category map, with allow/deny/taint folded into one entry
    per key.  Ipc rules are stored one-directionally under the declaring
    policy; mutuality is a decision-time check so load order never matters.
    """
    store = CompiledPolicyStore(capacities)
    for doc in docs:
        pid = policy_id(doc.name)
        store.put_meta(pid, PolicyMeta(
            name=doc.name,
            default_allow=doc.default == DefaultMode.ALLOW,
            tainted_from_start=doc.tainted_from_start,
            entry=doc.entry,
        ))
        for which, rules in (("allow", doc.allow), ("deny", doc.deny), ("taint", doc.taint)):
            for rule in rules:
                key = policy_id(rule.key) if rule.category == "ipc" else rule.key
                store.merge_rule(rule.category, pid, key, **{which: rule.access})
    return store.seal()
