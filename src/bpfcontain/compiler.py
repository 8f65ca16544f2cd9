"""Lower policy documents into per-category, fixed-capacity decision maps.

The compiled store mirrors a kernel-map architecture: one bounded map per
rule category, keyed by 64-bit policy id, populated once at load and then
sealed read-only for the lifetime of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType

from .errors import CapacityExceeded, EmptyName, PolicyIdCollision, StoreSealed
from .policy import (
    CapabilityRule,
    DefaultMode,
    DeviceKind,
    DeviceRule,
    FileRule,
    FilesystemRule,
    IpcRule,
    NetworkRule,
    PolicyDocument,
    SubdirRule,
    TtyRule,
)

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


@dataclass(frozen=True)
class MapCapacities:
    file: int = DEFAULT_MAP_CAPACITY
    subdir: int = DEFAULT_MAP_CAPACITY
    filesystem: int = DEFAULT_MAP_CAPACITY
    device: int = DEFAULT_MAP_CAPACITY
    network: int = DEFAULT_MAP_CAPACITY
    ipc: int = DEFAULT_MAP_CAPACITY
    capability: int = DEFAULT_MAP_CAPACITY
    meta: int = DEFAULT_MAP_CAPACITY

    def __post_init__(self):
        for name in MAP_CATEGORIES:
            if getattr(self, name) <= 0:
                raise ValueError(f"capacity for {name!r} must be positive")


@dataclass(frozen=True)
class PolicyMeta:
    """A policy's header and, once its store is sealed, its tables.

    ``seal()`` fills the tables (hot path; do not mutate them): ``files`` is
    ``(file_t, subdir_t, fs_t, dev_t, top)``, each table None if the policy
    has no such rule and ``top`` the number of components in its deepest
    subdir or filesystem key (``/`` counting 0, and 0 if it has neither
    kind); ``network`` is its category-mask triple; ``ipc`` and
    ``capability`` map a peer policy id or a capability name to its triple.
    """

    name: str
    default_allow: bool
    tainted_from_start: bool
    entry: str
    files: tuple | None = None
    network: tuple[int, int, int] | None = None
    ipc: dict | None = None
    capability: dict | None = None


# the categories keyed below the policy: policy_id -> key -> (allow, deny, taint)
KEYED_CATEGORIES = ("file", "subdir", "filesystem", "device", "ipc", "capability")


class CompiledPolicyStore:
    """Per-category decision maps with fixed capacities and a one-way seal.

    Every keyed category maps policy_id -> key -> an (allow, deny, taint)
    triple: access masks for a path or device, 1/0 for an ipc peer or a
    capability.  Network maps policy_id to one category-mask triple.
    Mutation after ``seal()`` raises StoreSealed — the read-only-after-load
    analog.
    """

    def __init__(self, capacities: MapCapacities | None = None):
        self.capacities = capacities or MapCapacities()
        self._sealed = False
        self._maps: dict[str, dict[int, dict[object, tuple[int, int, int]]]] = {
            category: {} for category in KEYED_CATEGORIES
        }
        self._network: dict[int, tuple[int, int, int]] = {}
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
        # decide() takes a meta with tables for a sealed store's; only seal()
        # gives a meta its tables
        if any(table is not None
               for table in (meta.files, meta.network, meta.ipc, meta.capability)):
            raise ValueError(f"policy {meta.name!r}: a meta gets its tables from seal()")
        if pid in self._meta:
            if self._meta[pid].name != meta.name:
                raise PolicyIdCollision(self._meta[pid].name, meta.name, pid)
            self._meta[pid] = meta
            return
        self._charge("meta", True)
        self._meta[pid] = meta
        self._ids_by_name[meta.name] = pid

    def merge_rule(self, category: str, pid: int, key, allow=0, deny=0, taint=0):
        """Union the given masks into the (policy, key) entry, creating it if new."""
        self._check_mutable()
        per_policy = self._maps[category].setdefault(pid, {})
        old = per_policy.get(key)
        self._charge(category, old is None)
        a, d, t = old or (0, 0, 0)
        entry = (a | int(allow), d | int(deny), t | int(taint))
        per_policy[key] = self._triples.setdefault(entry, entry)

    def merge_network_rule(self, pid: int, allow=0, deny=0, taint=0):
        self._check_mutable()
        old = self._network.get(pid)
        self._charge("network", old is None)
        a, d, t = old or (0, 0, 0)
        self._network[pid] = (a | int(allow), d | int(deny), t | int(taint))

    def seal(self) -> "CompiledPolicyStore":
        """Freeze the store and give each policy's meta its tables; idempotent,
        and lookups remain available."""
        self._sealed = True
        maps = self._maps
        for pid, meta in self._meta.items():
            subdir_t, fs_t = maps["subdir"].get(pid), maps["filesystem"].get(pid)
            top = max((key.count("/") if key != "/" else 0
                       for table in (subdir_t, fs_t) if table for key in table), default=0)
            self._meta[pid] = replace(
                meta,
                files=(maps["file"].get(pid), subdir_t, fs_t, maps["device"].get(pid), top),
                network=self._network.get(pid, (0, 0, 0)),
                ipc=maps["ipc"].get(pid, {}),
                capability=maps["capability"].get(pid, {}),
            )
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

    def policy_names(self) -> list[str]:
        return sorted(self._ids_by_name)

    def entry(self, category: str, pid: int, key) -> tuple[int, int, int] | None:
        per_policy = self._maps[category].get(pid)
        return per_policy.get(key) if per_policy else None

    # Read-only views (the mutation API above is the only sanctioned writer).
    @property
    def device_rules(self):
        return MappingProxyType({
            pid: MappingProxyType(entries) for pid, entries in self._maps["device"].items()
        })

    @property
    def network_rules(self):
        return MappingProxyType(self._network)


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
                if isinstance(rule, NetworkRule):
                    store.merge_network_rule(pid, **{which: int(rule.categories)})
                    continue
                if isinstance(rule, FileRule):
                    category, key, mask = "file", rule.path, rule.access
                elif isinstance(rule, SubdirRule):
                    category, key, mask = "subdir", rule.path, rule.access
                elif isinstance(rule, FilesystemRule):
                    category, key, mask = "filesystem", rule.mountpoint, rule.access
                elif isinstance(rule, DeviceRule):
                    category, key, mask = "device", int(rule.kind), rule.access
                elif isinstance(rule, TtyRule):
                    # tty rules are sugar for the tty device class
                    category, key, mask = "device", int(DeviceKind.TTY), rule.access
                elif isinstance(rule, IpcRule):
                    category, key, mask = "ipc", policy_id(rule.other_policy_name), 1
                elif isinstance(rule, CapabilityRule):
                    category, key, mask = "capability", rule.capability_name, 1
                else:  # pragma: no cover - parser produces only the kinds above
                    raise TypeError(f"unhandled rule type: {rule!r}")
                store.merge_rule(category, pid, key, **{which: int(mask)})
    return store.seal()
