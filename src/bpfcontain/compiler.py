"""Lower policy documents into per-category, fixed-capacity decision maps.

The compiled store mirrors a kernel-map architecture: one bounded map per
rule category, keyed by 64-bit policy id, populated once at load and then
sealed read-only for the lifetime of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    name: str
    default_allow: bool
    tainted_from_start: bool
    entry: str


# Flag bits for ipc/capability map values.
F_ALLOW = 1
F_DENY = 2
F_TAINT = 4

# rule list -> its flag bit
_LIST_FLAGS = {"allow": F_ALLOW, "deny": F_DENY, "taint": F_TAINT}


class CompiledPolicyStore:
    """Per-category decision maps with fixed capacities and a one-way seal.

    Path-keyed categories map (policy_id, path) to an (allow, deny, taint)
    access-mask triple; network maps policy_id to category-mask triples;
    ipc and capability map to allow/deny/taint flag bits.  Mutation after
    ``seal()`` raises StoreSealed — the read-only-after-load analog.
    """

    def __init__(self, capacities: MapCapacities | None = None):
        self.capacities = capacities or MapCapacities()
        self._sealed = False
        # category -> policy_id -> key -> (allow, deny, taint)
        self._path_maps: dict[str, dict[int, dict[str, tuple[int, int, int]]]] = {
            "file": {}, "subdir": {}, "filesystem": {}, "device": {},
        }
        # policy_id -> components of its deepest subdir or filesystem key
        self._tops: dict[int, int] = {}
        self._network: dict[int, tuple[int, int, int]] = {}
        self._ipc: dict[tuple[int, int], int] = {}
        self._capability: dict[tuple[int, str], int] = {}
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
            self._meta[pid] = meta
            return
        self._charge("meta", True)
        self._meta[pid] = meta
        self._ids_by_name[meta.name] = pid

    def merge_path_rule(self, category: str, pid: int, key, allow=0, deny=0, taint=0):
        """Union the given masks into the (policy, key) entry, creating it if new."""
        self._check_mutable()
        per_policy = self._path_maps[category].setdefault(pid, {})
        old = per_policy.get(key)
        self._charge(category, old is None)
        a, d, t = old or (0, 0, 0)
        per_policy[key] = (a | int(allow), d | int(deny), t | int(taint))
        if category == "subdir" or category == "filesystem":
            depth = key.count("/") if key != "/" else 0
            if depth > self._tops.get(pid, 0):
                self._tops[pid] = depth

    def merge_network_rule(self, pid: int, allow=0, deny=0, taint=0):
        self._check_mutable()
        old = self._network.get(pid)
        self._charge("network", old is None)
        a, d, t = old or (0, 0, 0)
        self._network[pid] = (a | int(allow), d | int(deny), t | int(taint))

    def merge_ipc_rule(self, pid: int, peer_pid: int, flags: int):
        self._check_mutable()
        key = (pid, peer_pid)
        old = self._ipc.get(key)
        self._charge("ipc", old is None)
        self._ipc[key] = (old or 0) | flags

    def merge_capability_rule(self, pid: int, capability: str, flags: int):
        self._check_mutable()
        key = (pid, capability)
        old = self._capability.get(key)
        self._charge("capability", old is None)
        self._capability[key] = (old or 0) | flags

    def seal(self) -> "CompiledPolicyStore":
        """Freeze the store; idempotent, and lookups remain available."""
        self._sealed = True
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

    def path_entry(self, category: str, pid: int, key) -> tuple[int, int, int] | None:
        per_policy = self._path_maps[category].get(pid)
        return per_policy.get(key) if per_policy else None

    def network_entry(self, pid: int) -> tuple[int, int, int]:
        return self._network.get(pid, (0, 0, 0))

    def ipc_entry(self, pid: int, peer_pid: int) -> int:
        return self._ipc.get((pid, peer_pid), 0)

    def capability_entry(self, pid: int, capability: str) -> int:
        return self._capability.get((pid, capability), 0)

    # Read-only views (the mutation API above is the only sanctioned writer).
    @property
    def device_rules(self):
        return MappingProxyType({
            pid: MappingProxyType(entries) for pid, entries in self._path_maps["device"].items()
        })

    @property
    def network_rules(self):
        return MappingProxyType(self._network)

    # Internal tables handed to the decision kernels (hot path; do not mutate).
    def kernel_tables(self, pid: int):
        """The policy's file, subdir, filesystem and device tables (each None
        if it has no such rule), then ``top``: the number of components in
        its deepest subdir or filesystem key, ``/`` counting 0, and 0 if it
        has neither kind.  The file kernel walks no ancestor deeper than
        ``top``."""
        return (
            self._path_maps["file"].get(pid),
            self._path_maps["subdir"].get(pid),
            self._path_maps["filesystem"].get(pid),
            self._path_maps["device"].get(pid),
            self._tops.get(pid, 0),
        )


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
                if isinstance(rule, FileRule):
                    store.merge_path_rule("file", pid, rule.path, **{which: int(rule.access)})
                elif isinstance(rule, SubdirRule):
                    store.merge_path_rule("subdir", pid, rule.path, **{which: int(rule.access)})
                elif isinstance(rule, FilesystemRule):
                    store.merge_path_rule(
                        "filesystem", pid, rule.mountpoint, **{which: int(rule.access)})
                elif isinstance(rule, DeviceRule):
                    store.merge_path_rule(
                        "device", pid, int(rule.kind), **{which: int(rule.access)})
                elif isinstance(rule, TtyRule):
                    # tty rules are sugar for the tty device class
                    store.merge_path_rule(
                        "device", pid, int(DeviceKind.TTY), **{which: int(rule.access)})
                elif isinstance(rule, NetworkRule):
                    store.merge_network_rule(pid, **{which: int(rule.categories)})
                elif isinstance(rule, IpcRule):
                    peer = policy_id(rule.other_policy_name)
                    store.merge_ipc_rule(pid, peer, _LIST_FLAGS[which])
                elif isinstance(rule, CapabilityRule):
                    store.merge_capability_rule(pid, rule.capability_name, _LIST_FLAGS[which])
                else:  # pragma: no cover - parser produces only the kinds above
                    raise TypeError(f"unhandled rule type: {rule!r}")
    return store.seal()
