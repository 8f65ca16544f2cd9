"""Container and process lifecycle tracking.

The analog of the processes and containers maps plus the scheduler
fork/exit probes and the confine call: containers are created by confine,
grow and shrink with fork/exit, and disappear when their last pid exits.
Mutations are serialized per engine instance (single writer).
"""

from __future__ import annotations

import itertools

from .compiler import CompiledPolicyStore, PolicyMeta
from .errors import (
    AlreadyConfined,
    ContainerTableFull,
    DuplicatePid,
    StateError,
    UnknownPolicy,
)
from .policy import Value

DEFAULT_CONTAINER_CAPACITY = 1024


class Container(Value):
    __slots__ = ("container_id", "meta", "tainted", "mount_ns", "ipc_ns", "pid_set")

    def __init__(self, container_id: int, meta: PolicyMeta, tainted: bool,
                 mount_ns: int = 0, ipc_ns: int = 0, pid_set: set[int] | None = None):
        self.container_id = container_id
        self.meta = meta
        self.tainted = tainted
        self.mount_ns = mount_ns
        self.ipc_ns = ipc_ns
        self.pid_set = set() if pid_set is None else pid_set


class ContainerState:
    """One run's world: a compiled store, the pids in each container, and the killed pids.

    ``confine`` reads a policy's PolicyMeta from ``store`` once and the
    container holds it, so ``decide`` and ``replay`` read each event's
    policy with no store lookup; the store has no mutation API, so the
    container's meta is the store's.  Container
    ids are a monotonically increasing 64-bit counter, never recycled within
    a run.  The containers table has a fixed capacity; confine fails rather
    than evicting when it is full.  ``confine`` and ``on_fork`` refuse a
    pid in ``killed``, and ``decide`` names its events as killed earlier.
    """

    def __init__(self, store: CompiledPolicyStore,
                 max_containers: int = DEFAULT_CONTAINER_CAPACITY):
        if max_containers <= 0:
            raise ValueError("max_containers must be positive")
        self.store = store
        self.max_containers = max_containers
        self.containers: dict[int, Container] = {}
        self.processes: dict[int, Container] = {}
        self.killed: set[int] = set()
        self._ids = itertools.count(1)

    def lookup(self, pid: int) -> Container | None:
        return self.processes.get(pid)

    def confine(self, pid: int, policy_name: str,
                mount_ns: int = 0, ipc_ns: int = 0) -> Container:
        """Place pid into a fresh container running under policy_name.

        Re-confinement is refused outright: allowing it would let a confined
        process swap itself under a weaker policy.
        """
        if pid in self.killed:
            raise StateError("confine refused: pid was killed earlier in trace")
        if pid in self.processes:
            raise AlreadyConfined(pid)
        meta = self.store.meta(policy_name)
        if meta is None:
            raise UnknownPolicy(policy_name)
        if len(self.containers) >= self.max_containers:
            raise ContainerTableFull(self.max_containers)
        container = Container(
            container_id=next(self._ids),
            meta=meta,
            tainted=meta.tainted_from_start,
            mount_ns=mount_ns,
            ipc_ns=ipc_ns,
            pid_set={pid},
        )
        self.containers[container.container_id] = container
        self.processes[pid] = container
        return container

    def on_fork(self, parent_pid: int, child_pid: int) -> Container | None:
        """Child joins the parent's container; forks by unconfined pids are ignored."""
        if child_pid in self.killed:
            raise StateError("fork refused: child pid was killed earlier in trace")
        if child_pid in self.processes:
            raise DuplicatePid(child_pid)
        container = self.processes.get(parent_pid)
        if container is None:
            return None
        container.pid_set.add(child_pid)
        self.processes[child_pid] = container
        return container

    def on_exit(self, pid: int) -> Container | None:
        """Drop pid; returns the container if this exit removed it, else None."""
        container = self.processes.pop(pid, None)
        if container is None:
            return None
        container.pid_set.discard(pid)
        if not container.pid_set:
            del self.containers[container.container_id]
            return container
        return None

    def kill(self, pid: int) -> None:
        """Retire pid for the run: its exit is implied, and it never rejoins a container."""
        self.on_exit(pid)
        self.killed.add(pid)

    def taint(self, container: Container) -> None:
        """One-way: tainted never reverts.  Idempotent."""
        container.tainted = True
