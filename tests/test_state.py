"""Container lifecycle: confine, fork, exit, taint."""

import random

import pytest

from bpfcontain.errors import (
    AlreadyConfined,
    ContainerTableFull,
    DuplicatePid,
    StateError,
    UnknownPolicy,
)
from bpfcontain.state import ContainerState


def test_confine_minimal_is_tainted_from_start(example_state):
    c = example_state.confine(100, "hello_minimal")
    assert c.tainted
    assert c.pid_set == {100}
    assert c.meta is example_state.store.meta("hello_minimal")


def test_confine_taint_policy_starts_untainted(example_state):
    c = example_state.confine(100, "hello_taint")
    assert not c.tainted
    assert c.meta is example_state.store.meta("hello_taint")


def test_reconfinement_is_denied(example_state):
    example_state.confine(100, "hello_minimal")
    with pytest.raises(AlreadyConfined):
        example_state.confine(100, "hello_taint")


def test_confine_unknown_policy(example_state):
    with pytest.raises(UnknownPolicy, match="^no loaded policy named 'nope'$"):
        example_state.confine(100, "nope")


def test_container_table_full(example_store):
    state = ContainerState(example_store, max_containers=2)
    state.confine(1, "hello_minimal")
    state.confine(2, "hello_minimal")
    with pytest.raises(ContainerTableFull):
        state.confine(3, "hello_minimal")
    # an exit frees capacity
    state.on_exit(1)
    state.confine(3, "hello_minimal")


def test_fork_joins_child(example_state):
    c = example_state.confine(100, "hello_minimal")
    example_state.on_fork(100, 101)
    assert c.pid_set == {100, 101}
    assert example_state.lookup(101) is c


def test_fork_by_unconfined_parent_is_noop(example_state):
    assert example_state.on_fork(100, 101) is None
    assert example_state.lookup(101) is None


def test_fork_duplicate_pid(example_state):
    example_state.confine(100, "hello_minimal")
    example_state.on_fork(100, 101)
    with pytest.raises(DuplicatePid):
        example_state.on_fork(100, 101)


def test_fork_chain_depth_three_gives_refcount_four(example_state):
    # derived by simulating three sequential forks
    c = example_state.confine(1, "hello_minimal")
    example_state.on_fork(1, 2)
    example_state.on_fork(2, 3)
    example_state.on_fork(3, 4)
    assert c.pid_set == {1, 2, 3, 4}


def test_exit_removes_container_at_zero(example_state):
    c = example_state.confine(100, "hello_minimal")
    removed = example_state.on_exit(100)
    assert removed is c
    assert example_state.containers == {}
    assert example_state.lookup(100) is None


def test_exit_keeps_container_while_members_remain(example_state):
    c = example_state.confine(100, "hello_minimal")
    example_state.on_fork(100, 101)
    assert example_state.on_exit(100) is None
    assert c.pid_set == {101}


def test_exit_of_untracked_pid_is_noop(example_state):
    assert example_state.on_exit(12345) is None


def test_kill_removes_the_container_with_its_last_pid(example_state):
    c = example_state.confine(100, "hello_minimal")
    example_state.on_fork(100, 101)
    example_state.kill(100)
    assert example_state.lookup(100) is None
    assert c.pid_set == {101}
    assert example_state.containers == {c.container_id: c}
    example_state.kill(101)
    assert example_state.containers == {}
    assert example_state.processes == {}
    assert example_state.killed == {100, 101}


def test_a_killed_pid_can_be_neither_confined_nor_forked_into(example_state):
    example_state.confine(100, "hello_minimal")
    example_state.kill(100)
    example_state.confine(200, "hello_minimal")
    with pytest.raises(StateError) as exc:
        example_state.confine(100, "hello_taint")
    assert type(exc.value) is StateError
    assert str(exc.value) == "confine refused: pid was killed earlier in trace"
    with pytest.raises(StateError) as exc:
        example_state.on_fork(200, 100)
    assert type(exc.value) is StateError
    assert str(exc.value) == "fork refused: child pid was killed earlier in trace"
    # the refusals leave the world as it was
    assert set(example_state.processes) == {200}
    assert len(example_state.containers) == 1
    # a killed pid that forks is unconfined: its child joins nothing
    assert example_state.on_fork(100, 300) is None
    assert example_state.lookup(300) is None


def test_kill_of_an_untracked_pid_still_retires_it(example_state):
    example_state.kill(7)
    assert example_state.killed == {7}
    with pytest.raises(StateError, match="^confine refused: pid was killed earlier in trace$"):
        example_state.confine(7, "hello_minimal")


def test_taint_is_one_way_and_idempotent(example_state):
    c = example_state.confine(100, "hello_taint")
    assert not c.tainted
    example_state.taint(c)
    assert c.tainted
    example_state.taint(c)
    assert c.tainted


def test_container_ids_are_never_recycled(example_state):
    a = example_state.confine(1, "hello_minimal")
    example_state.on_exit(1)
    b = example_state.confine(1, "hello_minimal")
    assert b.container_id > a.container_id


def test_refcount_matches_membership_under_random_ops(example_store):
    rng = random.Random(0xC0FFEE)
    state = ContainerState(example_store)
    next_pid = 1
    live: list[int] = []
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.3 or not live:
            try:
                state.confine(next_pid, rng.choice(["hello_minimal", "hello_taint"]))
                live.append(next_pid)
                next_pid += 1
            except ContainerTableFull:
                pass
        elif roll < 0.7:
            parent = rng.choice(live)
            state.on_fork(parent, next_pid)
            live.append(next_pid)
            next_pid += 1
        else:
            pid = live.pop(rng.randrange(len(live)))
            state.on_exit(pid)
        pid_sets = [c.pid_set for c in state.containers.values()]
        assert all(pid_sets)
        assert sum(map(len, pid_sets)) == len(live)
        assert set().union(*pid_sets) == set(live)
