"""Property tests: container lifecycle and taint invariants across generated
interleavings of confine, fork, exit, taint triggers and escalations."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from bpfcontain.compiler import compile_policies
from bpfcontain.core import V_KILL, V_UNCONFINED
from bpfcontain.errors import OutOfOrderTrace
from bpfcontain.events import CommitCreds, FileAccess, PrivLevel
from bpfcontain.policy import AccessFlags, parse_policy
from bpfcontain.state import ContainerState
from bpfcontain.trace import (
    O_CREATED,
    AuditLog,
    Confine,
    Exit,
    Fork,
    TraceEvent,
    replay,
)

from conftest import MINIMAL_POLICY, TAINT_POLICY

STORE = compile_policies([parse_policy(MINIMAL_POLICY), parse_policy(TAINT_POLICY)])
USER = PrivLevel(uid=1000, capability_set=frozenset())
ROOT = PrivLevel(uid=0, capability_set=frozenset())
KILLED_EARLIER = "warning: event from pid killed earlier in trace"

# a small pid pool, so forks, exits and kills keep hitting live containers
pids = st.integers(min_value=1, max_value=5)
interleavings = st.lists(st.one_of(
    st.builds(Confine, pids, st.sampled_from(["hello_minimal", "hello_taint"])),
    st.builds(Fork, pids, pids),
    st.builds(Exit, pids),
    # reading a tty is hello_taint's taint trigger; hello_minimal just allows it
    st.builds(lambda pid: FileAccess(pid, "/dev/tty", AccessFlags.READ), pids),
    # gaining uid 0 is an escalation, which kills the pid
    st.builds(lambda pid: CommitCreds(pid, USER, ROOT), pids),
), max_size=40)


def _checked(events, state, tainted):
    """Yield the trace to replay, checking the state after each event."""
    for te in events:
        yield te
        live = state.containers.values()
        for container in live:
            assert container.pid_set
            assert all(state.processes[pid] is container for pid in container.pid_set)
        assert sum(len(c.pid_set) for c in live) == len(state.processes)
        # a killed pid never rejoins a container
        assert not state.killed & state.processes.keys()
        # taint is one-way: a container once tainted stays tainted while it lives
        assert all(state.containers[cid].tainted for cid in tainted if cid in state.containers)
        tainted.update(c.container_id for c in live if c.tainted)


@settings(max_examples=300, deadline=None)
@given(interleavings)
# a killed pid, then a confine of it and a fork into it by a live parent:
# the generator seldom draws this order
@example([Confine(1, "hello_minimal"), Confine(2, "hello_minimal"),
          CommitCreds(2, USER, ROOT), Fork(1, 2), Confine(2, "hello_taint")])
def test_lifecycle_and_taint_invariants(evs):
    events = [TraceEvent(seq, ev) for seq, ev in enumerate(evs, start=1)]
    state = ContainerState(STORE)
    _, log = replay(_checked(events, state, set()), state, AuditLog(len(events) + 1))
    assert log.dropped == 0

    transitions = Counter(r.container_id for r in log.records if r.taint_transition)
    assert all(n == 1 for n in transitions.values())

    created = [r.container_id for r in log.records if r.outcome == O_CREATED]
    assert all(a < b for a, b in zip(created, created[1:]))

    killed_at = {}
    for record in log.records:
        if record.outcome == V_KILL:
            killed_at.setdefault(record.source.pid, record.seq)
    # the state remembers exactly the pids killed
    assert state.killed == killed_at.keys()
    for record in log.records:
        ev = record.source
        mediated = isinstance(ev, (FileAccess, CommitCreds))
        if mediated and record.seq > killed_at.get(ev.pid, record.seq):
            assert record.outcome == V_UNCONFINED
            assert record.container_id is None
            assert record.reason == KILLED_EARLIER


@settings(max_examples=300, deadline=None)
@given(interleavings, st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=40))
# past the capacity: one call keeps 3 records and drops 3, and so must two parts
@example([Confine(1, "hello_minimal")] + [FileAccess(1, "/dev/tty", AccessFlags.READ)] * 5,
         3, 3, 0)
def test_a_trace_replayed_in_two_parts_audits_as_in_one(evs, k, capacity, back):
    # replay keeps nothing of its own: the lifecycle is in the state, and the
    # records, the counts and the seq cursor are in the log
    events = [TraceEvent(seq, ev) for seq, ev in enumerate(evs, start=1)]
    _, whole = replay(events, ContainerState(STORE), AuditLog(capacity))
    state, log = ContainerState(STORE), AuditLog(capacity)
    replay(events[:k], state, log)
    if log.last_seq is not None:
        # a part must start after the last seq replayed; refused, it changes nothing
        with pytest.raises(OutOfOrderTrace):
            replay(events[back % log.last_seq:], state, log)
    replay(events[k:], state, log)
    assert [r.to_json() for r in log.records] == [r.to_json() for r in whole.records]
    assert log.dropped == whole.dropped
    assert log.outcomes == whole.outcomes
    assert log.events == whole.events == len(events)
    assert log.summary() == whole.summary()
