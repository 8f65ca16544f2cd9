"""Property tests: container lifecycle and taint invariants across generated
interleavings of confine, fork, exit, taint triggers and escalations."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from bpfcontain.compiler import compile_policies
from bpfcontain.core import V_KILL, V_UNCONFINED
from bpfcontain.events import CommitCreds, FileAccess, PrivLevel
from bpfcontain.policy import AccessFlags, parse_policy
from bpfcontain.state import ContainerState
from bpfcontain.trace import (
    O_CREATED,
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
            assert container.refcount == len(container.pid_set) > 0
            assert all(state.processes[pid] == container.container_id
                       for pid in container.pid_set)
        assert sum(c.refcount for c in live) == len(state.processes)
        # taint is one-way: a container once tainted stays tainted while it lives
        assert all(state.containers[cid].tainted for cid in tainted if cid in state.containers)
        tainted.update(c.container_id for c in live if c.tainted)


@settings(max_examples=300, deadline=None)
@given(interleavings)
def test_lifecycle_and_taint_invariants(evs):
    events = [TraceEvent(seq, ev) for seq, ev in enumerate(evs, start=1)]
    state = ContainerState(STORE)
    _, log = replay(_checked(events, state, set()), STORE, state,
                    audit_capacity=len(events) + 1)
    assert log.dropped == 0

    transitions = Counter(r.container_id for r in log.records if r.taint_transition)
    assert all(n == 1 for n in transitions.values())

    created = [r.container_id for r in log.records if r.outcome == O_CREATED]
    assert all(a < b for a, b in zip(created, created[1:]))

    killed_at = {}
    for record in log.records:
        if record.outcome == V_KILL:
            killed_at.setdefault(record.source.pid, record.seq)
    assert not killed_at.keys() & state.processes.keys()
    for record in log.records:
        ev = record.source
        mediated = isinstance(ev, (FileAccess, CommitCreds))
        if mediated and record.seq > killed_at.get(ev.pid, record.seq):
            assert record.outcome == V_UNCONFINED
            assert record.container_id is None
            assert record.reason == KILLED_EARLIER
