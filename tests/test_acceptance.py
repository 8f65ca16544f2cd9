"""Acceptance gate: every criterion, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v`` — each criterion prints its own
``[criterion N] PASS ...`` line (unbuffered, visible under capture).
"""

import io
import itertools
import operator
import random
import sys
import time

import pytest

from bpfcontain.compiler import MapCapacities, compile_policies
from bpfcontain.engine import Verdict, decide
from bpfcontain.errors import CapacityExceeded, ContainerTableFull
from bpfcontain.events import (
    CapabilityUse,
    CommitCreds,
    FileAccess,
    FsKind,
    HardeningKind,
    HardeningOp,
    IpcMechanism,
    IpcOp,
    PrivLevel,
    SocketOp,
    SwitchNamespaces,
)
from bpfcontain.policy import (
    AccessFlags,
    DefaultMode,
    DeviceKind,
    Rule,
    parse_access,
    parse_policy,
)
from bpfcontain.state import ContainerState
from bpfcontain.trace import Confine, TraceEvent, replay

import oracle
from conftest import MINIMAL_POLICY, TAINT_POLICY
from corpus import (
    EVENTS,
    PEER_A_DOC,
    PEER_B_DOC,
    SUBJECT_PID,
    build_world,
    enumerate_policies,
    make_policy,
    random_policy,
    synthetic_workload,
)


def _report(n: int, ok: bool, detail: str):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line


# --- 1. golden parsing -----------------------------------------------------------

def test_criterion_1_golden_parsing():
    t0 = time.perf_counter()
    rw = AccessFlags.READ | AccessFlags.WRITE
    r = AccessFlags.READ

    doc1 = parse_policy(MINIMAL_POLICY)
    assert doc1.name == "hello_minimal"
    assert doc1.entry == "/usr/bin/hello.static"
    assert doc1.entry_args == ()
    assert doc1.default == DefaultMode.DENY
    assert doc1.allow == [Rule("device", DeviceKind.TTY, rw)]
    assert doc1.deny == []
    assert doc1.taint == []
    assert doc1.tainted_from_start

    doc2 = parse_policy(TAINT_POLICY)
    assert doc2.name == "hello_taint"
    assert doc2.entry == "/usr/bin/hello.dynamic"
    assert doc2.entry_args == ()
    assert doc2.default == DefaultMode.DENY
    assert doc2.allow == [Rule("device", DeviceKind.TTY, rw)]
    assert doc2.deny == []
    assert doc2.taint == [Rule("device", DeviceKind.TTY, r)]
    assert not doc2.tainted_from_start

    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0, f"both reference policies parse field-by-field in {elapsed:.3f}s")


# --- 2. taint semantics ------------------------------------------------------------

def _hardening_class(ev) -> bool:
    if isinstance(ev, (HardeningOp, SwitchNamespaces)):
        return True
    if isinstance(ev, CommitCreds):
        return True  # escalations kill; the rest allow, either way not at stake
    if isinstance(ev, FileAccess) and ev.fs_kind == FsKind.BPFFS and (
            ev.requested & (AccessFlags.WRITE | AccessFlags.APPEND)):
        return True
    return False


def _foreign_proc_class(ev, container) -> bool:
    return (isinstance(ev, FileAccess)
            and ev.fs_kind in (FsKind.PROCFS, FsKind.SYSFS)
            and not (ev.proc_subject_pid is not None
                     and ev.proc_subject_pid in container.pid_set))


def _taint_trigger_class(ev, doc, world) -> bool:
    """Independent check: does any taint rule reach this event?

    A triggering event is judged under the tainted regime (fail-safe
    ordering), so it is not covered by the untainted exemption.
    """
    from bpfcontain.events import SocketFamily, SocketOpKind
    if isinstance(ev, FileAccess):
        return oracle.file_taint_matches(doc, ev.path, int(ev.requested))
    if isinstance(ev, SocketOp):
        if ev.family not in (SocketFamily.IPV4, SocketFamily.IPV6):
            return False
        if ev.op == SocketOpKind.CREATE:
            return False
        return bool(oracle.net_mask(doc, "taint") & oracle._OP_NEEDS[ev.op])
    if isinstance(ev, IpcOp):
        peer = world.by_pid.get(ev.peer_pid)
        me = world.by_pid.get(ev.pid)
        if peer is None or peer is me:
            return False
        return oracle.has_ipc_rule(doc, "taint", peer.doc.name)
    if isinstance(ev, CapabilityUse):
        return oracle.has_cap_rule(doc, "taint", ev.capability)
    return False


def test_criterion_2_taint_semantics():
    rng = random.Random(0x7A17)
    policies = [parse_policy(TAINT_POLICY), parse_policy(MINIMAL_POLICY)]
    policies += [random_policy(rng, force_taint=True) for _ in range(5)]
    policies += [random_policy(rng, force_taint=False) for _ in range(3)]
    policies += [random_policy(rng) for _ in range(2)]

    traces_per_policy = 1000
    checked = 0
    for doc in policies:
        store, _, _, world, _ = build_world(doc)
        for _ in range(traces_per_policy):
            # fresh confinement per trace
            state = ContainerState(store)
            container = state.confine(SUBJECT_PID, doc.name, mount_ns=100, ipc_ns=200)
            state.on_fork(SUBJECT_PID, 11)
            state.confine(20, "peer_a", ipc_ns=200)
            state.confine(30, "peer_b", ipc_ns=200)
            # (b) tainted-from-start iff the policy has no taint rules
            assert container.tainted == (not doc.taint), doc
            prev_tainted = container.tainted
            for _ in range(rng.randint(4, 16)):
                ev = rng.choice(EVENTS)
                untainted_before = not container.tainted
                triggers = untainted_before and _taint_trigger_class(ev, doc, world)
                exempt_expected = (untainted_before
                                   and not triggers
                                   and not _hardening_class(ev)
                                   and not _foreign_proc_class(ev, container))
                d = decide(ev, state)
                # (a) taint is monotone
                assert not (prev_tainted and not container.tainted), "taint reverted"
                prev_tainted = container.tainted
                # (c) untainted exemption
                if exempt_expected:
                    assert d.verdict is Verdict.ALLOW, (doc, ev, d)
                    assert not d.taint_transition
                if (untainted_before and triggers
                        and not _hardening_class(ev)
                        and not _foreign_proc_class(ev, container)):
                    assert d.taint_transition and container.tainted, (doc, ev, d)
                checked += 1
    _report(2, True,
            f"monotone taint, taint-from-start, untainted exemption over "
            f"{traces_per_policy} traces x {len(policies)} policies ({checked} decisions)")


# --- 3. deny precedence and the capability mask -------------------------------------

def _deny_rule_matches(doc, ev, container, world) -> bool:
    """Independent matcher built on the per-tier oracle helpers."""
    if isinstance(ev, FileAccess):
        return oracle.file_deny_matches(doc, ev.path, int(ev.requested))
    if isinstance(ev, SocketOp):
        from bpfcontain.events import SocketFamily, SocketOpKind
        if ev.family not in (SocketFamily.IPV4, SocketFamily.IPV6):
            return False
        deny = oracle.net_mask(doc, "deny")
        if ev.op == SocketOpKind.CREATE:
            return deny == oracle.ALL_NET
        return bool(deny & oracle._OP_NEEDS[ev.op])
    if isinstance(ev, IpcOp):
        peer = world.by_pid.get(ev.peer_pid)
        if peer is None or peer is world.by_pid.get(ev.pid):
            return False
        return (oracle.has_ipc_rule(doc, "deny", peer.doc.name)
                or oracle.has_ipc_rule(peer.doc, "deny", doc.name))
    if isinstance(ev, CapabilityUse):
        return oracle.has_cap_rule(doc, "deny", ev.capability)
    return False


def test_criterion_3_deny_precedence_and_capability_mask():
    rng = random.Random(0xDE4D)

    # deny precedence under the enforced (tainted) regime
    matched = 0
    attempts = 0
    while matched < 1000:
        attempts += 1
        doc = random_policy(rng, force_taint=False)
        store, state, container, world, cont = build_world(doc)
        assert container.tainted  # no taint rules -> enforced from the start
        for _ in range(8):
            ev = rng.choice(EVENTS)
            d = decide(ev, state)
            if _deny_rule_matches(doc, ev, container, world):
                matched += 1
                assert d.verdict is not Verdict.ALLOW, (doc, ev, d)

    # capability mask: no rule for the capability => deny, even default-allow
    cap_checked = 0
    for i in range(1000):
        doc = random_policy(rng, force_taint=False)
        cap = rng.choice(("CAP_SYS_ADMIN", "CAP_NET_BIND_SERVICE", "CAP_KILL"))
        doc.allow = [r for r in doc.allow if r != Rule("capability", cap, 1)]
        if i % 2 == 0:
            doc.default = DefaultMode.ALLOW
        store, state, container, _, _ = build_world(doc)
        d = decide(CapabilityUse(SUBJECT_PID, cap, True), state)
        assert d.verdict is Verdict.DENY, (doc, cap, d)
        cap_checked += 1

    _report(3, True,
            f"deny precedence held on {matched} matched cases "
            f"({attempts} policies); capability mask denied {cap_checked} unruled uses")


# --- 4. oracle equivalence -----------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    policies = 0
    pairs = 0
    for doc in enumerate_policies():
        policies += 1
        store, state, container, world, cont = build_world(doc)
        init = container.tainted
        for ev in EVENTS:
            d = decide(ev, state)
            engine_verdict = d.verdict.value
            engine_taint = d.taint_transition
            container.tainted = init
            overdict, otaint = oracle.oracle_decide(ev, world)
            assert engine_verdict == overdict and engine_taint == otaint, (
                doc.default, doc.allow, doc.deny, doc.taint, ev,
                (engine_verdict, engine_taint), (overdict, otaint))
            pairs += 1
        # second pass under the enforced regime for taint-carrying policies
        if not init and len(doc.allow) + len(doc.deny) + len(doc.taint) <= 2:
            container.tainted = True
            cont.tainted = True
            for ev in EVENTS:
                d = decide(ev, state)
                overdict, otaint = oracle.oracle_decide(ev, world)
                assert d.verdict.value == overdict and d.taint_transition == otaint, (
                    doc, ev, d, overdict)
                pairs += 1
    elapsed = time.perf_counter() - t0
    _report(4, elapsed < 60.0,
            f"0 mismatches over {policies} policies / {pairs} decision pairs "
            f"in {elapsed:.1f}s")


# --- 5. hardening ---------------------------------------------------------------------

def test_criterion_5_hardening():
    rng = random.Random(0x44A2)
    corpus = [parse_policy(MINIMAL_POLICY), parse_policy(TAINT_POLICY)]
    corpus += [random_policy(rng, name="probe") for _ in range(40)]
    corpus += list(itertools.islice(enumerate_policies(), 0, None, 501))

    checked = 0
    for doc in corpus:
        store = compile_policies([doc, PEER_A_DOC, PEER_B_DOC])
        state = ContainerState(store)
        container = state.confine(SUBJECT_PID, doc.name)
        for tainted in (container.tainted, True):
            container.tainted = tainted
            for op in HardeningKind:
                assert decide(HardeningOp(SUBJECT_PID, op), state
                              ).verdict is Verdict.DENY, (doc, op)
            assert decide(SwitchNamespaces(SUBJECT_PID), state
                          ).verdict is Verdict.DENY, doc
            d = decide(CommitCreds(SUBJECT_PID, PrivLevel(1000), PrivLevel(0)),
                       state)
            assert d.verdict is Verdict.KILL, doc
            checked += 1

        # killed pids are untracked from the next event on
        events = [
            TraceEvent(1, Confine(1, doc.name)),
            TraceEvent(2, CommitCreds(1, PrivLevel(1000), PrivLevel(0))),
            TraceEvent(3, FileAccess(1, "/dev/tty", parse_access("r"))),
        ]
        final, log = replay(events, ContainerState(store))
        assert final.lookup(1) is None
        assert log.records[1].decision == "Kill"
        assert log.records[2].decision == "Unconfined"
    _report(5, True,
            f"all hardening ops denied and escalation kills across "
            f"{len(corpus)} policies ({checked} taint-state passes)")


# --- 6. ipc mutual allowlist truth table ------------------------------------------------

def test_criterion_6_ipc_truth_table():
    cases = []
    for a_has in (False, True):
        for b_has in (False, True):
            for same_ns in (False, True):
                a = make_policy([(Rule("ipc", "b", 1), "allow")] if a_has else [], name="a")
                b = make_policy([(Rule("ipc", "a", 1), "allow")] if b_has else [], name="b")
                store = compile_policies([a, b])
                state = ContainerState(store)
                state.confine(1, "a", ipc_ns=10)
                state.confine(2, "b", ipc_ns=10 if same_ns else 11)
                d = decide(IpcOp(1, 2, IpcMechanism.SIGNAL), state)
                expected = Verdict.ALLOW if (a_has and b_has and same_ns) else Verdict.DENY
                assert d.verdict is expected, (a_has, b_has, same_ns, d)
                cases.append((a_has, b_has, same_ns, d.verdict))
    assert len(cases) == 8
    _report(6, True, "8/8 mutual-allowlist x namespace combinations exact")


# --- 7. tamper resistance ----------------------------------------------------------------

def test_criterion_7_tamper_resistance():
    # a compiled store has no mutation API, and nothing it holds takes an edit:
    # every table refuses an item assignment, through the proxy and through
    # dict itself, and every meta field refuses assignment (the ipc peer's
    # id fits an index: the proxy refuses a larger int key with IndexError)
    store = compile_policies([parse_policy(text) for text in (
        MINIMAL_POLICY,
        "name: all\nentry: /bin/all\nallow:\n  - file: /etc/x r\n  - subdir: /srv r\n"
        "  - fs: /tmp rw\n  - tty: rw\n  - net: client\n  - ipc: web\n"
        "  - cap: kill\n",
    )])
    # no build or seal method: the public names are the three queries
    assert {name for name in dir(store) if not name.startswith("_")} == {
        "count", "find_policy", "meta"}
    metas = [store.meta(store.find_policy(name)) for name in ("hello_minimal", "all")]
    tables = 0
    for meta in metas:
        for table in (*meta.files, meta.ipc, meta.capability):
            if table is None:
                continue
            key = next(iter(table), "/etc/shadow")
            for setitem in (operator.setitem, dict.__setitem__):
                with pytest.raises(TypeError):
                    setitem(table, key, (15, 0, 0))
            tables += 1
        for field in meta.__slots__:
            with pytest.raises(AttributeError):
                setattr(meta, field, getattr(meta, field))
    # hello_minimal's device table and empty ipc and capability tables, and all five of all's
    assert tables == 8

    # capacity overflow errors are deterministic at compile...
    rules = "\n".join(f"  - file: /f{i} r" for i in range(17))
    doc = parse_policy(f"name: big\nentry: /bin/sh\nallow:\n{rules}\n")
    errors = []
    for _ in range(2):
        with pytest.raises(CapacityExceeded) as exc:
            compile_policies([doc], MapCapacities(file=16))
        errors.append((exc.value.category, exc.value.capacity, str(exc.value)))
    assert errors[0] == errors[1] == ("file", 16, errors[0][2])

    # ...and at confine
    small = compile_policies([parse_policy(MINIMAL_POLICY)])
    state = ContainerState(small, max_containers=1)
    state.confine(1, "hello_minimal")
    for _ in range(2):
        with pytest.raises(ContainerTableFull):
            state.confine(2, "hello_minimal")
    _report(7, True, "compiled store and its tables refuse mutation; capacity overflows deterministic")


# --- 8. replay throughput ------------------------------------------------------------------

def test_criterion_8_replay_throughput():
    n = 100_000
    store, events = synthetic_workload(n)
    assert len(events) == n

    t0 = time.perf_counter()
    _, log1 = replay(events, ContainerState(store))
    elapsed = time.perf_counter() - t0

    _, log2 = replay(events, ContainerState(store))
    out1, out2 = io.StringIO(), io.StringIO()
    log1.write(out1)
    log2.write(out2)
    assert out1.getvalue() == out2.getvalue()
    assert log1.summary() == log2.summary()

    s = log1.summary()
    _report(8, elapsed < 5.0,
            f"{n} events vs 10 policies in {elapsed:.2f}s "
            f"({n / elapsed:,.0f} ev/s), deterministic output "
            f"(allows={s['allows']} denies={s['denies']} taints={s['taints']})")
