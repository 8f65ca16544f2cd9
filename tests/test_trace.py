"""Trace parsing, replay semantics, and audit determinism."""

import inspect
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from bpfcontain.errors import MalformedEvent, OutOfOrderTrace, TraceError
from bpfcontain.events import (
    CapabilityUse,
    CommitCreds,
    FileAccess,
    FsKind,
    HardeningKind,
    HardeningOp,
    HookEvent,
    IpcMechanism,
    IpcOp,
    PrivLevel,
    SocketFamily,
    SocketOp,
    SocketOpKind,
    SwitchNamespaces,
)
from bpfcontain.policy import CAPABILITIES, AccessFlags, parse_access
from bpfcontain.state import ContainerState
from bpfcontain.trace import (
    _PARSERS,
    AuditLog,
    Confine,
    Exit,
    Fork,
    LifecycleEvent,
    TraceEvent,
    event_to_object,
    iter_trace,
    parse_trace,
    parse_trace_object,
    replay,
    write_trace,
)


def _lines(*objs):
    return [json.dumps(o) for o in ({"format": 1},) + objs]


def test_minimal_policy_trace(example_store):
    events = [
        TraceEvent(1, Confine(1, "hello_minimal")),
        TraceEvent(2, FileAccess(1, "/dev/tty", parse_access("rw"))),
    ]
    state, log = replay(events, ContainerState(example_store))
    assert [r.decision for r in log.records] == ["Created", "Allow"]
    assert log.summary() == {"events": 2, "allows": 1, "denies": 0,
                             "kills": 0, "taints": 0, "dropped": 0}


def test_taint_policy_trace(example_store):
    events = [
        TraceEvent(1, Confine(1, "hello_taint")),
        TraceEvent(2, FileAccess(1, "/dev/tty", parse_access("r"))),
        TraceEvent(3, HardeningOp(1, HardeningKind.BPF_SYSCALL)),
    ]
    state, log = replay(events, ContainerState(example_store))
    assert [r.decision for r in log.records] == ["Created", "Allow", "Deny"]
    assert log.records[1].taint_transition
    assert log.summary() == {"events": 3, "allows": 1, "denies": 1,
                             "kills": 0, "taints": 1, "dropped": 0}


def test_lifecycle_refcounting_trace(example_store):
    events = [
        TraceEvent(1, Confine(1, "hello_minimal")),
        TraceEvent(2, Fork(1, 2)),
        TraceEvent(3, Exit(1)),
        TraceEvent(4, Exit(2)),
    ]
    state, log = replay(events, ContainerState(example_store))
    assert state.containers == {}
    assert state.processes == {}
    # fork and the first exit are silent; creation and removal are audited
    assert [r.decision for r in log.records] == ["Created", "Removed"]


def test_kill_retires_the_pid(example_store):
    events = [
        TraceEvent(1, Confine(1, "hello_minimal")),
        TraceEvent(2, CommitCreds(1, PrivLevel(1000), PrivLevel(0))),
        TraceEvent(3, FileAccess(1, "/dev/tty", parse_access("r"))),
        TraceEvent(4, Confine(1, "hello_minimal")),
    ]
    state, log = replay(events, ContainerState(example_store))
    assert state.lookup(1) is None
    assert state.killed == {1}
    decisions = [r.decision for r in log.records]
    assert decisions == ["Created", "Kill", "Unconfined", "Error"]
    assert log.records[2].reason == "warning: event from pid killed earlier in trace"
    assert log.records[3].reason == "confine refused: pid was killed earlier in trace"
    # no Allow after the kill
    assert "Allow" not in decisions[2:]


def test_lifecycle_errors_are_recorded_and_replay_continues(example_store):
    events = [
        TraceEvent(1, Confine(1, "hello_minimal")),
        TraceEvent(2, Confine(1, "hello_taint")),       # AlreadyConfined
        TraceEvent(3, Confine(2, "missing_policy")),    # UnknownPolicy
        TraceEvent(4, Fork(1, 1)),                      # DuplicatePid
        TraceEvent(5, FileAccess(1, "/dev/tty", parse_access("r"))),
    ]
    state, log = replay(events, ContainerState(example_store))
    decisions = [r.decision for r in log.records]
    assert decisions == ["Created", "Error", "Error", "Error", "Allow"]
    assert state.lookup(1) is not None


def test_replay_rejects_out_of_order_seq(example_store):
    events = [
        TraceEvent(2, Confine(1, "hello_minimal")),
        TraceEvent(2, Exit(1)),
    ]
    with pytest.raises(OutOfOrderTrace):
        replay(events, ContainerState(example_store))


def test_replay_is_deterministic(example_store):
    events = [
        TraceEvent(1, Confine(1, "hello_taint")),
        TraceEvent(2, FileAccess(1, "/dev/tty", parse_access("r"))),
        TraceEvent(3, FileAccess(1, "/etc/passwd", parse_access("r"))),
        TraceEvent(4, Exit(1)),
    ]
    outputs = []
    for _ in range(2):
        _, log = replay(events, ContainerState(example_store))
        buf = io.StringIO()
        log.write(buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    header = json.loads(outputs[0].splitlines()[0])
    assert header == {"format": 1}


def test_audit_overflow_accounting(example_store):
    events = [TraceEvent(1, Confine(1, "hello_minimal"))]
    events += [TraceEvent(i, FileAccess(1, "/dev/tty", parse_access("r")))
               for i in range(2, 12)]
    _, log = replay(events, ContainerState(example_store), AuditLog(4))
    assert len(log.records) == 4
    assert log.dropped == 7  # 11 records attempted, 4 kept
    assert log.summary()["allows"] == 10  # counters see everything


def test_audit_record_field_order(example_store):
    events = [TraceEvent(1, Confine(1, "hello_minimal")),
              TraceEvent(2, FileAccess(1, "/dev/tty", parse_access("r")))]
    _, log = replay(events, ContainerState(example_store))
    obj = json.loads(log.records[1].to_json())
    assert list(obj) == ["seq", "container_id", "policy", "event",
                         "decision", "reason", "taint_transition"]
    assert obj["event"] == "FileAccess /dev/tty r"
    assert obj["decision"] == "Allow"


# --- wire format -----------------------------------------------------------------

def test_parse_trace_round_trip(example_store):
    hooks = [FileAccess(1, "/dev/tty", parse_access("rw"), kind) for kind in FsKind]
    hooks += [SocketOp(1, family, SocketOpKind.CONNECT) for family in SocketFamily]
    hooks += [SocketOp(1, SocketFamily.IPV4, op) for op in SocketOpKind]
    hooks += [IpcOp(1, 2, mech) for mech in IpcMechanism]
    hooks += [HardeningOp(1, op) for op in HardeningKind]
    hooks.append(CommitCreds(1, PrivLevel(1000, frozenset({"CAP_CHOWN"})),
                             PrivLevel(0, frozenset({"CAP_CHOWN", "CAP_NET_RAW"}))))
    events = [TraceEvent(1, Confine(1, "hello_taint", mount_ns=5, ipc_ns=6))]
    events += [TraceEvent(seq, hook) for seq, hook in enumerate(hooks, start=2)]
    events += [TraceEvent(100, Fork(1, 2)), TraceEvent(101, Exit(2))]
    buf = io.StringIO()
    write_trace(events, buf)
    parsed = parse_trace(buf.getvalue().splitlines())
    assert parsed == events


def test_trace_requires_header():
    with pytest.raises(TraceError):
        parse_trace([json.dumps({"seq": 1, "kind": "exit", "pid": 1})])
    with pytest.raises(TraceError):
        parse_trace([])


@pytest.mark.parametrize("header", [
    {"format": True}, {"format": 1.0}, {"format": "1"}, {"format": 2}, [1],
])
def test_trace_header_must_be_the_integer_1(header):
    with pytest.raises(TraceError, match="trace must start with"):
        parse_trace([json.dumps(header), json.dumps({"seq": 1, "kind": "exit", "pid": 1})])


def test_trace_rejects_unknown_fields():
    lines = _lines({"seq": 1, "kind": "exit", "pid": 1, "bogus": True})
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(lines)
    assert "bogus" in str(exc.value)


def test_trace_rejects_unknown_kind():
    lines = _lines({"seq": 1, "kind": "Telepathy", "pid": 1})
    with pytest.raises(MalformedEvent):
        parse_trace(lines)


def test_trace_rejects_missing_required_field():
    lines = _lines({"seq": 1, "kind": "FileAccess", "pid": 1, "requested": "r"})
    with pytest.raises(MalformedEvent):
        parse_trace(lines)


def test_trace_rejects_bad_enum_value():
    lines = _lines({"seq": 1, "kind": "SocketOp", "pid": 1,
                    "family": "Ipx", "op": "Connect"})
    with pytest.raises(MalformedEvent):
        parse_trace(lines)


# the error lists the accepted spellings, in wire-table order
@pytest.mark.parametrize("obj, why", [
    ({"family": "IPv4", "op": "Connect"},
     "field 'family' has unknown value 'IPv4' (expected Ipv4, Ipv6, Unix or Other)"),
    ({"family": "Ipv4", "op": "Dial"},
     "field 'op' has unknown value 'Dial' (expected Create, Bind, Listen, Accept, Connect, "
     "Send, Receive or Shutdown)"),
], ids=["family", "op"])
def test_trace_enum_error_names_the_accepted_values(obj, why):
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines({"seq": 1, "kind": "SocketOp", "pid": 1, **obj}))
    assert exc.value.why == why


# every field the parser looks up in a table inline, in an event otherwise valid
_LOOKED_UP = [
    ({"kind": "FileAccess", "pid": 1, "path": "/x", "requested": "r"}, "requested"),
    ({"kind": "FileAccess", "pid": 1, "path": "/x", "requested": "r", "fs_kind": "Procfs"},
     "fs_kind"),
    ({"kind": "SocketOp", "pid": 1, "family": "Ipv4", "op": "Connect"}, "family"),
    ({"kind": "SocketOp", "pid": 1, "family": "Ipv4", "op": "Connect"}, "op"),
    ({"kind": "HardeningOp", "pid": 1, "op": "Ptrace"}, "op"),
    ({"kind": "IpcOp", "pid": 1, "peer_pid": 2, "mechanism": "Signal"}, "mechanism"),
    ({"kind": "CapabilityUse", "pid": 1, "capability": "CAP_KILL", "possessed": True},
     "capability"),
]


@pytest.mark.parametrize("value", [[], {}], ids=["list", "dict"])
@pytest.mark.parametrize("obj, key", _LOOKED_UP,
                         ids=[f"{obj['kind']}.{key}" for obj, key in _LOOKED_UP])
def test_trace_unhashable_value_is_the_wrong_type(obj, key, value):
    parse_trace_object({"seq": 1, **obj})  # valid as it stands
    with pytest.raises(MalformedEvent) as exc:
        parse_trace_object({"seq": 1, **obj, key: value})
    assert exc.value.why == f"field {key!r} has wrong type"


@pytest.mark.parametrize("flags", ["rw", "wr", "rwax", "xxr"])
def test_trace_requested_is_a_plain_int_mask(flags):
    [te] = parse_trace(_lines({"seq": 1, "kind": "FileAccess", "pid": 1,
                               "path": "/x", "requested": flags}))
    assert type(te.event.requested) is int
    assert te.event.requested == parse_access(flags)


@pytest.mark.parametrize("mask", [3, 19, -29, AccessFlags(3), AccessFlags(19)])
def test_file_access_summary_renders_the_low_four_bits(mask):
    # as format_access does, for a mask a library caller builds
    assert FileAccess(1, "/x", mask).summary() == "FileAccess /x rw"


def test_trace_rejects_boolean_integers():
    # JSON true/false decode to Python bools, which are ints; none may pass
    for obj in (
        {"seq": 1, "kind": "exit", "pid": True},
        {"seq": True, "kind": "exit", "pid": 1},
        {"seq": 1, "kind": "confine", "pid": 5, "policy_name": "p",
         "ns_info": {"mount_ns": True}},
        {"seq": 1, "kind": "CommitCreds", "pid": 1,
         "old_priv": {"uid": False}, "new_priv": {"uid": 0}},
    ):
        with pytest.raises(MalformedEvent):
            parse_trace(_lines(obj))


@pytest.mark.parametrize("obj, what", [
    ({"seq": 1, "kind": "exit", "pid": -1}, "pid"),
    ({"seq": 1, "kind": "IpcOp", "pid": 1, "peer_pid": -2, "mechanism": "Signal"}, "peer_pid"),
    ({"seq": 1, "kind": "fork", "parent": -1, "child": 2}, "parent"),
    ({"seq": 1, "kind": "fork", "parent": 1, "child": -2}, "child"),
    ({"seq": 1, "kind": "FileAccess", "pid": 1, "path": "/proc/1/status", "requested": "r",
      "fs_kind": "Procfs", "proc_subject_pid": -1}, "proc_subject_pid"),
    ({"seq": 1, "kind": "FileAccess", "pid": 1, "path": "/x", "requested": "r",
      "fs_kind": "Overlayfs", "owner_mount_ns": -3}, "owner_mount_ns"),
    ({"seq": 1, "kind": "confine", "pid": 5, "policy_name": "p",
      "ns_info": {"mount_ns": -1}}, "ns_info.mount_ns"),
    ({"seq": 1, "kind": "confine", "pid": 5, "policy_name": "p",
      "ns_info": {"ipc_ns": -1}}, "ns_info.ipc_ns"),
    ({"seq": 1, "kind": "CommitCreds", "pid": 1,
      "old_priv": {"uid": -1}, "new_priv": {"uid": 0}}, "old_priv.uid"),
    ({"seq": 1, "kind": "CommitCreds", "pid": 1,
      "old_priv": {"uid": 0}, "new_priv": {"uid": -1}}, "new_priv.uid"),
])
def test_trace_rejects_negative_integers(obj, what):
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines(obj))
    assert exc.value.why == f"{what} must not be negative"


@pytest.mark.parametrize("old, new, what", [
    ({}, {"uid": 0}, "old_priv.uid"),
    ({"uid": 0}, {"capability_set": []}, "new_priv.uid"),
])
def test_trace_missing_priv_uid_is_reported_as_missing(old, new, what):
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines({"seq": 1, "kind": "CommitCreds", "pid": 1,
                            "old_priv": old, "new_priv": new}))
    assert exc.value.why == f"missing field '{what}'"


def test_trace_allows_negative_seq():
    [te] = parse_trace(_lines({"seq": -4, "kind": "exit", "pid": 0}))
    assert te == TraceEvent(-4, Exit(0))


def test_trace_rejects_unknown_capability_names():
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines({"seq": 1, "kind": "CapabilityUse", "pid": 1,
                            "capability": "CAP_NET_RAWR", "possessed": True}))
    assert exc.value.why == ("field 'capability' has unknown value 'CAP_NET_RAWR' (expected "
                             + ", ".join(sorted(CAPABILITIES)[:-1]) + " or CAP_WAKE_ALARM)")
    # the policy vocabulary's spellings only: no lower case, no missing prefix
    for name in ("cap_net_raw", "NET_RAW"):
        with pytest.raises(MalformedEvent):
            parse_trace(_lines({"seq": 1, "kind": "CapabilityUse", "pid": 1,
                                "capability": name, "possessed": True}))
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines({"seq": 1, "kind": "CommitCreds", "pid": 1,
                            "old_priv": {"uid": 0, "capability_set": ["CAP_KILL"]},
                            "new_priv": {"uid": 0, "capability_set": ["CAP_KILL", "CAP_GOD"]}}))
    assert exc.value.why == "new_priv.capability_set has unknown value 'CAP_GOD'"


def test_trace_missing_requested_is_reported_as_missing():
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines({"seq": 1, "kind": "FileAccess", "pid": 1, "path": "/x"}))
    assert exc.value.why == "missing field 'requested'"
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines({"seq": 1, "kind": "FileAccess", "pid": 1, "path": "/x",
                            "requested": ""}))
    assert exc.value.why == "bad requested flags: bad access flag string: ''"


def test_trace_rejects_non_string_kind():
    for kind in (["exit"], {"k": 1}, 7):
        with pytest.raises(MalformedEvent) as exc:
            parse_trace(_lines({"seq": 1, "kind": kind, "pid": 1}))
        assert exc.value.why == f"unknown event kind {kind!r}"


def test_trace_rejects_out_of_order_seq():
    lines = _lines({"seq": 2, "kind": "exit", "pid": 1},
                   {"seq": 1, "kind": "exit", "pid": 2})
    with pytest.raises(OutOfOrderTrace):
        parse_trace(lines)


def test_trace_rejects_bad_access_flags():
    lines = _lines({"seq": 1, "kind": "FileAccess", "pid": 1,
                    "path": "/x", "requested": "rq"})
    with pytest.raises(MalformedEvent):
        parse_trace(lines)


def test_trace_event_paths_are_normalized():
    lines = _lines({"seq": 1, "kind": "FileAccess", "pid": 1,
                    "path": "/a//b/./c", "requested": "r"})
    [te] = parse_trace(lines)
    assert te.event.path == "/a/b/c"


# a NUL in a path is refused, whether the path is canonical or not
@pytest.mark.parametrize("path", ["/a\x00b", "/\x00", "/a//\x00/../b"])
def test_a_nul_in_an_event_path_is_malformed(path):
    lines = _lines({"seq": 1, "kind": "FileAccess", "pid": 1, "path": path, "requested": "r"})
    with pytest.raises(MalformedEvent, match="event path must not hold a NUL"):
        parse_trace(lines)


def test_commit_creds_wire_format():
    lines = _lines({
        "seq": 1, "kind": "CommitCreds", "pid": 1,
        "old_priv": {"uid": 1000, "capability_set": []},
        "new_priv": {"uid": 0},
    })
    [te] = parse_trace(lines)
    assert te.event.old_priv == PrivLevel(1000, frozenset())
    assert te.event.new_priv == PrivLevel(0, frozenset())


def test_event_serialization_is_stable():
    te = TraceEvent(3, Confine(9, "p", mount_ns=1, ipc_ns=2))
    assert event_to_object(te) == {
        "seq": 3, "kind": "confine", "pid": 9, "policy_name": "p",
        "ns_info": {"mount_ns": 1, "ipc_ns": 2},
    }


# one event of every class, each optional field set
_EVERY_CLASS = [
    FileAccess(1, "/proc/1/x", parse_access("r"), FsKind.PROCFS, 7, 1),
    SocketOp(1, SocketFamily.UNIX, SocketOpKind.BIND),
    IpcOp(1, 2, IpcMechanism.SYSV),
    CapabilityUse(1, "CAP_KILL", False),
    CommitCreds(1, PrivLevel(5, frozenset({"CAP_KILL"})), PrivLevel(6)),
    SwitchNamespaces(1),
    HardeningOp(1, HardeningKind.MOUNT),
    Fork(1, 2),
    Exit(1),
    Confine(1, "p", 3, 4),
]


def test_an_event_class_is_its_wire_schema():
    assert {type(ev) for ev in _EVERY_CLASS} == (
        set(HookEvent.__args__) | set(LifecycleEvent.__args__))
    assert len(_PARSERS) == len(_EVERY_CLASS)
    for ev in _EVERY_CLASS:
        obj = event_to_object(TraceEvent(1, ev))
        names = list(ev.__slots__)
        if isinstance(ev, Confine):
            names = ["pid", "policy_name", "ns_info"]
        assert list(obj) == ["seq", "kind"] + names
        # the parser accepts exactly those fields
        _, accepted, cls = _PARSERS[obj["kind"]]
        assert cls is type(ev) and accepted == {"seq", "kind", *names}
        assert parse_trace_object(obj) == (1, ev)
        with pytest.raises(MalformedEvent, match="unknown fields"):
            parse_trace_object({**obj, "extra": 0})


def test_a_regular_file_access_leaves_out_its_defaults():
    te = TraceEvent(2, FileAccess(1, "/etc/x", parse_access("rw")))
    obj = event_to_object(te)
    assert obj == {"seq": 2, "kind": "FileAccess", "pid": 1, "path": "/etc/x",
                   "requested": "rw"}
    assert parse_trace_object(obj) == te


# every optional trace field: a wire object that leaves it out, and the
# field's path in that object
_OPTIONAL_FIELDS = [
    ({"seq": 1, "kind": "FileAccess", "pid": 1, "path": "/x", "requested": "r"}, path)
    for path in (("fs_kind",), ("owner_mount_ns",), ("proc_subject_pid",))
] + [
    ({"seq": 1, "kind": "confine", "pid": 1, "policy_name": "p", "ns_info": {}}, path)
    for path in (("ns_info",), ("ns_info", "mount_ns"), ("ns_info", "ipc_ns"))
] + [
    ({"seq": 1, "kind": "CommitCreds", "pid": 1, "old_priv": {"uid": 1},
      "new_priv": {"uid": 0}}, (which, "capability_set"))
    for which in ("old_priv", "new_priv")
]


@pytest.mark.parametrize("obj, path", _OPTIONAL_FIELDS,
                         ids=[f"{obj['kind']}-{'.'.join(path)}" for obj, path in _OPTIONAL_FIELDS])
def test_a_null_optional_field_is_the_field_left_out(obj, path):
    with_null = json.loads(json.dumps(obj))
    *parents, field = path
    target = with_null
    for name in parents:
        target = target[name]
    target[field] = None
    assert parse_trace_object(with_null) == parse_trace_object(obj)


# every bounded trace integer: a wire object with ``v`` in that field, its
# name, and its kernel width in bits
_WIDE_FIELDS = [
    (lambda v: {"seq": 1, "kind": "exit", "pid": v}, "pid", 32),
    (lambda v: {"seq": 1, "kind": "confine", "pid": v, "policy_name": "p"}, "pid", 32),
    (lambda v: {"seq": 1, "kind": "IpcOp", "pid": 1, "peer_pid": v, "mechanism": "Signal"},
     "peer_pid", 32),
    (lambda v: {"seq": 1, "kind": "fork", "parent": v, "child": 2}, "parent", 32),
    (lambda v: {"seq": 1, "kind": "fork", "parent": 1, "child": v}, "child", 32),
    (lambda v: {"seq": 1, "kind": "FileAccess", "pid": 1, "path": "/proc/1/status",
                "requested": "r", "fs_kind": "Procfs", "proc_subject_pid": v},
     "proc_subject_pid", 32),
    (lambda v: {"seq": 1, "kind": "CommitCreds", "pid": 1, "old_priv": {"uid": v},
                "new_priv": {"uid": 0}}, "old_priv.uid", 32),
    (lambda v: {"seq": 1, "kind": "CommitCreds", "pid": 1, "old_priv": {"uid": 0},
                "new_priv": {"uid": v}}, "new_priv.uid", 32),
    (lambda v: {"seq": 1, "kind": "FileAccess", "pid": 1, "path": "/x", "requested": "r",
                "fs_kind": "Overlayfs", "owner_mount_ns": v}, "owner_mount_ns", 64),
    (lambda v: {"seq": 1, "kind": "confine", "pid": 5, "policy_name": "p",
                "ns_info": {"mount_ns": v}}, "ns_info.mount_ns", 64),
    (lambda v: {"seq": 1, "kind": "confine", "pid": 5, "policy_name": "p",
                "ns_info": {"ipc_ns": v}}, "ns_info.ipc_ns", 64),
]


@pytest.mark.parametrize("make, what, bits", _WIDE_FIELDS,
                         ids=[f"{obj(0)['kind']}-{what}" for obj, what, _ in _WIDE_FIELDS])
def test_trace_integers_fit_the_kernel_widths(make, what, bits):
    top = 2**bits - 1
    parse_trace(_lines(make(top)))
    for value in (top + 1, 10**4000):
        with pytest.raises(MalformedEvent) as exc:
            parse_trace(_lines(make(value)))
        assert exc.value.why == f"{what} must be at most {top}"


def test_trace_seq_is_a_signed_64_bit_integer():
    first, last = parse_trace(_lines({"seq": -2**63, "kind": "exit", "pid": 0},
                                     {"seq": 2**63 - 1, "kind": "exit", "pid": 0}))
    assert (first.seq, last.seq) == (-2**63, 2**63 - 1)
    for seq in (2**63, -2**63 - 1):
        with pytest.raises(MalformedEvent) as exc:
            parse_trace(_lines({"seq": seq, "kind": "exit", "pid": 0}))
        assert exc.value.why == "seq must fit in a signed 64-bit integer"


def test_a_trace_line_refuses_a_null_seq():
    # only an inline event (explain) supplies its seq; a trace line must carry one
    with pytest.raises(MalformedEvent) as exc:
        parse_trace(_lines({"seq": None, "kind": "exit", "pid": 0}))
    assert exc.value.why == "seq must be an integer"
    inline = parse_trace_object({"seq": None, "kind": "exit", "pid": 0}, seq=0)
    assert inline == parse_trace_object({"kind": "exit", "pid": 0}, seq=0)


# one of every event and lifecycle class
EVENT_EXAMPLES = (
    FileAccess(1, "/a", parse_access("r")),
    SocketOp(1, SocketFamily.IPV4, SocketOpKind.CREATE),
    IpcOp(1, 2, IpcMechanism.SIGNAL),
    CapabilityUse(1, "CAP_KILL", True),
    PrivLevel(0),
    CommitCreds(1, PrivLevel(1000), PrivLevel(0)),
    SwitchNamespaces(5),
    HardeningOp(1, HardeningKind.PTRACE),
    Confine(1, "p"),
    Fork(1, 2),
    Exit(5),
)


@pytest.mark.parametrize("event", EVENT_EXAMPLES, ids=lambda ev: type(ev).__name__)
def test_event_classes_are_slotted(event):
    cls = type(event)
    # the fields are the class's own slots, in __init__'s order, and nothing else
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    assert all(getattr(base, "__slots__", None) == () for base in cls.__mro__[1:-1])
    assert all(hasattr(event, name) for name in cls.__slots__)
    assert not hasattr(event, "__dict__")
    with pytest.raises(AttributeError):
        event.extra = 1


def test_event_equality_is_per_type():
    assert Exit(5) != SwitchNamespaces(5)
    assert Fork(1, 2) != IpcOp(1, 2, IpcMechanism.SIGNAL)
    for i, a in enumerate(EVENT_EXAMPLES):
        for j, b in enumerate(EVENT_EXAMPLES):
            assert (a == b) == (i == j)
        assert a == type(a)(*(getattr(a, name) for name in a.__slots__))


# --- decoding a line --------------------------------------------------------------

# what JSON counts as whitespace, and characters ``str.strip`` also removes
_JSON_SPACE = " \t\r\n"
_OTHER_SPACE = "\xa0\u2003\u3000\x0b\x0c\x1c\x85\u2028"
_EVENT_OBJECTS = (
    {"seq": 1, "kind": "exit", "pid": 7},
    {"seq": 2, "kind": "FileAccess", "pid": 1, "path": "/etc/passwd", "requested": "r"},
    {"seq": 3, "kind": "SocketOp", "pid": 1, "family": "Ipv4", "op": "Connect"},
)
_EVENT_LINES = [json.dumps(obj) for obj in _EVENT_OBJECTS]


def _outcome(lines):
    """What ``iter_trace`` makes of a trace: its events, or its error message."""
    try:
        return list(iter_trace(lines))
    except TraceError as exc:
        return str(exc)


@st.composite
def _decoder_lines(draw):
    """An event line, maybe padded, followed by more data or with a value replaced."""
    line = draw(st.sampled_from(_EVENT_LINES))
    change = draw(st.sampled_from(["none", "tail", "value"]))
    if change == "tail":
        line += draw(st.sampled_from(["x", "}", " 1", " " + _EVENT_LINES[0], _EVENT_LINES[0]]))
    elif change == "value":
        line = line.replace("7", draw(st.sampled_from(
            ["NaN", "Infinity", "-Infinity", '"\\ud800"', "1e400", "07", "[" * 10 + "]" * 10])))
    space = st.text(alphabet=_JSON_SPACE + _OTHER_SPACE, max_size=3)
    return draw(space) + line + draw(space)


_DEEP = '{"seq": 1, "kind": "exit", "pid": %s}' % ("[" * 100_000 + "]" * 100_000)


@settings(max_examples=300, deadline=None)
@given(line=_decoder_lines() | st.text(max_size=40))
@example(line=_EVENT_LINES[0] + " " + _EVENT_LINES[1])
@example(line='{"seq": NaN, "kind": "exit", "pid": 7}')
@example(line='{"seq": 1, "kind": "exit", "pid": Infinity}')
@example(line='{"seq": 2, "kind": "FileAccess", "pid": 1, "path": "/a\\udc00", "requested": "r"}')
@example(line=_DEEP)
@example(line="\xa0" + _EVENT_LINES[0])
@example(line=_EVENT_LINES[0] + "\x0c")
@example(line="\u3000")
@example(line=" \t\r\n")
def test_iter_trace_decodes_a_line_exactly_as_json_loads_does(line):
    got = _outcome(['{"format": 1}', line])
    if set(line) <= set(_JSON_SPACE):
        assert got == []  # a blank line is skipped
        return
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        assert isinstance(got, str) and "line 2: invalid JSON: " in got
        return
    try:
        want = [parse_trace_object(obj)]
    except TraceError as exc:
        want = str(exc)
    assert got == want


@pytest.mark.parametrize("pad", ["\xa0", "\u2003", "\u3000", "\x0c", "\x1c"])
def test_only_json_whitespace_pads_a_trace_line(pad):
    for lines in ([pad + _EVENT_LINES[0]], [_EVENT_LINES[0] + pad], [pad]):
        with pytest.raises(MalformedEvent, match="line 2: invalid JSON"):
            parse_trace(['{"format": 1}'] + lines)
    with pytest.raises(MalformedEvent, match="line 1: invalid JSON"):
        parse_trace([pad + '{"format": 1}'])
    padded = [" \t" + _EVENT_LINES[0] + " \r\n", " \t\r\n", "\n"]
    assert parse_trace(['{"format": 1}\n'] + padded) == [TraceEvent(1, Exit(7))]
