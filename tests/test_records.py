"""The package's records (``policy.Value``): equality per class, frozen or
mutable, hashable or not, and slotted."""

import itertools

import pytest

from bpfcontain.compiler import (
    DEFAULT_MAP_CAPACITY,
    MAP_CATEGORIES,
    MapCapacities,
    compile_policies,
    policy_id,
)
from bpfcontain.events import (
    CapabilityUse,
    CommitCreds,
    FileAccess,
    HardeningKind,
    HardeningOp,
    IpcMechanism,
    IpcOp,
    PrivLevel,
    SocketFamily,
    SocketOp,
    SocketOpKind,
    SwitchNamespaces,
)
from bpfcontain.policy import (
    AccessFlags,
    DeviceKind,
    NetCategory,
    PolicyDocument,
    Rule,
    ValidationIssue,
)
from bpfcontain.state import Container
from bpfcontain.trace import Confine, Exit, Fork

R = AccessFlags.READ
RULES = (
    Rule("file", "/a", R),
    Rule("subdir", "/a", R),
    Rule("filesystem", "/a", R),
    Rule("device", DeviceKind.TTY, R),
    Rule("network", None, NetCategory.CLIENT),
    Rule("ipc", "p", 1),
    Rule("capability", "CAP_KILL", 1),
)
META = compile_policies([PolicyDocument("p", "/bin/p")]).meta(policy_id("p"))
FROZEN = RULES + (
    ValidationIssue("error", "DuplicateName", "p", "declared twice"),
    MapCapacities(file=3),
    META,
)
MUTABLE = (
    FileAccess(1, "/a", 1),
    SocketOp(1, SocketFamily.IPV4, SocketOpKind.CREATE),
    IpcOp(1, 2, IpcMechanism.SIGNAL),
    CapabilityUse(1, "CAP_KILL", True),
    PrivLevel(0),
    CommitCreds(1, PrivLevel(1000), PrivLevel(0)),
    SwitchNamespaces(1),
    HardeningOp(1, HardeningKind.PTRACE),
    Confine(1, "p"),
    Fork(1, 2),
    Exit(1),
    PolicyDocument("p", "/bin/p"),
    Container(1, 2, False),
)


def _ids(records):
    return [f"Rule-{rec.category}" if type(rec) is Rule else type(rec).__name__
            for rec in records]


def _values(rec) -> list:
    return [getattr(rec, name) for name in rec.__slots__]


def test_records_of_one_shape_and_two_classes_are_unequal():
    for a, b in itertools.permutations(RULES + MUTABLE, 2):
        if type(a) is type(b) or len(a.__slots__) != len(b.__slots__):
            continue
        twin = type(b)(*_values(a))  # b's class, a's fields
        assert a != twin and not a == twin, (a, twin)
    assert Rule("ipc", "p", 1) != SocketOp("ipc", "p", 1)
    assert Exit(5) != SwitchNamespaces(5)


@pytest.mark.parametrize("rec", FROZEN + MUTABLE, ids=_ids(FROZEN + MUTABLE))
def test_a_record_equals_a_copy_of_itself_and_nothing_else(rec):
    copy = type(rec)(*_values(rec))
    assert copy == rec and not copy != rec
    assert rec != tuple(_values(rec)) and rec != object()
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("rec", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_assignment_and_hash_by_their_fields(rec):
    name = rec.__slots__[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError, match="is frozen"):
        setattr(rec, name, before)
    with pytest.raises(AttributeError, match="is frozen"):
        delattr(rec, name)
    assert getattr(rec, name) is before
    copy = type(rec)(*_values(rec))
    if rec is META:
        # its ipc and capability tables are read-only dicts, unhashable as a dict is
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
        return
    assert hash(copy) == hash(rec) and len({rec, copy}) == 1


@pytest.mark.parametrize("rec", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_take_assignment_and_are_unhashable(rec):
    rec = type(rec)(*_values(rec))  # a copy: the examples are shared
    name = rec.__slots__[0]
    setattr(rec, name, "changed")
    assert getattr(rec, name) == "changed"
    with pytest.raises(TypeError, match="unhashable"):
        hash(rec)


def test_a_record_repr_names_its_fields_in_order():
    assert repr(RULES[0]) == "Rule(category='file', key='/a', access=<AccessFlags.READ: 1>)"
    assert repr(Fork(1, 2)) == "Fork(parent=1, child=2)"


def test_mutable_defaults_are_not_shared():
    a, b = PolicyDocument("a", "/bin/a"), PolicyDocument("b", "/bin/b")
    a.allow.append(RULES[0])
    assert b.allow == [] and b.deny == [] and b.taint == []
    c, d = Container(1, 1, False), Container(2, 1, False)
    c.pid_set.add(7)
    assert d.pid_set == set()


def test_map_capacities_are_one_positive_field_per_category():
    assert MapCapacities.__slots__ == MAP_CATEGORIES
    assert MapCapacities(meta=5) == MapCapacities(*[DEFAULT_MAP_CAPACITY] * 7, 5)
    for name in MAP_CATEGORIES:
        with pytest.raises(ValueError, match=f"capacity for '{name}' must be positive"):
            MapCapacities(**{name: 0})
