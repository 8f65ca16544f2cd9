"""Property tests: the trace wire format, the parser's error contract, the
canonical-path shortcut, the audit line renderer, the file kernel's rule
provenance and the rule that only an untainted container is tainted."""

import io
import itertools
import json
import posixpath

import pytest
from hypothesis import example, given, settings, strategies as st

from bpfcontain import core
from bpfcontain.compiler import _prefix_tree
from bpfcontain.core import (
    R_DENY_RULE,
    R_EXEMPT,
    R_OVERLAY,
    R_PROC_FOREIGN,
    R_PROC_SELF,
    T_DEV,
    T_FILE,
    T_FS,
    T_NET,
    T_SUBDIR,
    V_ALLOW,
    V_DENY,
    classify_device,
)
from bpfcontain.engine import R_ALLOW_RULE, R_DEFAULT, R_STATE_ERROR, decide
from bpfcontain.errors import BadAccessFlags, MalformedEvent, TraceError
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
    SocketFamily,
    SocketOp,
    SocketOpKind,
    SwitchNamespaces,
)
from bpfcontain.policy import (
    CAPABILITIES,
    NET_ALL,
    AccessFlags,
    DeviceKind,
    normalize_event_path,
    parse_access,
)
from bpfcontain.trace import (
    O_ERROR,
    AuditRecord,
    Confine,
    Exit,
    Fork,
    TraceEvent,
    event_to_object,
    parse_trace,
    parse_trace_object,
    write_trace,
)

import corpus

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

ids = st.integers(min_value=0, max_value=2**63)
# the trace's integer widths: pids and uids are u32, namespace ids u64
pids = st.integers(min_value=0, max_value=2**32 - 1)
ns_ids = st.integers(min_value=0, max_value=2**64 - 1)
component = st.text(st.characters(blacklist_characters="/\x00"), min_size=1).filter(
    lambda c: c not in (".", ".."))
canonical_paths = st.one_of(
    st.just("/"), st.lists(component, min_size=1, max_size=6).map(lambda cs: "/" + "/".join(cs)))
access = st.integers(min_value=1, max_value=15).map(AccessFlags)
capability_sets = st.frozensets(st.sampled_from(sorted(CAPABILITIES)), max_size=4)
priv_levels = st.builds(PrivLevel, pids, capability_sets)

hook_events = st.one_of(
    st.builds(FileAccess, pids, canonical_paths, access, st.sampled_from(FsKind),
              st.none() | ns_ids, st.none() | pids),
    st.builds(SocketOp, pids, st.sampled_from(SocketFamily), st.sampled_from(SocketOpKind)),
    st.builds(IpcOp, pids, pids, st.sampled_from(IpcMechanism)),
    st.builds(CapabilityUse, pids, st.sampled_from(sorted(CAPABILITIES)), st.booleans()),
    st.builds(CommitCreds, pids, priv_levels, priv_levels),
    st.builds(SwitchNamespaces, pids),
    st.builds(HardeningOp, pids, st.sampled_from(HardeningKind)),
)
lifecycle_events = st.one_of(
    st.builds(Confine, pids, st.text(), ns_ids, ns_ids),
    st.builds(Fork, pids, pids),
    st.builds(Exit, pids),
)
any_event = hook_events | lifecycle_events


@st.composite
def traces(draw):
    events = draw(st.lists(any_event, max_size=12))
    seqs = sorted(draw(st.sets(st.integers(-2**40, 2**40), min_size=len(events),
                               max_size=len(events))))
    return [TraceEvent(seq, ev) for seq, ev in zip(seqs, events)]


def _round_trip(events):
    buf = io.StringIO()
    write_trace(events, buf)
    return parse_trace(buf.getvalue().splitlines())


@PROPERTY_SETTINGS
@given(traces())
def test_write_then_parse_is_identity(events):
    assert _round_trip(events) == events


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _field_paths(obj, prefix=()):
    """Every key path in a wire object, nested objects included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


@st.composite
def mutated_lines(draw):
    obj = event_to_object(TraceEvent(1, draw(any_event)))
    path = draw(st.sampled_from(list(_field_paths(obj))))
    target = obj
    for key in path[:-1]:
        target = target[key]
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if action == "replace":
        target[path[-1]] = draw(json_values)
    elif action == "delete":
        del target[path[-1]]
    else:
        target[draw(st.text(max_size=8))] = draw(json_values)
    return json.dumps(obj)


@PROPERTY_SETTINGS
@given(mutated_lines())
def test_mutated_line_parses_or_raises_trace_error(line):
    # a mutation may leave the line valid; anything else must be a TraceError
    try:
        parse_trace(['{"format":1}', line])
    except TraceError:
        pass


@PROPERTY_SETTINGS
@given(any_event, st.data())
def test_dropping_a_required_field_is_a_trace_error(event, data):
    obj = event_to_object(TraceEvent(1, event))
    optional = {"seq", "fs_kind", "owner_mount_ns", "proc_subject_pid", "ns_info"}
    key = data.draw(st.sampled_from(sorted(set(obj) - optional)))
    del obj[key]
    with pytest.raises(TraceError):
        parse_trace(['{"format":1}', json.dumps(obj)])


@PROPERTY_SETTINGS
@given(st.text(st.sampled_from("/.ab"), max_size=12).map(lambda p: "/" + p))
def test_canonical_path_shortcut_matches_normpath(path):
    expected = posixpath.normpath(path)
    if expected.startswith("//"):
        expected = expected[1:]
    assert normalize_event_path(path) == expected


path_tokens = st.lists(st.sampled_from(("/", ".", "..", "a")), max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(requested=st.text(st.sampled_from("rwaxRq"), max_size=6),
       path=path_tokens | path_tokens.map(lambda p: "/" + p))
@example(requested="r", path="/a/..")  # each clause of the canonical test
@example(requested="r", path="/a/.")
@example(requested="r", path="/a//a")
@example(requested="r", path="/a/")
@example(requested="r", path="/a\x00a")
@example(requested="r", path="a")
@example(requested="wr", path="/")
def test_inline_field_acceptance_matches_the_helpers(requested, path):
    # the parser accepts well-formed fields without calling the helpers; it
    # must give what they give, or raise the error they lead to, the path's
    # before the mask's
    try:
        expected = normalize_event_path(path), int(parse_access(requested))
    except ValueError as exc:
        expected = str(exc)
    except BadAccessFlags as exc:
        expected = f"bad requested flags: {exc}"
    obj = {"seq": 1, "kind": "FileAccess", "pid": 1, "path": path, "requested": requested}
    try:
        event = parse_trace_object(obj).event
    except MalformedEvent as exc:
        assert exc.why == expected
    else:
        assert (event.path, event.requested) == expected
        assert type(event.requested) is int


@given(st.text(st.sampled_from("rwax"), min_size=1, max_size=6))
def test_parse_access_ors_the_flags(flags):
    expected = AccessFlags(0)
    for ch in flags:
        expected |= {"r": AccessFlags.READ, "w": AccessFlags.WRITE,
                     "a": AccessFlags.APPEND, "x": AccessFlags.EXECUTE}[ch]
    parsed = parse_access(flags)
    assert parsed == expected and type(parsed) is AccessFlags


# text that exercises JSON escaping: quotes, backslashes, controls, non-ASCII
awkward_text = st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7fé \U0001f600/ '), max_size=10) | st.text()


@st.composite
def audit_records(draw):
    seq = draw(st.integers(-2**63, 2**63))
    cid = draw(st.none() | ids)
    policy = draw(st.none() | awkward_text)
    path = "/" + draw(awkward_text)
    source = FileAccess(1, path, draw(access))
    taint = draw(st.none() | st.just((T_FILE, path, 1)) | st.just((T_NET, 3, 3)))
    kind = draw(st.sampled_from(("rule", "default", "error")))
    if kind == "rule":
        return AuditRecord(seq, source, V_ALLOW, R_ALLOW_RULE,
                           draw(st.just((T_FILE, path, 3)) | st.just((T_DEV, 0, 1))),
                           cid, policy, taint)
    if kind == "default":
        return AuditRecord(seq, source, draw(st.sampled_from((V_ALLOW, V_DENY))), R_DEFAULT,
                           None, cid, policy, taint)
    return AuditRecord(seq, source, O_ERROR, R_STATE_ERROR, draw(awkward_text), cid, policy)


@PROPERTY_SETTINGS
@given(audit_records())
def test_audit_line_matches_json_dumps(record):
    assert record.to_json() == json.dumps({
        "seq": record.seq,
        "container_id": record.container_id,
        "policy": record.policy,
        "event": record.event,
        "decision": record.decision,
        "reason": record.reason,
        "taint_transition": record.taint_transition,
    }, separators=(",", ":"))


# --- file kernel provenance --------------------------------------------------

# short components from a two-letter alphabet, so that table keys, ancestors
# and decoys collide often
kernel_paths = st.one_of(
    st.lists(st.text("ab", min_size=1, max_size=2), min_size=1, max_size=12)
    .map(lambda cs: "/" + "/".join(cs)),
    st.sampled_from(("/dev/tty", "/dev/tty1", "/dev/null")),
)
masks = st.integers(min_value=0, max_value=15)
entries = st.tuples(masks, masks, masks)  # (allow, deny, taint)


@given(kernel_paths | st.text(st.sampled_from("/devtynul"), max_size=12))
def test_only_a_dev_path_is_a_device(path):
    # the file kernel classifies only paths under /dev/
    if classify_device(path) >= 0:
        assert path.startswith("/dev/")


def _lineage(path):
    """``path`` and then each of its ancestors, nearest first, ending at ``/``."""
    out = [path]
    while path != "/":
        path = posixpath.dirname(path)
        out.append(path)
    return out


@st.composite
def file_kernel_inputs(draw):
    path = draw(kernel_paths)
    # decoys: string extensions and prefixes of the path that are not its
    # ancestors, and unrelated paths
    candidates = _lineage(path) + [path + "a", path[:-1] or "/"] + draw(
        st.lists(kernel_paths, max_size=3))

    def path_table():
        return draw(st.none() | st.dictionaries(st.sampled_from(candidates), entries, max_size=8))

    file_t, subdir_t, fs_t = path_table(), path_table(), path_table()
    # the subdir reach's edges, which a draw over all the candidates seldom
    # hits: the ancestors 9 levels up (the farthest a subdir rule reaches)
    # and 10 levels up (the nearest it does not)
    for anc in _lineage(path)[9:11]:
        if draw(st.booleans()):
            subdir_t = {**(subdir_t or {}), anc: draw(entries)}
    dev_t = draw(st.none() | st.dictionaries(st.sampled_from([int(k) for k in DeviceKind]),
                                             entries, max_size=4))
    # the drawn tables, and the kernel's arguments over the compiler's tree
    return ((file_t, subdir_t, fs_t, dev_t),
            ((file_t, _prefix_tree(subdir_t, fs_t), dev_t), draw(st.booleans()),
             draw(st.booleans()), draw(st.sampled_from((0, R_PROC_SELF, R_PROC_FOREIGN,
                                                         R_OVERLAY))), path, draw(masks)))


def _expected_hits(file_t, subdir_t, fs_t, dev_t, path):
    """Every matching rule as ``(tier, key, entry)``, most specific first."""
    hits = []
    if file_t is not None and path in file_t:
        hits.append((T_FILE, path, file_t[path]))
    if subdir_t is not None:
        # a subdir rule reaches 9 components below its root
        hits += [(T_SUBDIR, anc, subdir_t[anc]) for anc in _lineage(path)[1:10]
                 if anc in subdir_t]
    if fs_t is not None:
        mount = next((p for p in _lineage(path) if p in fs_t), None)
        if mount is not None:
            hits.append((T_FS, mount, fs_t[mount]))
    dev = classify_device(path)
    if dev_t is not None and dev in dev_t:
        hits.append((T_DEV, dev, dev_t[dev]))
    return hits


def _check_provenance(case):
    tables, args = case
    _, _, _, implicit, path, requested = args
    _, code, detail, taint_detail = core.decide_file_access(*args)
    # the whole lineage of the drawn tables, not only the prefixes the
    # kernel's walk down the tree reaches
    hits = _expected_hits(*tables, path)

    def first_meeting(stage):
        return next(((tier, key, entry[stage] & requested) for tier, key, entry in hits
                     if entry[stage] & requested), None)

    foreign = implicit == R_PROC_FOREIGN
    grant = next(((tier, key, entry[0]) for tier, key, entry in hits
                  if entry[0] and (not foreign or tier in (T_FILE, T_SUBDIR))), None)
    if code == R_EXEMPT:
        assert first_meeting(2) is None
    if code == R_DENY_RULE:
        assert detail == first_meeting(1)
    if taint_detail is not None:
        assert taint_detail == first_meeting(2)
    if code == R_ALLOW_RULE:
        assert detail == grant
        assert not requested & ~grant[2]
    if code == R_DEFAULT:
        # a rule the kernel missed would have denied or granted instead
        assert first_meeting(1) is None
        assert grant is None or requested & ~grant[2]


def _subdir_reach_edge(levels):
    """A tainted container's read, under default deny, of a path 10
    components deep whose one rule is a subdir read grant ``levels``
    components up."""
    path = "/a" * 10
    subdir_t = {_lineage(path)[levels]: (int(AccessFlags.READ), 0, 0)}
    return ((None, subdir_t, None, None),
            ((None, _prefix_tree(subdir_t, None), None), False, True, 0, path,
             int(AccessFlags.READ)))


@settings(max_examples=300, deadline=None)
@given(file_kernel_inputs())
@example(_subdir_reach_edge(9))  # the farthest a subdir rule reaches: granted
@example(_subdir_reach_edge(10))  # one level past it: denied
def test_file_kernel_names_the_most_specific_rule(case):
    _check_provenance(case)


# the same property over far more table shapes, for the walk that stops early
@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(file_kernel_inputs())
def test_file_kernel_names_the_most_specific_rule_at_depth(case):
    _check_provenance(case)


# --- a decision names a taint rule only for an untainted container -------------
# (so the engine commits every taint_detail it is handed without re-checking)

@settings(max_examples=300, deadline=None)
@given(file_kernel_inputs())
def test_the_file_kernel_names_no_taint_rule_for_a_tainted_container(case):
    _, (files, default_allow, _, implicit, path, requested) = case
    assert core.decide_file_access(files, default_allow, True, implicit, path,
                                   requested)[3] is None


def test_the_socket_kernel_names_no_taint_rule_for_a_tainted_container():
    for network in itertools.product(range(int(NET_ALL) + 1), repeat=3):
        for family, op, default_allow in itertools.product(
                SocketFamily, SocketOpKind, (False, True)):
            assert core.decide_socket_op(network, default_allow, True, family, op)[3] is None


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ipc_and_capability_name_no_taint_rule_for_a_tainted_container(rng):
    doc = corpus.random_policy(rng, force_taint=True)
    store, state, container, _, _ = corpus.build_world(doc)
    state.taint(container)
    for event in corpus.EVENTS:
        if isinstance(event, (IpcOp, CapabilityUse)):
            assert decide(event, state).taint_detail is None
