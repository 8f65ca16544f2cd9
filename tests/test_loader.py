"""The policy loader: one loop over libyaml's events, and ``_Loader`` for
the texts it defers.

``policy._load_events`` builds a policy of dicts, lists and strings
straight from libyaml's event stream and defers anything else to
``policy._Loader``, libyaml's parser under PyYAML's Python composer.
``parse_policy`` must give the same document or error either way, the
benchmark's and the tests' policies must take the loop, and ``_Loader``
must build the same objects as ``yaml.SafeLoader`` and refuse what it
refuses.  Nesting depth stays a parse error (exit 1) rather than a crash
of the interpreter.
"""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bpfcontain import policy
from bpfcontain.cli import main
from bpfcontain.errors import MalformedRule, MalformedYaml
from bpfcontain.policy import AccessFlags, Rule

from corpus import workloads

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

requires_libyaml = pytest.mark.skipif(
    policy._Loader is yaml.SafeLoader, reason="PyYAML is built without libyaml")


def _load(loader, text):
    try:
        return "value", yaml.load(text, Loader=loader)
    except Exception as exc:
        return "error", type(exc)


def _parse(loader, text):
    saved, policy._Loader = policy._Loader, loader
    try:
        return "doc", policy.parse_policy(text)
    except MalformedYaml:
        # the reader's and scanner's wording is libyaml's, not SafeLoader's
        return "error", MalformedYaml
    except Exception as exc:
        return "error", (type(exc), str(exc))
    finally:
        policy._Loader = saved


def _assert_same(text):
    assert _load(policy._Loader, text) == _load(yaml.SafeLoader, text)
    assert _parse(policy._Loader, text) == _parse(yaml.SafeLoader, text)


def test_loader_uses_libyaml_when_present():
    if yaml.__with_libyaml__:
        assert issubclass(policy._Loader, yaml.cyaml.CParser)
        for name in ("get_single_node", "compose_document", "compose_node"):
            assert getattr(policy._Loader, name) is getattr(yaml.composer.Composer, name)
    else:
        assert policy._Loader is yaml.SafeLoader


# --- the policies the tests and the benchmark use ---------------------------

def _test_policy_texts():
    """Every string literal in the other test modules that holds a policy,
    and the steady_mix policies the tests replay."""
    texts = set(workloads.STEADY_POLICIES.split("---\n"))
    for path in sorted(TESTS.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "entry:" in node.value:
                texts.update(node.value.split("---\n"))
    return sorted(texts)


TEST_POLICY_TEXTS = _test_policy_texts()


def test_the_harvest_finds_the_fixture_policies():
    from conftest import MINIMAL_POLICY, TAINT_POLICY

    assert {MINIMAL_POLICY, TAINT_POLICY} <= set(TEST_POLICY_TEXTS)


@pytest.mark.parametrize("text", TEST_POLICY_TEXTS)
def test_test_policies_load_alike(text):
    _assert_same(text)


@pytest.mark.parametrize("name", workloads.GENERATORS)
def test_workload_policies_parse_alike(name):
    texts = [text for _, text in workloads.build(name, workloads.DEFAULT_SEED).policies]
    assert texts
    for text in texts:
        kind, doc = _parse(policy._Loader, text)
        assert kind == "doc", doc
        assert (kind, doc) == _parse(yaml.SafeLoader, text)
        assert _load(policy._Loader, text) == _load(yaml.SafeLoader, text)


# --- generated policy-shaped documents --------------------------------------

# no lone surrogates: a policy file is UTF-8, which cannot hold one
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_WORD = st.sampled_from(["r", "rw", "ra", "rwax", "x", "q", "", "tty", "random",
                         "client", "server", "CAP_KILL", "kill", "web"])
_PATH = st.builds(lambda parts: "/" + "/".join(parts), st.lists(
    st.one_of(st.sampled_from(["usr", "bin", "..", ".", "", "dev", "tmp"]), _TEXT),
    max_size=4))
_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), _TEXT, _WORD,
    st.builds(lambda path, flags: f"{path} {flags}", _PATH, _WORD),
    st.lists(_WORD, max_size=4),
)
_RULE = st.dictionaries(
    st.sampled_from(["file", "subdir", "filesystem", "fs", "device", "tty", "network",
                     "net", "ipc", "capability", "cap", "frobnicate"]),
    _VALUE, min_size=1, max_size=2)
_POLICY = st.fixed_dictionaries(
    {"name": st.one_of(_TEXT, _WORD), "entry": st.one_of(_PATH, _VALUE)},
    optional={
        "default": st.one_of(st.sampled_from(["allow", "deny", "Allow"]), _VALUE),
        "allow": st.one_of(st.lists(_RULE, max_size=4), _VALUE),
        "deny": st.lists(_RULE, max_size=3),
        "taint": st.lists(_RULE, max_size=3),
        "cmdline": _VALUE,
    })


@settings(max_examples=300, deadline=None)
@given(doc=_POLICY, flow=st.booleans(), allow_unicode=st.booleans())
def test_dumped_policies_load_alike(doc, flow, allow_unicode):
    text = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=allow_unicode)
    kind, _ = _load(yaml.SafeLoader, text)
    assert kind == "value"
    _assert_same(text)


# --- what both loaders refuse -----------------------------------------------

_HEADER = "name: p\nentry: /bin/sh\n"
REFUSED = {
    "unclosed-flow-sequence": _HEADER + "allow: [{tty: rw}\n",
    "tab-indentation": _HEADER + "allow:\n\t- tty: rw\n",
    "undefined-alias": _HEADER + "allow: *rules\n",
    "python-object-tag": _HEADER + "default: !!python/object:os.system allow\n",
    "two-documents": _HEADER + "---\n" + _HEADER,
    "nul": "name: p\0\nentry: /bin/sh\n",
    "long-int": _HEADER + "default: " + "9" * 5000 + "\n",
}


@pytest.mark.parametrize("text", REFUSED.values(), ids=REFUSED.keys())
def test_both_loaders_refuse(text):
    outcomes = {_load(loader, text) for loader in (policy._Loader, yaml.SafeLoader)}
    assert len(outcomes) == 1
    (kind, _), = outcomes
    assert kind == "error"
    with pytest.raises(MalformedYaml):
        policy.parse_policy(text)


# Where libyaml is stricter than SafeLoader, which loads both of these;
# parse_policy refuses the surrogate under either loader (below).
@requires_libyaml
@pytest.mark.parametrize("text", [
    "%FOO bar\n---\n" + _HEADER,   # an unknown directive
    'name: "p\\ud800"\nentry: /bin/sh\n',   # a lone surrogate, by escape
], ids=["unknown-directive", "surrogate-escape"])
def test_libyaml_refusals_are_parse_errors(tmp_path, capsys, text):
    with pytest.raises(MalformedYaml):
        policy.parse_policy(text)
    (tmp_path / "p.yml").write_text(text)
    assert main(["--policy-dir", str(tmp_path), "lint"]) == 1
    assert capsys.readouterr().err.startswith("error: [ParseError] p.yml: ")


# --- in a fresh interpreter --------------------------------------------------

# as if PyYAML had been built without libyaml
_NO_LIBYAML = 'import sys; sys.modules["yaml._yaml"] = None\n'
_CLI = "import sys\nfrom bpfcontain.cli import main\nsys.exit(main())\n"


def _python(code, *argv, fallback=False):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    prelude = _NO_LIBYAML if fallback else ""
    return subprocess.run([sys.executable, "-c", prelude + code, *argv],
                          capture_output=True, env=env, timeout=120)


def test_fallback_loader_is_safe_loader():
    proc = _python("import yaml\nfrom bpfcontain import policy\n"
                   "print(yaml.__with_libyaml__, policy._Loader is yaml.SafeLoader)",
                   fallback=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False True\n"


def test_fallback_lint_matches(policy_dir):
    normal = _python(_CLI, "--policy-dir", str(policy_dir), "lint")
    fallback = _python(_CLI, "--policy-dir", str(policy_dir), "lint", fallback=True)
    assert normal.returncode == 0, normal.stderr
    assert (fallback.returncode, fallback.stdout, fallback.stderr) == \
        (normal.returncode, normal.stdout, normal.stderr)


# every SafeConstructor tag with a value its constructor cannot build; some
# of them fail with KeyError, IndexError or AttributeError, not a YAMLError
MALFORMED_TAGS = {
    "bool": "!!bool maybe",
    "int": "!!int ''",
    "float": "!!float ''",
    "timestamp": "!!timestamp foo",
    "binary": "!!binary a",
    "set": "!!set [1]",
    "omap": "!!omap x",
    "pairs": "!!pairs x",
    "null": "!!null [1]",
}


@pytest.mark.parametrize("value", MALFORMED_TAGS.values(), ids=MALFORMED_TAGS.keys())
def test_malformed_tagged_values_are_parse_errors(tmp_path, value):
    text = _HEADER + f"default: {value}\n"
    for loader in (policy._Loader, yaml.SafeLoader):
        assert _parse(loader, text) == ("error", MalformedYaml)
    (tmp_path / "p.yml").write_text(text)
    for fallback in (False, True):
        proc = _python(_CLI, "--policy-dir", str(tmp_path), "lint", fallback=fallback)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(b"error: [ParseError] p.yml: ")
        assert b"Traceback" not in proc.stderr


# A lone surrogate cannot be written as UTF-8; SafeLoader builds it from the
# escape, and parse_policy refuses it wherever it is, a key included.
SURROGATE_ESCAPES = {
    "name": 'name: "x\\ud800"\nentry: /bin/sh\n',
    "ipc": 'name: p\nentry: /bin/sh\nallow:\n  - ipc: "z\\udc00"\n',
    "key": 'name: p\nentry: /bin/sh\nallow:\n  - "tty\\ud800": rw\n',
}


@pytest.mark.parametrize("text", SURROGATE_ESCAPES.values(), ids=SURROGATE_ESCAPES.keys())
def test_both_loaders_refuse_a_surrogate_escape(text):
    for loader in (policy._Loader, yaml.SafeLoader):
        assert _parse(loader, text) == ("error", MalformedYaml)


def test_a_self_referencing_alias_is_checked_once():
    text = _HEADER + "allow: &rules [*rules]\n"
    for loader in (policy._Loader, yaml.SafeLoader):
        kind, (exc_type, _) = _parse(loader, text)
        assert (kind, exc_type) == ("error", MalformedRule)


# as a policy name or an ipc peer, it crashed policy_id in ``run`` after
# ``lint`` had passed it
@pytest.mark.parametrize("case", ["name", "ipc"])
def test_fallback_refuses_a_surrogate_escape(tmp_path, case):
    text = SURROGATE_ESCAPES[case]
    policies = tmp_path / "policies"
    policies.mkdir()
    (policies / "p.yml").write_text(text)
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"format": 1}\n'
                     '{"seq": 1, "kind": "confine", "pid": 1, "policy_name": "p"}\n')
    for command in (["lint"], ["run", "--trace", str(trace)]):
        proc = _python(_CLI, "--policy-dir", str(policies), *command, fallback=True)
        assert proc.returncode == 1, proc.stderr
        assert b"error: [ParseError] p.yml: " in proc.stderr
        assert b"Traceback" not in proc.stderr


# A parser that recursed on the C stack would die of SIGSEGV here, which is
# why this runs in a subprocess: the crash fails the test, not pytest.
DEEP = {
    "flow": _HEADER + "allow: " + "[" * 100_000 + "]" * 100_000 + "\n",
    "block": "- " * 100_000 + "x",
}


@pytest.mark.parametrize("fallback", [False, True], ids=["default", "fallback"])
@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_exits_1(tmp_path, text, fallback):
    (tmp_path / "deep.yml").write_text(text)
    proc = _python(_CLI, "--policy-dir", str(tmp_path), "lint", fallback=fallback)
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stderr.startswith(b"error: [ParseError] deep.yml: ")


# --- the event loop and _Loader agree ----------------------------------------

def _deferred(text):
    raise policy._Defer


def _outcome(text, load_events):
    """parse_policy's document or error, with ``load_events`` as its loop."""
    saved, policy._load_events = policy._load_events, load_events
    try:
        return "doc", policy.parse_policy(text)
    except MalformedYaml:
        return "error", MalformedYaml
    except Exception as exc:
        return "error", (type(exc), str(exc))
    finally:
        policy._load_events = saved


def _assert_paths_agree(text):
    assert _outcome(text, policy._load_events) == _outcome(text, _deferred)


def _quoted(word, style):
    if style == "'":
        return "'" + word.replace("'", "''") + "'"
    return '"' + word.replace("\\", "\\\\").replace('"', '\\"') + '"'


_WORDS = ["p", "web", "/bin/sh", "/etc/passwd r", "/srv/a rw", "/a/../b", "rw", "r",
          "q", "tty", "random x", "client send", "CAP_KILL", "kill", "allow", "deny",
          "svc001", "file", "a b c", "\u00e9t\u00e9"]
# plain, each resolves to something other than a string
_IMPLICITS = ["123", "0x1F", "-7", "1_000", "1.5", ".inf", "true", "yes", "No", "off",
              "null", "~", "", "2001-12-14", "2001-12-14 21:59:43.10 -5", "=", "<<"]
_ESCAPES = ['"a\\tb"', '"\\u00e9"', '"\\U0001F600"', '"\\x41"']
_SURROGATES = ['"\\ud800"', '"x\\udc00"']
_SAFE_SCALARS = st.one_of(
    st.sampled_from(_WORDS),
    st.builds(_quoted, st.sampled_from(_WORDS + _IMPLICITS), st.sampled_from("'\"")),
    st.sampled_from(_ESCAPES),
)
_ANY_SCALARS = st.one_of(
    _SAFE_SCALARS,
    st.sampled_from(_IMPLICITS + _SURROGATES + ["*a", "*r"]),
    st.text(":-#{}[]&*!|>'\"%@, ab/\n", max_size=6),
)
_PROPS = st.sampled_from([""] * 12 + ["&a ", "&r ", "!!str ", "!!int ", "! ", "!local ",
                                     "&a !!str "])
_RULE_KINDS = ["file", "subdir", "fs", "device", "tty", "network", "ipc", "cap"]


def _nodes(props, scalars):
    """Nodes ``(kind, props, flow, body)``: a scalar's body is its token, a
    block scalar's its ``(indicator, text)``, a collection's its items."""
    leaf = st.one_of(
        st.builds(lambda p, s: ("scalar", p, True, s), props, scalars),
        st.builds(lambda p, i, t: ("block", p, False, (i, t)), props, st.sampled_from("|>"),
                  st.sampled_from(_WORDS[:-1] + ["line one\nline two", "123"])),
    )
    keys = st.one_of(st.sampled_from(["name", "allow", "x"] + _RULE_KINDS), scalars)
    return st.recursive(leaf, lambda children: st.one_of(
        st.builds(lambda p, f, items: ("seq", p, f, items),
                  props, st.booleans(), st.lists(children, max_size=3)),
        st.builds(lambda p, f, items: ("map", p, f, items),
                  props, st.booleans(), st.lists(st.tuples(keys, children), max_size=3)),
    ), max_leaves=6)


# rules and top-level pairs that parse_policy accepts
_GOOD_RULES = [("file", "/etc/passwd r"), ("subdir", "/srv/a rw"), ("fs", "/ rwax"),
               ("filesystem", "/proc"), ("device", "random r"), ("tty", "rw"), ("tty", "r"),
               ("network", "client send"), ("net", "server"), ("ipc", "web"),
               ("cap", "CAP_KILL"), ("capability", "kill"), ("ipc", "12")]
_GOOD_TOP = [("name", "web"), ("name", "db"), ("name", "123"), ("entry", "/usr/bin/x --flag"),
             ("entry", "/bin/sh"), ("default", "allow"), ("default", "deny")]


def _good(pairs, props):
    """One of ``pairs``, its value plain, single- or double-quoted; a value
    that reads as a number is a string only when quoted."""
    return st.builds(
        lambda pair, p, style: (pair[0], ("scalar", p, True,
                                          pair[1] if style == "" else _quoted(pair[1], style))),
        st.sampled_from(pairs), props, st.sampled_from(["", "", "'", '"']))


def _policies(props, scalars, good_only):
    """Policy-shaped mappings; their keys may repeat."""
    rule = st.builds(lambda flow, pair: ("map", "", flow, [pair]), st.booleans(),
                     _good(_GOOD_RULES, props))
    pair = st.one_of(_good(_GOOD_TOP, props), st.tuples(
        st.sampled_from(["allow", "deny", "taint"]),
        st.builds(lambda flow, items: ("seq", "", flow, items), st.booleans(),
                  st.lists(rule, max_size=4))))
    if not good_only:
        nodes = _nodes(props, scalars)
        value = st.one_of(st.builds(lambda p, s: ("scalar", p, True, s), props, scalars), nodes)
        rule = st.builds(lambda p, f, items: ("map", p, f, items), props, st.booleans(),
                         st.lists(st.tuples(st.sampled_from(_RULE_KINDS), value),
                                  min_size=1, max_size=2))
        pair = st.one_of(
            pair,
            st.tuples(st.sampled_from(["allow", "deny", "taint"]),
                      st.builds(lambda p, f, items: ("seq", p, f, items), props,
                                st.booleans(), st.lists(rule, max_size=3))),
            st.tuples(st.sampled_from(["name", "entry", "default"]), value),
            st.tuples(st.one_of(st.sampled_from(["<<", "x"]), scalars), nodes),
        )
    head = [("name", ("scalar", "", True, "p")), ("entry", ("scalar", "", True, "/bin/sh"))]
    return st.builds(lambda p, f, items: ("map", p, f, head + items), props, st.booleans(),
                     st.lists(pair, max_size=5))


def _flow(node):
    kind, props, _, body = node
    if kind == "map":
        return props + "{" + ", ".join(f"{key}: {_flow(value)}" for key, value in body) + "}"
    if kind == "seq":
        return props + "[" + ", ".join(map(_flow, body)) + "]"
    if kind == "block":
        return props + _quoted(body[1], '"')
    return props + body


def _block(node, indent):
    """The node as lines of their own at ``indent``."""
    kind, props, flow, body = node
    pad = " " * indent
    if kind == "map" and body and not flow:
        lines = "".join(f"{pad}{key}:{_after(value, indent)}" for key, value in body)
    elif kind == "seq" and body and not flow:
        lines = "".join(f"{pad}-{_after(value, indent)}" for value in body)
    else:
        return pad + _flow(node) + "\n"
    return (pad + props + "\n" if props else "") + lines


def _after(node, indent):
    """What follows ``key:`` or ``-`` at ``indent``."""
    kind, props, flow, body = node
    if kind in ("map", "seq") and body and not flow:
        return (" " + props if props else "") + "\n" + _block((kind, "", flow, body), indent + 2)
    if kind == "block":
        pad = " " * (indent + 2)
        return f" {props}{body[0]}\n" + "".join(pad + line + "\n" for line in body[1].split("\n"))
    return " " + _flow(node) + "\n"


_FLAVOURS = (
    (st.just(""), _SAFE_SCALARS, True),    # policies, the loop's own texts
    (st.just(""), _SAFE_SCALARS, False),
    (st.just(""), _ANY_SCALARS, False),    # implicit types, merge keys, aliases, errors
    (_PROPS, _ANY_SCALARS, False),         # anchors and tags too
)
_DEEP = [_HEADER + "allow: " + "[" * n + "]" * n + "\n"
         for n in range(policy._MAX_DEPTH - 3, policy._MAX_DEPTH + 2)] + \
        ["- " * n + "x\n" for n in range(policy._MAX_DEPTH - 2, policy._MAX_DEPTH + 3)]
_EDGES = ["", "# only a comment\n", "---\n", "...\n", _HEADER + "allow: &r [*r]\n",
          _HEADER + "<<: {allow: [tty: rw]}\n", "name: ! 123\nentry: /bin/sh\n",
          'name: "p\\ud800"\nentry: /bin/sh\n'] + _DEEP
_YAML_TEXTS = st.one_of(
    st.builds(
        lambda before, root, block, after: before + (
            _block(root, 0) if block else _flow(root) + "\n") + after,
        st.sampled_from(["", "---\n", "# c\n", "%YAML 1.1\n---\n", "--- "]),
        st.one_of(*(st.one_of(_policies(p, s, good), _nodes(p, s))
                    for p, s, good in _FLAVOURS)),
        st.booleans(),
        st.sampled_from(["", "", "...\n", "---\n", "---\nname: q\n", "# end\n"])),
    st.sampled_from(_EDGES),
)


@requires_libyaml
@settings(max_examples=300, deadline=None)
@given(text=_YAML_TEXTS)
def test_the_event_loop_agrees_with_the_loader(text):
    _assert_paths_agree(text)


@pytest.mark.slow
@requires_libyaml
@settings(max_examples=5000, deadline=None)
@given(text=_YAML_TEXTS)
def test_the_event_loop_agrees_with_the_loader_at_length(text):
    _assert_paths_agree(text)


@requires_libyaml
@pytest.mark.parametrize("text", _EDGES)
def test_the_edges_load_alike(text):
    _assert_paths_agree(text)


def _defers(text):
    try:
        policy._load_events(text)
    except policy._Defer:
        return True
    return False


@requires_libyaml
def test_the_event_loop_defers_past_its_depth_bound():
    bound = policy._MAX_DEPTH
    assert {n: _defers("- " * n + "x\n") for n in (bound - 1, bound, bound + 1)} == \
        {bound - 1: False, bound: False, bound + 1: True}


# --- what takes the loop -----------------------------------------------------

@requires_libyaml
@pytest.mark.parametrize("name", workloads.GENERATORS)
def test_workload_policies_take_the_event_loop(name):
    for _, text in workloads.build(name, workloads.DEFAULT_SEED).policies:
        policy._load_events(text)  # raises _Defer if it would not


def _plain(doc):
    if isinstance(doc, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in doc.items())
    if isinstance(doc, list):
        return all(map(_plain, doc))
    return isinstance(doc, str)


@requires_libyaml
@pytest.mark.parametrize("text", TEST_POLICY_TEXTS)
def test_test_policies_take_the_event_loop(text):
    # some harvested literals are fragments or hold an int, bool or null on
    # purpose; those, and only those, may defer
    if _defers(text):
        kind, doc = _load(policy._Loader, text)
        assert kind == "error" or not _plain(doc), doc


# the busiest load, lifecycle_churn's 300 policies, in Python-level calls
# per policy: 701 when every policy went through _Loader
CALLS_PER_POLICY = 200


@requires_libyaml
def test_loading_stays_within_the_per_policy_call_budget(tmp_path):
    workload = workloads.build("lifecycle_churn", workloads.DEFAULT_SEED)
    workload.write_policies(str(tmp_path))
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        docs = policy.load_policy_dir(str(tmp_path))
    finally:
        sys.setprofile(None)
    assert len(docs) == len(workload.policies) == 300
    per_policy = sum(calls.values()) / len(docs)
    most = ", ".join(
        f"{code.co_name} ({os.path.basename(code.co_filename)}:{code.co_firstlineno})"
        f" {n / len(docs):.1f}" for code, n in calls.most_common(5))
    assert per_policy <= CALLS_PER_POLICY, (
        f"{per_policy:.1f} Python calls per policy, budget {CALLS_PER_POLICY}; most: {most}")


# --- repeated keys: the last value wins, at the first position ---------------

REPEATED_KEYS = {
    "in-a-rule": (_HEADER + "allow:\n  - file: /a r\n    file: /b r\n",
                  [Rule("file", "/b", AccessFlags.READ)]),
    "top-level": (_HEADER + "allow:\n  - tty: rw\nallow:\n  - file: /b r\n",
                  [Rule("file", "/b", AccessFlags.READ)]),
}


@pytest.mark.parametrize("text, allow", REPEATED_KEYS.values(), ids=REPEATED_KEYS.keys())
def test_a_repeated_key_keeps_its_last_value(text, allow):
    for load_events in (policy._load_events, _deferred):
        kind, doc = _outcome(text, load_events)
        assert kind == "doc", doc
        assert doc.allow == allow
