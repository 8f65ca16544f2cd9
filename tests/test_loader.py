"""The policy loader: one loop over YAML parser events.

``policy._load_events`` reads events from libyaml's ``CParser`` when PyYAML
has it, and from PyYAML's pure-Python parser (``policy._PyParser``) when it
does not; either way it builds dicts, lists and strings.  The tests here
run each event source in-process (the ``source`` fixture) and the command
line in a fresh interpreter without libyaml.  What the policy language does
not need (a tag, an anchor, an alias, a repeated key, a null or collection
key, nesting past 64, a second document) is a parse error that names the
construct and its line, under either source.
"""

import ast
import collections
import os
import re
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

from corpus import workloads

try:
    from yaml.cyaml import CParser
except ImportError:  # PyYAML built without libyaml
    CParser = None

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

requires_libyaml = pytest.mark.skipif(CParser is None, reason="PyYAML is built without libyaml")
SOURCES = [source for source in (CParser, policy._PyParser) if source is not None]


@pytest.fixture(params=SOURCES, ids=lambda source: source.__name__)
def source(request, monkeypatch):
    monkeypatch.setattr(policy, "_Parser", request.param)
    return request.param


def _with(source, load, text):
    saved, policy._Parser = policy._Parser, source
    try:
        return load(text)
    finally:
        policy._Parser = saved


_HEADER = "name: p\nentry: /bin/sh\n"

# the loop's own refusals, worded alike whichever source fed it
_REFUSAL = re.compile(r"(a tag|an anchor|an alias|a repeated key|a null key|a mapping as a key"
                      r"|a sequence as a key|nesting deeper|a second document)\b.*"
                      r" is not allowed in a policy \(line \d+\)")


def _outcome(source, text):
    """parse_policy's document or error under ``source``; a MalformedYaml
    keeps its message only if it is one of the loop's refusals."""
    try:
        return "doc", _with(source, policy.parse_policy, text)
    except MalformedYaml as exc:
        return "error", MalformedYaml, str(exc) if _REFUSAL.fullmatch(str(exc)) else None
    except Exception as exc:
        return "error", type(exc), str(exc)


def _assert_sources_agree(text):
    ours, theirs = _outcome(CParser, text), _outcome(policy._PyParser, text)
    # libyaml scans further ahead, so it may refuse a malformed token before
    # the loop sees the construct the other source refuses first
    if ours[:2] == theirs[:2] == ("error", MalformedYaml) and None in (ours[2], theirs[2]):
        return
    assert ours == theirs


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


@requires_libyaml
@pytest.mark.parametrize("text", TEST_POLICY_TEXTS)
def test_test_policies_give_one_outcome_from_both_sources(text):
    _assert_sources_agree(text)


@pytest.mark.parametrize("name", workloads.GENERATORS)
def test_workload_policies_load_as_safe_load_does(source, name):
    texts = [text for _, text in workloads.build(name, workloads.DEFAULT_SEED).policies]
    assert texts
    for text in texts:
        assert policy._load_events(text) == yaml.safe_load(text)
        policy.parse_policy(text)


# --- nothing is typed -------------------------------------------------------

# plain, the loop reads these as None
_NULLS = ["~", "null", "Null", "NULL"]
# plain, yaml.safe_load reads each as something other than a string
_IMPLICITS = ["123", "0x1F", "-7", "1_000", "1.5", ".inf", "true", "yes", "No", "off",
              "2001-12-14", "2001-12-14 21:59:43.10 -5", "=", "<<"]


@pytest.mark.parametrize("word", _IMPLICITS)
def test_a_plain_scalar_is_the_string_it_spells(source, word):
    assert policy._load_events(f"{word}: [{word}]\n") == {word: [word]}


@pytest.mark.parametrize("word", _NULLS + [""])
def test_a_plain_null_is_none(source, word):
    assert policy._load_events(f"k: {word}\n") == {"k": None}


# the policy-level messages of untyped values; None for a valid policy
UNTYPED = {
    "number-name": ("name: 123\nentry: /bin/sh\n", None),
    "bool-default": (_HEADER + "default: yes\n", "default must be 'allow' or 'deny', got 'yes'"),
    "number-key": (_HEADER + "1: x\n", "unknown top-level keys: ['1']"),
    "merge-key": (_HEADER + "<<: {allow: [tty: rw]}\n", "unknown top-level keys: ['<<']"),
}


@pytest.mark.parametrize("text, message", UNTYPED.values(), ids=UNTYPED.keys())
def test_untyped_values_in_a_policy(source, text, message):
    if message is None:
        assert policy.parse_policy(text).name == "123"
        return
    with pytest.raises(MalformedRule) as exc:
        policy.parse_policy(text)
    assert str(exc.value) == message


# --- what the loop refuses ---------------------------------------------------

# every SafeConstructor tag, with a value its constructor cannot build
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
# a key repeated in one mapping used to keep its last value, silently
# dropping a rule or a whole rule list
REPEATED_KEYS = {
    "in-a-rule": _HEADER + "allow:\n  - file: /a r\n    file: /b r\n",
    "top-level": _HEADER + "allow:\n  - tty: rw\nallow:\n  - file: /b r\n",
}
# id -> (text, what the message names, where)
REFUSED = {
    "unclosed-flow-sequence": (_HEADER + "allow: [{tty: rw}\n",
                               "while parsing a flow sequence", "line 3"),
    "tab-indentation": (_HEADER + "allow:\n\t- tty: rw\n",
                        "while scanning for the next token", "line 4"),
    "nul": ("name: p\0\nentry: /bin/sh\n", "unacceptable character #x0000", "position 7"),
    "undefined-alias": (_HEADER + "allow: *rules\n", "an alias *rules", "line 3"),
    "self-referencing-alias": (_HEADER + "allow: &rules [*rules]\n",
                               "an anchor &rules", "line 3"),
    "python-object-tag": (_HEADER + "default: !!python/object:os.system allow\n",
                          "a tag", "line 3"),
    "two-documents": (_HEADER + "---\n" + _HEADER, "a second document", "line 3"),
    "null-key": (_HEADER + "~: x\n", "a null key", "line 3"),
    "flow-mapping-key": (_HEADER + "{allow: x}: y\n", "a mapping as a key", "line 3"),
    "flow-sequence-key": (_HEADER + "[allow]: y\n", "a sequence as a key", "line 3"),
    "too-deep": (_HEADER + "allow:\n" + "  - " * 64 + "x\n", "nesting deeper than 64 levels",
                 "line 4"),
    "scalar-anchor": ("name: &n p\nentry: /bin/sh\n", "an anchor &n", "line 1"),
    "sequence-tag": (_HEADER + "allow: !!seq [tty: rw]\n", "a tag", "line 3"),
    "repeated-key-in-a-flow-mapping": (_HEADER + "allow: [{tty: rw, tty: r}]\n",
                                       "a repeated key 'tty'", "line 3"),
    **{f"repeated-key-{name}": (text, "a repeated key", "line 5")
       for name, text in REPEATED_KEYS.items()},
    **{f"tag-{name}": (_HEADER + f"default: {value}\n", "a tag", "line 3")
       for name, value in MALFORMED_TAGS.items()},
}


@pytest.mark.parametrize("text, what, where", REFUSED.values(), ids=REFUSED.keys())
def test_refused(source, tmp_path, capsys, text, what, where):
    with pytest.raises(MalformedYaml):
        policy.parse_policy(text)
    (tmp_path / "p.yml").write_text(text)
    assert main(["--policy-dir", str(tmp_path), "lint"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [ParseError] p.yml: {what}")
    assert where in err


def test_nesting_past_the_depth_bound_is_refused(source):
    bound = policy._MAX_DEPTH
    policy._load_events("- " * bound + "x\n")
    with pytest.raises(MalformedYaml, match=f"nesting deeper than {bound} levels"):
        policy._load_events("- " * (bound + 1) + "x\n")


# A lone surrogate cannot be written as UTF-8; libyaml refuses its escape,
# and the pure-Python source checks each scalar, a key included.
SURROGATE_ESCAPES = {
    "name": 'name: "x\\ud800"\nentry: /bin/sh\n',
    "ipc": 'name: p\nentry: /bin/sh\nallow:\n  - ipc: "z\\udc00"\n',
    "key": 'name: p\nentry: /bin/sh\nallow:\n  - "tty\\ud800": rw\n',
}


@pytest.mark.parametrize("text", SURROGATE_ESCAPES.values(), ids=SURROGATE_ESCAPES.keys())
def test_both_sources_refuse_a_surrogate_escape(source, text):
    with pytest.raises(MalformedYaml):
        policy.parse_policy(text)


# libyaml's own refusals, worded by libyaml: an unknown directive, which
# PyYAML's parser ignores, and a lone surrogate, by escape
@requires_libyaml
@pytest.mark.parametrize("text", [
    "%FOO bar\n---\n" + _HEADER,
    'name: "p\\ud800"\nentry: /bin/sh\n',
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


def test_the_source_is_what_is_installed():
    proc = _python("from bpfcontain import policy\nprint(policy._Parser.__name__)",
                   fallback=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"_PyParser\n"


def test_fallback_lint_matches(policy_dir):
    normal = _python(_CLI, "--policy-dir", str(policy_dir), "lint")
    fallback = _python(_CLI, "--policy-dir", str(policy_dir), "lint", fallback=True)
    assert normal.returncode == 0, normal.stderr
    assert (fallback.returncode, fallback.stdout, fallback.stderr) == \
        (normal.returncode, normal.stdout, normal.stderr)


# as a policy name or an ipc peer, it once crashed ``run`` after ``lint``
# had passed it
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


# --- generated YAML texts ----------------------------------------------------

def _quoted(word, style):
    if style == "'":
        return "'" + word.replace("'", "''") + "'"
    return '"' + word.replace("\\", "\\\\").replace('"', '\\"') + '"'


_WORDS = ["p", "web", "/bin/sh", "/etc/passwd r", "/srv/a rw", "/a/../b", "rw", "r",
          "q", "tty", "random x", "client send", "CAP_KILL", "kill", "allow", "deny",
          "svc001", "file", "a b c", "été"]
_ESCAPES = ['"a\\tb"', '"\\u00e9"', '"\\U0001F600"', '"\\x41"']
_SURROGATES = ['"\\ud800"', '"x\\udc00"']
# scalars that load as a str, or as None where plain
_SUBSET_SCALARS = st.one_of(
    st.sampled_from(_WORDS + _NULLS),
    st.builds(_quoted, st.sampled_from(_WORDS + _NULLS + _IMPLICITS), st.sampled_from("'\"")),
    st.sampled_from(_ESCAPES),
)
_SUBSET_KEYS = st.one_of(
    st.sampled_from(["name", "allow", "x"] + _WORDS),
    st.builds(_quoted, st.sampled_from(_WORDS + _NULLS + _IMPLICITS), st.sampled_from("'\"")),
)
_ANY_SCALARS = st.one_of(
    _SUBSET_SCALARS,
    st.sampled_from(_IMPLICITS + _SURROGATES + ["*a", "*r"]),
    st.text(":-#{}[]&*!|>'\"%@, ab/\n", max_size=6),
)
_PROPS = st.sampled_from([""] * 12 + ["&a ", "&r ", "!!str ", "!!int ", "! ", "!local ",
                                     "&a !!str "])
_RULE_KINDS = ["file", "subdir", "fs", "device", "tty", "network", "ipc", "cap"]


def _unique_key(item):
    """A key token's loaded string, for keys drawn from _SUBSET_KEYS."""
    return item[0].strip("'\"")


def _nodes(props, scalars, keys=None):
    """Nodes ``(kind, props, flow, body)``: a scalar's body is its token, a
    block scalar's its ``(indicator, text)``, a collection's its items.
    A mapping's keys come from ``keys`` without a repeat if it is given,
    else from ``scalars`` and a few words, repeats allowed."""
    unique = None if keys is None else _unique_key
    if keys is None:
        keys = st.one_of(st.sampled_from(["name", "allow", "x"] + _RULE_KINDS), scalars)
    leaf = st.one_of(
        st.builds(lambda p, s: ("scalar", p, True, s), props, scalars),
        st.builds(lambda p, i, t: ("block", p, False, (i, t)), props, st.sampled_from("|>"),
                  st.sampled_from(_WORDS[:-1] + ["line one\nline two", "123"])),
    )
    return st.recursive(leaf, lambda children: st.one_of(
        st.builds(lambda p, f, items: ("seq", p, f, items),
                  props, st.booleans(), st.lists(children, max_size=3)),
        st.builds(lambda p, f, items: ("map", p, f, items),
                  props, st.booleans(), st.lists(st.tuples(keys, children), max_size=3,
                                                 unique_by=unique)),
    ), max_leaves=6)


# rules and top-level pairs that parse_policy accepts
_GOOD_RULES = [("file", "/etc/passwd r"), ("subdir", "/srv/a rw"), ("fs", "/ rwax"),
               ("filesystem", "/proc"), ("device", "random r"), ("tty", "rw"), ("tty", "r"),
               ("network", "client send"), ("net", "server"), ("ipc", "web"),
               ("cap", "CAP_KILL"), ("capability", "kill"), ("ipc", "12")]
_GOOD_TOP = [("name", "web"), ("name", "db"), ("name", "123"), ("entry", "/usr/bin/x --flag"),
             ("entry", "/bin/sh"), ("default", "allow"), ("default", "deny")]


def _good(pairs, props):
    """One of ``pairs``, its value plain, single- or double-quoted."""
    return st.builds(
        lambda pair, p, style: (pair[0], ("scalar", p, True,
                                          pair[1] if style == "" else _quoted(pair[1], style))),
        st.sampled_from(pairs), props, st.sampled_from(["", "", "'", '"']))


def _policies(props, scalars, good_only):
    """Policy-shaped mappings; only a key drawn from ``scalars`` may repeat."""
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

    def with_head(props, flow, items):
        head = [("name", ("scalar", "", True, "p")), ("entry", ("scalar", "", True, "/bin/sh"))]
        return "map", props, flow, [kv for kv in head if kv[0] not in dict(items)] + items

    return st.builds(with_head, props, st.booleans(),
                     st.lists(pair, max_size=5, unique_by=lambda kv: kv[0]))


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


def _text(root, block):
    return _block(root, 0) if block else _flow(root) + "\n"


# (a) inside the subset: no tag, anchor, alias or repeated key, and every
# plain scalar a str or a null
_SUBSET_NODES = _nodes(st.just(""), _SUBSET_SCALARS, _SUBSET_KEYS)
_SUBSET_TEXTS = st.builds(lambda before, root, block: before + _text(root, block),
                          st.sampled_from(["", "---\n", "# c\n", "%YAML 1.1\n---\n"]),
                          _SUBSET_NODES, st.booleans())


def _assert_loads_as_safe_load(text):
    expected = yaml.safe_load(text)
    for source in SOURCES:
        assert _with(source, policy._load_events, text) == expected


@settings(max_examples=300, deadline=None)
@given(text=_SUBSET_TEXTS)
def test_the_subset_loads_as_safe_load_does(text):
    _assert_loads_as_safe_load(text)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(text=_SUBSET_TEXTS)
def test_the_subset_loads_as_safe_load_does_at_length(text):
    _assert_loads_as_safe_load(text)


# what an emitter writes: yaml.safe_dump quotes every str that a plain
# scalar would type, and escapes or folds what a plain scalar cannot hold
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_WORD = st.sampled_from(["r", "rw", "rwax", "x", "", "tty", "client", "CAP_KILL", "kill",
                         "web"] + _IMPLICITS + _NULLS)
_PATH = st.builds(lambda parts: "/" + "/".join(parts), st.lists(
    st.one_of(st.sampled_from(["usr", "bin", "..", ".", "", "dev", "tmp"]), _TEXT),
    max_size=4))
_VALUE = st.one_of(
    st.none(), _TEXT, _WORD,
    st.builds(lambda path, flags: f"{path} {flags}", _PATH, _WORD),
    st.lists(_WORD, max_size=4),
)
_RULE = st.dictionaries(st.sampled_from(_RULE_KINDS + ["frobnicate"]), _VALUE,
                        min_size=1, max_size=2)
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
    _assert_loads_as_safe_load(text)


# (b) the subset with one refused construct added
def _walk(node):
    """The node and every node under it."""
    yield node
    kind, _, _, body = node
    if kind in ("map", "seq"):
        for item in body:
            yield from _walk(item[1] if kind == "map" else item)


def _replace(node, target, new):
    if node is target:
        return new
    kind, props, flow, body = node
    if kind == "map":
        return kind, props, flow, [(key, _replace(value, target, new)) for key, value in body]
    if kind == "seq":
        return kind, props, flow, [_replace(value, target, new) for value in body]
    return node


def _add(construct, node, value):
    """``node`` with ``construct`` added; ``value`` is a repeated key's."""
    kind, props, flow, body = node
    if construct == "a tag":
        return kind, f"!!{kind if kind in ('map', 'seq') else 'str'} ", flow, body
    if construct == "an anchor":
        return kind, "&a ", flow, body
    if construct == "an alias":
        alias = ("scalar", "", True, "*a")
        return kind, props, flow, body + [("alias", alias) if kind == "map" else alias]
    return kind, props, flow, body + [(body[0][0], value)]  # a repeated key


_CAN_TAKE = {
    "a tag": lambda node: True,
    "an anchor": lambda node: True,
    "an alias": lambda node: node[0] in ("map", "seq"),
    "a repeated key": lambda node: node[0] == "map" and node[3],
}


@st.composite
def _refused_texts(draw):
    """A subset text with one construct added, and the construct."""
    construct = draw(st.sampled_from(sorted(_CAN_TAKE)))
    root = draw(_SUBSET_NODES)
    targets = [node for node in _walk(root) if _CAN_TAKE[construct](node)]
    if not targets:
        root = ("map", "", draw(st.booleans()), [("x", root)])
        targets = [root]
    target = draw(st.sampled_from(targets))
    new = _add(construct, target, draw(_SUBSET_NODES))
    return _text(_replace(root, target, new), draw(st.booleans())), construct


def _assert_refused(text, construct):
    for source in SOURCES:
        with pytest.raises(MalformedYaml) as exc:
            _with(source, policy._load_events, text)
        assert str(exc.value).startswith(construct), str(exc.value)


@settings(max_examples=300, deadline=None)
@given(case=_refused_texts())
def test_a_refused_construct_is_refused(case):
    _assert_refused(*case)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(case=_refused_texts())
def test_a_refused_construct_is_refused_at_length(case):
    _assert_refused(*case)


# (c) any text, policy-shaped or not
_FLAVOURS = (
    (st.just(""), _SUBSET_SCALARS, True),    # policies
    (st.just(""), _SUBSET_SCALARS, False),
    (st.just(""), _ANY_SCALARS, False),      # implicit types, merge keys, aliases, errors
    (_PROPS, _ANY_SCALARS, False),           # anchors and tags too
)
_DEEP = [_HEADER + "allow: " + "[" * n + "]" * n + "\n"
         for n in range(policy._MAX_DEPTH - 3, policy._MAX_DEPTH + 2)] + \
        ["- " * n + "x\n" for n in range(policy._MAX_DEPTH - 2, policy._MAX_DEPTH + 3)]
_EDGES = ["", "# only a comment\n", "---\n", "...\n", _HEADER + "allow: &r [*r]\n",
          _HEADER + "<<: {allow: [tty: rw]}\n", "name: ! 123\nentry: /bin/sh\n",
          'name: "p\\ud800"\nentry: /bin/sh\n', "x: [!, &a y]\n"] + _DEEP
_YAML_TEXTS = st.one_of(
    st.builds(
        lambda before, root, block, after: before + _text(root, block) + after,
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
def test_both_sources_give_one_outcome(text):
    _assert_sources_agree(text)


@pytest.mark.slow
@requires_libyaml
@settings(max_examples=5000, deadline=None)
@given(text=_YAML_TEXTS)
def test_both_sources_give_one_outcome_at_length(text):
    _assert_sources_agree(text)


@requires_libyaml
@pytest.mark.parametrize("text", _EDGES)
def test_the_edges_give_one_outcome(text):
    _assert_sources_agree(text)


# --- cost --------------------------------------------------------------------

# the busiest load, lifecycle_churn's 300 policies, in Python-level calls
# per policy: 701 when every policy went through PyYAML's composer
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
