"""The policy loader: libyaml's parser under PyYAML's Python composer.

``policy._Loader`` must build the same objects as ``yaml.SafeLoader`` and
refuse what it refuses, and nesting depth must stay a parse error (exit 1)
rather than a crash of the interpreter.
"""

import ast
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
