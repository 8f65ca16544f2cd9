"""CLI behavior: exit codes, output shape, environment override."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpfcontain
from bpfcontain.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_lint_clean_directory(policy_dir, capsys):
    assert run_cli("--policy-dir", str(policy_dir), "lint") == 0
    out = capsys.readouterr().out
    assert "2 policies, 0 error(s), 0 warning(s)" in out


def test_lint_reports_bad_access_flags(tmp_path, capsys):
    (tmp_path / "bad.yml").write_text("name: bad\nentry: /bin/sh\nallow:\n  - tty: rq\n")
    assert run_cli("--policy-dir", str(tmp_path), "lint") == 1
    err = capsys.readouterr().err
    assert "bad access flag" in err


def test_lint_duplicate_names(tmp_path, capsys):
    (tmp_path / "a.yml").write_text("name: x\nentry: /bin/a\nallow:\n  - tty: r\n")
    (tmp_path / "b.yml").write_text("name: x\nentry: /bin/b\nallow:\n  - tty: r\n")
    assert run_cli("--policy-dir", str(tmp_path), "lint") == 1
    assert "DuplicateName" in capsys.readouterr().out


def test_lint_warnings_do_not_fail(tmp_path, capsys):
    (tmp_path / "a.yml").write_text("name: a\nentry: /bin/a\nallow:\n  - ipc: ghost\n")
    assert run_cli("--policy-dir", str(tmp_path), "lint") == 0
    assert "DanglingIpcPeer" in capsys.readouterr().out


@pytest.mark.parametrize("flags, policies", [(("--capacity", "meta=1"), 2), ((), 257)],
                         ids=["meta=1", "default-capacities"])
def test_lint_refuses_what_run_refuses_at_compile(tmp_path, capsys, flags, policies):
    for n in range(policies):
        (tmp_path / f"p{n}.yml").write_text(f"name: p{n}\nentry: /bin/p\nallow:\n  - tty: r\n")
    limit = 1 if flags else 256
    line = f"error: capacity exceeded for map 'meta' (limit {limit})"
    assert run_cli("--policy-dir", str(tmp_path), *flags, "lint") == 1
    assert capsys.readouterr().out == f"{line}\n{policies} policies, 1 error(s), 0 warning(s)\n"
    trace = tmp_path / "h.jsonl"
    trace.write_text('{"format": 1}\n')
    assert run_cli("--policy-dir", str(tmp_path), *flags, "run", "--trace", str(trace)) == 1
    assert capsys.readouterr().err == f"{line}\n"


def test_lint_missing_directory(tmp_path):
    assert run_cli("--policy-dir", str(tmp_path / "nope"), "lint") == 2


def test_env_var_selects_policy_dir(policy_dir, monkeypatch, capsys):
    monkeypatch.setenv("BPFCONTAIN_POLICY_DIR", str(policy_dir))
    assert run_cli("lint") == 0
    assert "2 policies" in capsys.readouterr().out


def _write_trace(path, objs):
    lines = [json.dumps({"format": 1})] + [json.dumps(o) for o in objs]
    path.write_text("\n".join(lines) + "\n")


def test_run_taint_trace_summary(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [
        {"seq": 1, "kind": "confine", "pid": 1, "policy_name": "hello_taint"},
        {"seq": 2, "kind": "FileAccess", "pid": 1, "path": "/dev/tty", "requested": "r"},
        {"seq": 3, "kind": "HardeningOp", "pid": 1, "op": "BpfSyscall"},
    ])
    audit = tmp_path / "audit.jsonl"
    code = run_cli("--policy-dir", str(policy_dir), "run",
                   "--trace", str(trace), "--audit", str(audit))
    assert code == 0
    out = capsys.readouterr().out
    assert "events=3 allows=1 denies=1 kills=0 taints=1" in out

    lines = audit.read_text().splitlines()
    assert json.loads(lines[0]) == {"format": 1}
    records = [json.loads(l) for l in lines[1:]]
    assert [r["decision"] for r in records] == ["Created", "Allow", "Deny"]
    assert records[1]["taint_transition"] is True


def test_run_output_is_byte_stable(policy_dir, tmp_path):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [
        {"seq": 1, "kind": "confine", "pid": 1, "policy_name": "hello_minimal"},
        {"seq": 2, "kind": "SocketOp", "pid": 1, "family": "Ipv4", "op": "Connect"},
        {"seq": 3, "kind": "exit", "pid": 1},
    ])
    outputs = []
    for name in ("a1.jsonl", "a2.jsonl"):
        audit = tmp_path / name
        assert run_cli("--policy-dir", str(policy_dir), "run",
                       "--trace", str(trace), "--audit", str(audit)) == 0
        outputs.append(audit.read_bytes())
    assert outputs[0] == outputs[1]


def test_run_empty_trace(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 0
    assert "events=0 allows=0 denies=0 kills=0 taints=0" in capsys.readouterr().out


def test_run_out_of_order_trace_exits_3(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [
        {"seq": 2, "kind": "exit", "pid": 1},
        {"seq": 1, "kind": "exit", "pid": 2},
    ])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert capsys.readouterr().err == (
        "error: trace sequence numbers are not strictly increasing at seq 1\n")


def test_run_malformed_event_exits_3(policy_dir, tmp_path):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [{"seq": 1, "kind": "exit", "pid": 1, "oops": 1}])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3


def test_run_negative_pid_exits_3(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [{"seq": 1, "kind": "confine", "pid": -5, "policy_name": "hello_minimal"}])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert "pid must not be negative" in capsys.readouterr().err


def test_run_unknown_capability_exits_3(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [{"seq": 1, "kind": "CapabilityUse", "pid": 5,
                          "capability": "CAP_TELEPATHY", "possessed": True}])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert "CAP_TELEPATHY" in capsys.readouterr().err


def test_a_nul_in_an_event_path_exits_3(policy_dir, tmp_path, capsys):
    event = {"kind": "FileAccess", "pid": 1, "path": "/dev/tty\x00", "requested": "r"}
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [{"seq": 1, **event}])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_minimal", "--event", json.dumps(event)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and "must not hold a NUL" in line for line in err)


def test_run_unhashable_requested_exits_3(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [{"seq": 1, "kind": "FileAccess", "pid": 5, "path": "/x",
                          "requested": ["r"]}])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "field 'requested' has wrong type" in err
    assert "Traceback" not in err


def test_run_verbose_logs_milestones(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [
        {"seq": 1, "kind": "confine", "pid": 1, "policy_name": "hello_minimal"},
        {"seq": 2, "kind": "FileAccess", "pid": 1, "path": "/dev/tty", "requested": "r"},
    ])
    argv = ("--policy-dir", str(policy_dir), "--capacity", "audit=1", "-v",
            "run", "--trace", str(trace))
    assert run_cli(*argv) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert all(line.startswith("INFO bpfcontain: ") for line in lines), err
    messages = [line.removeprefix("INFO bpfcontain: ") for line in lines]
    assert len(messages) == 5
    assert messages[0].startswith("loaded 2 policies from ")
    assert messages[1].startswith("capacities: file=256,") and messages[1].endswith("audit=1")
    assert messages[2].startswith("store entries: file=0,") and "device=2" in messages[2]
    assert messages[3].startswith("parsed 2 events from ")
    assert messages[4] == "replayed 2 events: 1 audit records kept, 1 dropped, 1 containers live"
    # stdout is the summary line alone
    assert out == "events=2 allows=1 denies=0 kills=0 taints=0 dropped=1\n"
    # -vv adds nothing: there are no debug lines
    assert run_cli(*argv[:4], "-vv", *argv[5:]) == 0
    assert capsys.readouterr() == (out, err)


def test_run_default_verbosity_logs_nothing(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [{"seq": 1, "kind": "confine", "pid": 1, "policy_name": "hello_minimal"}])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 0
    assert capsys.readouterr().err == ""


def test_run_boolean_ns_info_exits_3(policy_dir, tmp_path):
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [{"seq": 1, "kind": "confine", "pid": 5, "policy_name": "hello_minimal",
                          "ns_info": {"mount_ns": True}}])
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3


def test_run_non_utf8_trace_exits_3(policy_dir, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(b'{"format":1}\n'
                      b'{"seq":1,"kind":"confine","pid":5,"policy_name":"hello_\xff"}\n')
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert capsys.readouterr().err.startswith("error: trace is not valid UTF-8")


@pytest.mark.parametrize("header", ['{"format": true}', '{"format": 1.0}'])
def test_run_non_integer_header_exits_3(policy_dir, tmp_path, capsys, header):
    trace = tmp_path / "t.jsonl"
    trace.write_text(header + "\n")
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert "trace must start with" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["lint"], ["run", "--trace", "unread.jsonl"]])
def test_non_utf8_policy_exits_1(tmp_path, capsys, command):
    (tmp_path / "bad.yml").write_bytes(b"name: b\xff\nentry: /bin/sh\n")
    assert run_cli("--policy-dir", str(tmp_path), *command) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [ParseError] bad.yml: not valid UTF-8")


# JSON the decoder itself refuses with ValueError or RecursionError, not
# JSONDecodeError: nesting past the recursion limit, and an integer past
# the int/str conversion limit
_TOO_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_LONG = "9" * 5000
_UNDECODABLE_EVENTS = [
    '{"seq": 1, "kind": "exit", "pid": %s}' % _TOO_DEEP,
    '{"seq": 1, "kind": "exit", "pid": %s}' % _TOO_LONG,
]


@pytest.mark.parametrize("lines", [
    ['{"format": 1}', _UNDECODABLE_EVENTS[0]],
    ['{"format": 1}', _UNDECODABLE_EVENTS[1]],
    ['{"format": %s}' % _TOO_LONG],
], ids=["deep-event", "long-int-event", "long-int-header"])
def test_run_undecodable_json_exits_3(policy_dir, tmp_path, capsys, lines):
    trace = tmp_path / "t.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    '\xa0{"seq": 1, "kind": "exit", "pid": 7}',
    '{"seq": 1, "kind": "exit", "pid": 7}\u3000',
    "\x0c",
], ids=["nbsp-before", "ideographic-space-after", "form-feed-alone"])
def test_run_line_padded_with_non_json_whitespace_exits_3(policy_dir, tmp_path, capsys, line):
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"format": 1}\n' + line + "\n", encoding="utf-8")
    assert run_cli("--policy-dir", str(policy_dir), "run", "--trace", str(trace)) == 3
    assert "line 2: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("event", _UNDECODABLE_EVENTS, ids=["deep", "long-int"])
def test_explain_undecodable_json_exits_3(policy_dir, capsys, event):
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_minimal", "--event", event) == 3
    assert capsys.readouterr().err.startswith("error: event is not valid JSON")


@pytest.mark.parametrize("text", [
    "name: p\nentry: /bin/sh\ndefault: %s\n" % _TOO_LONG,
    "name: p\nentry: /bin/sh\nallow: %s\n" % ("[" * 20_000 + "]" * 20_000),
    "name: p\nentry: /bin/sh\n1: x\nfoo: y\n",
], ids=["long-int", "deep", "mixed-type-keys"])
@pytest.mark.parametrize("command", [["lint"], ["run", "--trace", "unread.jsonl"]])
def test_policy_the_parser_refuses_exits_1(tmp_path, capsys, command, text):
    (tmp_path / "bad.yml").write_text(text)
    assert run_cli("--policy-dir", str(tmp_path), *command) == 1
    assert capsys.readouterr().err.startswith("error: [ParseError] bad.yml: ")


def test_run_missing_trace_exits_2(policy_dir, tmp_path):
    assert run_cli("--policy-dir", str(policy_dir), "run",
                   "--trace", str(tmp_path / "nope.jsonl")) == 2


def test_run_does_not_run_with_broken_policies(tmp_path):
    (tmp_path / "bad.yml").write_text("name: ''\nentry: /bin/sh\n")
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [])
    assert run_cli("--policy-dir", str(tmp_path), "run", "--trace", str(trace)) == 1


def test_capacity_override_can_fail_compile(tmp_path):
    (tmp_path / "p.yml").write_text(
        "name: p\nentry: /bin/p\nallow:\n  - file: /a r\n  - file: /b r\n")
    trace = tmp_path / "t.jsonl"
    _write_trace(trace, [])
    assert run_cli("--policy-dir", str(tmp_path), "--capacity", "file=1",
                   "run", "--trace", str(trace)) == 1
    assert run_cli("--policy-dir", str(tmp_path), "--capacity", "file=2",
                   "run", "--trace", str(trace)) == 0


def test_explain_device_allow(policy_dir, capsys):
    event = json.dumps({"kind": "FileAccess", "pid": 1,
                        "path": "/dev/tty", "requested": "w"})
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_minimal", "--event", event) == 0
    assert capsys.readouterr().out.strip() == "Allow: device rule tty rw"


def test_explain_hardening_denial(policy_dir, capsys):
    event = json.dumps({"kind": "HardeningOp", "pid": 1, "op": "BpfSyscall"})
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_minimal", "--event", event) == 0
    assert capsys.readouterr().out.strip() == "Deny: implicit hardening (bpf)"


def test_explain_taint_transition(policy_dir, capsys):
    event = json.dumps({"kind": "FileAccess", "pid": 1,
                        "path": "/dev/tty", "requested": "r"})
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_taint", "--event", event) == 0
    out = capsys.readouterr().out.strip()
    assert out == "Allow: tainted by rule tty r, then device rule tty rw"


def test_explain_unknown_policy(policy_dir):
    event = json.dumps({"kind": "SwitchNamespaces", "pid": 1})
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "ghost", "--event", event) == 1


def test_explain_malformed_event(policy_dir):
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_minimal", "--event", "{not json") == 3
    event = json.dumps({"kind": "FileAccess", "pid": 1})
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_minimal", "--event", event) == 3


def test_explain_takes_a_null_seq_as_absent(policy_dir, capsys):
    event = {"kind": "IpcOp", "pid": 1, "peer_pid": 2, "mechanism": "Signal"}
    outs = []
    for obj in (event, {"seq": None, **event}):
        assert run_cli("--policy-dir", str(policy_dir), "explain",
                       "--policy", "hello_minimal", "--event", json.dumps(obj)) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[1].err == ""
    assert outs[1].out == "Deny: ipc with an unconfined process\n"


def test_explain_rejects_lifecycle_events(policy_dir):
    event = json.dumps({"kind": "fork", "parent": 1, "child": 2})
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_minimal", "--event", event) == 3


@pytest.mark.parametrize("event", [
    {"kind": "FileAccess", "pid": 1, "path": "/etc/passwd", "requested": "r"},
    {"kind": "SocketOp", "pid": 1, "family": "Ipv4", "op": "Connect"},
    {"kind": "IpcOp", "pid": 1, "peer_pid": 2, "mechanism": "Signal"},
    {"kind": "CapabilityUse", "pid": 1, "capability": "CAP_KILL", "possessed": True},
    {"kind": "CommitCreds", "pid": 1, "old_priv": {"uid": 1000}, "new_priv": {"uid": 0}},
    {"kind": "SwitchNamespaces", "pid": 1},
    {"kind": "HardeningOp", "pid": 1, "op": "Ptrace"},
], ids=lambda event: event["kind"])
def test_explain_decides_every_hook_kind(policy_dir, capsys, event):
    assert run_cli("--policy-dir", str(policy_dir), "explain",
                   "--policy", "hello_taint", "--event", json.dumps(event)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    verdict, _, reason = out.partition(": ")
    assert verdict in {"Allow", "Deny", "Kill"} and reason, out
    assert out.endswith("\n") and out.count("\n") == 1, out


# every failure the CLI can reach: (exit code, stderr prefix, argv), where
# {good} in argv is the example policy directory and {tmp} holds the files
# _write_failure_inputs writes
_FAILURES = {
    "lint-missing-dir": (2, "error: cannot read policy directory: ",
                         ["--policy-dir", "{tmp}/nope", "lint"]),
    "parse-error": (1, "error: [ParseError] 0.yml: bad access flag string: 'rq'",
                    ["--policy-dir", "{tmp}/bad-flags", "lint"]),
    "run-duplicate-names": (1, "error: [DuplicateName] x: ",
                            ["--policy-dir", "{tmp}/dup", "run", "--trace", "{tmp}/ok.jsonl"]),
    "capacity-overflow": (1, "error: capacity exceeded for map 'file' (limit 1)",
                          ["--policy-dir", "{tmp}/two-files", "--capacity", "file=1",
                           "run", "--trace", "{tmp}/ok.jsonl"]),
    "missing-trace": (2, "error: cannot read trace: ",
                      ["--policy-dir", "{good}", "run", "--trace", "{tmp}/nope.jsonl"]),
    "malformed-event": (3, "error: malformed trace event at seq 2: ",
                        ["--policy-dir", "{good}", "run", "--trace", "{tmp}/malformed.jsonl"]),
    "non-utf8-trace": (3, "error: trace is not valid UTF-8: ",
                       ["--policy-dir", "{good}", "run", "--trace", "{tmp}/non-utf8.jsonl"]),
    "missing-audit-dir": (2, "error: I/O error in run: ",
                          ["--policy-dir", "{good}", "run", "--trace", "{tmp}/ok.jsonl",
                           "--audit", "{tmp}/missing/a.jsonl"]),
    "explain-unknown-policy": (1, "error: no loaded policy named 'ghost'",
                               ["--policy-dir", "{good}", "explain", "--policy", "ghost",
                                "--event", '{"kind": "SwitchNamespaces", "pid": 1}']),
    "explain-invalid-json": (3, "error: event is not valid JSON: ",
                             ["--policy-dir", "{good}", "explain", "--policy", "hello_minimal",
                              "--event", "{not json"]),
    "explain-malformed-event": (3, "error: malformed trace event at seq 0: ",
                                ["--policy-dir", "{good}", "explain", "--policy", "hello_minimal",
                                 "--event", '{"kind": "FileAccess", "pid": 1}']),
    "explain-missing-uid": (3,
                            "error: malformed trace event at seq 0: missing field 'old_priv.uid'",
                            ["--policy-dir", "{good}", "explain", "--policy", "hello_minimal",
                             "--event", '{"kind": "CommitCreds", "pid": 1, "old_priv": {},'
                                        ' "new_priv": {"uid": 0}}']),
    "explain-lifecycle-event": (3, "error: explain needs a mediated event, not a lifecycle record",
                                ["--policy-dir", "{good}", "explain", "--policy", "hello_minimal",
                                 "--event", '{"kind": "fork", "parent": 1, "child": 2}']),
}


def _write_failure_inputs(tmp):
    for name, texts in {
        "bad-flags": ["name: p\nentry: /bin/p\nallow:\n  - tty: rq\n"],
        "dup": ["name: x\nentry: /bin/a\n", "name: x\nentry: /bin/b\n"],
        "two-files": ["name: p\nentry: /bin/p\nallow:\n  - file: /a r\n  - file: /b r\n"],
    }.items():
        (tmp / name).mkdir()
        for i, text in enumerate(texts):
            (tmp / name / f"{i}.yml").write_text(text)
    head = (b'{"format": 1}\n'
            b'{"seq": 1, "kind": "confine", "pid": 1, "policy_name": "hello_minimal"}\n')
    (tmp / "ok.jsonl").write_bytes(head)
    (tmp / "malformed.jsonl").write_bytes(
        head + b'{"seq": 2, "kind": "exit", "pid": 1, "oops": 1}\n')
    (tmp / "non-utf8.jsonl").write_bytes(head + b'{"seq": 2, "path": "\xff"}\n')


@pytest.mark.parametrize("case", _FAILURES)
def test_each_failure_prints_one_error_line_and_nothing_else(policy_dir, tmp_path, capsys,
                                                              case):
    code, prefix, argv = _FAILURES[case]
    tmp = tmp_path / "inputs"
    tmp.mkdir()
    _write_failure_inputs(tmp)
    argv = [a.replace("{good}", str(policy_dir)).replace("{tmp}", str(tmp)) for a in argv]
    assert run_cli(*argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err


def test_bad_capacity_flag_is_a_usage_error(policy_dir, capsys):
    # not a number; non-ASCII digits, which str.isdigit() accepts; more
    # digits than int() converts
    for spec in ("file=zero", "file=\u00b2", "file=\u0661\u0662", "file=" + "9" * 5000):
        with pytest.raises(SystemExit) as exc:
            run_cli("--policy-dir", str(policy_dir), "--capacity", spec, "lint")
        assert exc.value.code == 2, spec[:20]
        assert "expected <category>=<n>" in capsys.readouterr().err, spec[:20]


def test_run_huge_pid_exits_3_whatever_the_digit_limit(policy_dir, tmp_path):
    # with the interpreter's int/str digit limit off, json decodes a 5,000-digit
    # pid; the trace's u32 bound must still refuse it
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"format": 1}\n{"seq": 1, "kind": "confine", "pid": %s,'
                     ' "policy_name": "hello_minimal"}\n' % ("9" * 5000))
    src = str(Path(bpfcontain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "bpfcontain.cli", "--policy-dir",
                           str(policy_dir), "run", "--trace", str(trace)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "pid must be at most 4294967295" in proc.stderr


def test_the_cli_import_loads_no_dataclasses_inspect_or_logging():
    # every ``bpfcontain`` process pays for what ``cli`` imports before its
    # first event; these three cost milliseconds and the package uses none.
    # Only what the import adds counts: ``site`` may load any of them first
    # (a ``.pth`` file that imports ``certifi`` loads ``inspect`` on 3.12)
    src = str(Path(bpfcontain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import bpfcontain.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'logging'} & (sys.modules.keys() - before)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
