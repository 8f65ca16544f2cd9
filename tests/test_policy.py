"""Policy parsing and validation."""

import pytest

from bpfcontain.compiler import compile_policies
from bpfcontain.errors import (
    BadAccessFlags,
    BadNetworkCategory,
    EmptyName,
    InvalidPath,
    MalformedRule,
    MalformedYaml,
    MissingField,
    UnknownCapability,
    UnknownRuleKind,
)
from bpfcontain.policy import (
    AccessFlags,
    DefaultMode,
    DeviceKind,
    NetCategory,
    Rule,
    format_access,
    parse_access,
    parse_policy,
    validate_policy_set,
)

from conftest import MINIMAL_POLICY, TAINT_POLICY


def test_parse_minimal_policy():
    doc = parse_policy(MINIMAL_POLICY)
    assert doc.name == "hello_minimal"
    assert doc.entry == "/usr/bin/hello.static"
    assert doc.default == DefaultMode.DENY
    assert doc.allow == [Rule("device", DeviceKind.TTY, AccessFlags.READ | AccessFlags.WRITE)]
    assert doc.deny == []
    assert doc.taint == []
    assert doc.tainted_from_start


def test_parse_taint_policy():
    doc = parse_policy(TAINT_POLICY)
    assert doc.name == "hello_taint"
    assert doc.entry == "/usr/bin/hello.dynamic"
    assert doc.allow == [Rule("device", DeviceKind.TTY, AccessFlags.READ | AccessFlags.WRITE)]
    assert doc.taint == [Rule("device", DeviceKind.TTY, AccessFlags.READ)]
    assert not doc.tainted_from_start


def test_missing_name():
    with pytest.raises(MissingField) as exc:
        parse_policy("entry: /bin/sh\n")
    assert exc.value.field == "name"


def test_missing_entry():
    with pytest.raises(MissingField) as exc:
        parse_policy("name: x\n")
    assert exc.value.field == "entry"


# a header field that is there but holds a list or a mapping is named by its
# YAML kind: never "missing", never by the Python text of its value
@pytest.mark.parametrize("header,message", [
    ("entry: [x]", "entry must be a path, got a list"),
    ("entry: {a: b}", "entry must be a path, got a mapping"),
    ("entry: /bin/sh\ndefault: [allow]", "default must be 'allow' or 'deny', got a list"),
    ("entry: /bin/sh\ndefault: {a: b}", "default must be 'allow' or 'deny', got a mapping"),
    ("entry: /bin/sh\ndefault: ~", "default must be 'allow' or 'deny', got null"),
])
def test_a_header_field_names_the_kind_it_got(header, message):
    with pytest.raises(MalformedRule) as exc:
        parse_policy(f"name: x\n{header}\n")
    assert type(exc.value) is MalformedRule
    assert str(exc.value) == message


# so is a name, a rule or a rule value that is there but holds no string
_RULE = "name: x\nallow:\n  - "


@pytest.mark.parametrize("text,message", [
    ("name: [x]", "policy name must be a string, got a list"),
    ("name: {a: b}", "policy name must be a string, got a mapping"),
    (_RULE + "capability: [x]", "capability rule value must be a non-empty string, got a list"),
    (_RULE + "cap: ~", "capability rule value must be a non-empty string, got null"),
    (_RULE + "ipc: [x]", "ipc rule value must be a non-empty string, got a list"),
    (_RULE + "ipc: ' '", "ipc rule value must be a non-empty string, got ' '"),
    (_RULE + "tty: [x]", "tty rule value must be a flag string, got a list"),
    (_RULE + "net: {a: b}", "network rule value must be a string or list, got a mapping"),
    (_RULE + "file: {a: b}", "file rule value must be a non-empty string, got a mapping"),
    (_RULE + "[x]", "each rule must be a single-key mapping, got a list"),
    (_RULE + "tty", "each rule must be a single-key mapping, got 'tty'"),
    (_RULE + "{tty: r, ipc: x}", "each rule must be a single-key mapping, got 2 keys"),
])
def test_a_name_or_rule_names_the_kind_it_got(text, message):
    with pytest.raises(MalformedRule) as exc:
        parse_policy(f"entry: /bin/sh\n{text}\n")
    assert type(exc.value) is MalformedRule
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["", " ~", " '  '"])
def test_a_null_or_blank_name_is_empty(name):
    with pytest.raises(EmptyName):
        parse_policy(f"name:{name}\nentry: /bin/sh\n")


@pytest.mark.parametrize("entry", ["", " ~", " null", " ''", " '  '"])
def test_a_null_or_blank_entry_is_missing(entry):
    with pytest.raises(MissingField) as exc:
        parse_policy(f"name: x\nentry:{entry}\n")
    assert exc.value.field == "entry"


def test_empty_name():
    with pytest.raises(EmptyName):
        parse_policy("name: ''\nentry: /bin/sh\n")


def test_malformed_yaml():
    with pytest.raises(MalformedYaml):
        parse_policy("name: [unclosed\n")
    with pytest.raises(MalformedYaml):
        parse_policy("- just\n- a\n- list\n")


def test_unknown_rule_kind():
    with pytest.raises(UnknownRuleKind):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - frobnicate: yes\n")


def test_unknown_top_level_key():
    with pytest.raises(MalformedRule):
        parse_policy("name: x\nentry: /bin/sh\ncmdline: -v\n")


@pytest.mark.parametrize("flags", ["rq", "z", "RW", "r w"])
def test_bad_access_flags(flags):
    with pytest.raises(BadAccessFlags):
        parse_access(flags)


def test_access_flags_round_trip():
    assert parse_access("ra") == AccessFlags.READ | AccessFlags.APPEND
    assert format_access(parse_access("xwar")) == "rwax"
    assert format_access(parse_access("r")) == "r"


def test_default_mode():
    doc = parse_policy("name: x\nentry: /bin/sh\ndefault: allow\n")
    assert doc.default == DefaultMode.ALLOW
    with pytest.raises(MalformedRule):
        parse_policy("name: x\nentry: /bin/sh\ndefault: maybe\n")


def test_file_rule_with_and_without_flags():
    doc = parse_policy(
        "name: x\nentry: /bin/sh\nallow:\n"
        "  - file: /var/log/mylog.log ra\n"
        "  - file: /etc/app.conf\n"
    )
    assert doc.allow[0] == Rule("file", "/var/log/mylog.log",
                                AccessFlags.READ | AccessFlags.APPEND)
    # omitted flags default to read+write
    assert doc.allow[1] == Rule("file", "/etc/app.conf", AccessFlags.READ | AccessFlags.WRITE)


def test_paths_must_be_absolute_and_clean():
    with pytest.raises(InvalidPath):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - file: relative/path r\n")
    with pytest.raises(InvalidPath):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - subdir: /a/../b r\n")
    doc = parse_policy("name: x\nentry: /bin/sh\nallow:\n  - file: //a//b/./c r\n")
    assert doc.allow[0].key == "/a/b/c"


# no kernel path holds a NUL: YAML's "\0" and "\x00" escapes make one
@pytest.mark.parametrize("text", [
    'entry: /bin/sh\nallow:\n  - file: "/a\\x00b r"',
    'entry: /bin/sh\nallow:\n  - subdir: "/a/\\0"',
    'entry: "/bin/s\\0h --flag"',
])
def test_a_nul_in_a_path_is_refused(text):
    with pytest.raises(InvalidPath, match="must not hold a NUL"):
        parse_policy(f"name: x\n{text}\n")


def test_subdir_filesystem_device_rules():
    doc = parse_policy(
        "name: x\nentry: /bin/sh\nallow:\n"
        "  - subdir: /data rw\n"
        "  - fs: /var r\n"
        "  - filesystem: / r\n"
        "  - device: random r\n"
    )
    assert doc.allow[0] == Rule("subdir", "/data", AccessFlags.READ | AccessFlags.WRITE)
    assert doc.allow[1] == Rule("filesystem", "/var", AccessFlags.READ)
    assert doc.allow[2] == Rule("filesystem", "/", AccessFlags.READ)
    assert doc.allow[3] == Rule("device", DeviceKind.RANDOM, AccessFlags.READ)
    with pytest.raises(MalformedRule):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - device: floppy r\n")


# ``<key> [flags]`` rule values and the message each malformed one gets; the
# field count is checked before the key
@pytest.mark.parametrize("rule, error, message", [
    ("file: ''", MalformedRule, "file rule value must be a non-empty string"),
    ("subdir: [/a]", MalformedRule, "subdir rule value must be a non-empty string"),
    ("fs: /a r w", MalformedRule, "filesystem rule value has too many fields: '/a r w'"),
    ("file: ../a r w", MalformedRule, "file rule value has too many fields: '../a r w'"),
    ("file: a r", InvalidPath, "a"),
    ("device: ''", MalformedRule, "device rule value must be a non-empty string"),
    ("device: floppy r", MalformedRule, "unknown device kind: 'floppy'"),
    ("device: floppy r w", MalformedRule, "device rule value has too many fields: 'floppy r w'"),
    ("device: TTY rq", BadAccessFlags, ""),
])
def test_malformed_key_and_flags_values(rule, error, message):
    with pytest.raises(error) as info:
        parse_policy(f"name: x\nentry: /bin/sh\nallow:\n  - {rule}\n")
    assert message in str(info.value)


def test_key_and_flags_values_default_to_rw():
    doc = parse_policy("name: x\nentry: /bin/sh\nallow:\n  - device: Zero\n  - file: /a/\n")
    assert doc.allow == [Rule("device", DeviceKind.ZERO, AccessFlags.READ | AccessFlags.WRITE),
                         Rule("file", "/a", AccessFlags.READ | AccessFlags.WRITE)]


def test_network_rule_forms():
    doc = parse_policy(
        "name: x\nentry: /bin/sh\nallow:\n"
        "  - network: client\n"
        "  - net: [server, send]\n"
        "  - network: client receive\n"
    )
    assert doc.allow[0] == Rule("network", None, NetCategory.CLIENT)
    assert doc.allow[1] == Rule("network", None, NetCategory.SERVER | NetCategory.SEND)
    assert doc.allow[2] == Rule("network", None, NetCategory.CLIENT | NetCategory.RECEIVE)
    with pytest.raises(BadNetworkCategory):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - network: broadcast\n")
    with pytest.raises(MalformedRule):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - network: []\n")


# a network list item that is no string is named by its YAML kind, never
# by the Python text of its value
@pytest.mark.parametrize("value,what", [
    ("[~]", "null"), ("[{a: b}]", "a mapping"), ("[[client]]", "a list"),
    ("[client, ~]", "null"),
])
def test_a_network_list_item_must_be_a_category_name(value, what):
    with pytest.raises(MalformedRule) as exc:
        parse_policy(f"name: x\nentry: /bin/sh\nallow:\n  - net: {value}\n")
    assert type(exc.value) is MalformedRule
    assert str(exc.value) == f"network rule list item must be a category name, got {what}"


def test_capability_rule_normalization():
    doc = parse_policy(
        "name: x\nentry: /bin/sh\nallow:\n"
        "  - capability: CAP_SYS_ADMIN\n"
        "  - cap: net_bind_service\n"
    )
    assert doc.allow[0] == Rule("capability", "CAP_SYS_ADMIN", 1)
    assert doc.allow[1] == Rule("capability", "CAP_NET_BIND_SERVICE", 1)
    with pytest.raises(UnknownCapability):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - capability: CAP_TIME_TRAVEL\n")


R, W, A, X = AccessFlags.READ, AccessFlags.WRITE, AccessFlags.APPEND, AccessFlags.EXECUTE

# every rule spelling and the one Rule it parses to: the category it names
# is the map the compiler puts it in
SPELLINGS = {
    "file": ("file: /etc/app.conf ra", Rule("file", "/etc/app.conf", R | A)),
    "subdir": ("subdir: /data/ x", Rule("subdir", "/data", X)),
    "filesystem": ("filesystem: /var w", Rule("filesystem", "/var", W)),
    "fs": ("fs: /", Rule("filesystem", "/", R | W)),
    "device": ("device: random r", Rule("device", DeviceKind.RANDOM, R)),
    "device-tty": ("device: tty", Rule("device", DeviceKind.TTY, R | W)),
    "tty-flags": ("tty: wa", Rule("device", DeviceKind.TTY, W | A)),
    "tty-bare": ("tty:", Rule("device", DeviceKind.TTY, R | W)),
    "network": ("network: client, receive",
                Rule("network", None, NetCategory.CLIENT | NetCategory.RECEIVE)),
    "net-list": ("net: [server, send]",
                 Rule("network", None, NetCategory.SERVER | NetCategory.SEND)),
    "ipc": ("ipc: other", Rule("ipc", "other", 1)),
    "capability": ("capability: CAP_KILL", Rule("capability", "CAP_KILL", 1)),
    "cap-bare": ("cap: net_raw", Rule("capability", "CAP_NET_RAW", 1)),
    "upper-case-kind": ("SubDir: /srv r", Rule("subdir", "/srv", R)),
}


@pytest.mark.parametrize("text, rule", SPELLINGS.values(), ids=SPELLINGS.keys())
def test_each_rule_spelling_parses_to_its_rule(text, rule):
    doc = parse_policy(f"name: x\nentry: /bin/sh\nallow:\n  - {text}\ntaint:\n  - {text}\n")
    assert doc.allow == doc.taint == [rule]


@pytest.mark.parametrize("tty", ["tty: rw", "tty:"])
def test_tty_and_device_tty_compile_to_equal_metas(tty):
    metas = []
    for rule in (tty, "device: tty rw"):
        store = compile_policies([parse_policy(f"name: x\nentry: /bin/sh\nallow:\n  - {rule}\n")])
        metas.append(store.meta("x"))
    assert metas[0] == metas[1]


def test_entry_with_arguments():
    doc = parse_policy("name: x\nentry: /usr/bin/app --flag value\n")
    assert doc.entry == "/usr/bin/app"
    assert doc.entry_args == ("--flag", "value")


def test_rule_must_be_single_key_mapping():
    with pytest.raises(MalformedRule):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - tty: rw\n    file: /x r\n")
    with pytest.raises(MalformedRule):
        parse_policy("name: x\nentry: /bin/sh\nallow:\n  - just a string\n")


def test_validate_duplicate_names():
    a = parse_policy("name: x\nentry: /bin/a\nallow:\n  - tty: rw\n")
    b = parse_policy("name: x\nentry: /bin/b\nallow:\n  - tty: r\n")
    issues = validate_policy_set([a, b])
    assert any(i.code == "DuplicateName" and i.severity == "error" for i in issues)


def test_validate_dangling_ipc_peer_is_warning():
    a = parse_policy("name: a\nentry: /bin/a\nallow:\n  - ipc: b\n")
    issues = validate_policy_set([a])
    dangling = [i for i in issues if i.code == "DanglingIpcPeer"]
    assert len(dangling) == 1
    assert dangling[0].severity == "warning"


@pytest.mark.parametrize("which", ["allow", "deny", "taint"])
def test_validate_dangling_ipc_peer_in_each_rule_list(which):
    a = parse_policy(f"name: a\nentry: /bin/a\n{which}:\n  - ipc: gone\n  - ipc: b\n")
    b = parse_policy("name: b\nentry: /bin/b\nallow:\n  - tty: rw\n")
    dangling = [i for i in validate_policy_set([a, b]) if i.code == "DanglingIpcPeer"]
    assert [str(i) for i in dangling] == [
        "warning: [DanglingIpcPeer] a: ipc rule references unloaded policy 'gone'"]


def test_validate_single_policy_is_clean():
    doc = parse_policy(MINIMAL_POLICY)
    assert validate_policy_set([doc]) == []


def test_validate_empty_default_deny_warns():
    doc = parse_policy("name: x\nentry: /bin/sh\n")
    issues = validate_policy_set([doc])
    assert any(i.code == "NoAllowRules" and i.severity == "warning" for i in issues)
