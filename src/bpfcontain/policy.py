"""Policy documents: the YAML confinement language and its typed rule model.

A policy grants, denies, or taints on access to files, filesystems, devices,
the network, IPC peers, and POSIX capabilities.  Documents default to
default-deny; a policy without taint rules is enforced from the start, one
with taint rules is enforced only after a taint rule first matches.
"""

from __future__ import annotations

import os
import posixpath
from enum import IntEnum, IntFlag

import yaml
from yaml.events import (
    AliasEvent,
    DocumentEndEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    StreamEndEvent,
)

from .errors import (
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

DEFAULT_POLICY_DIR = "/var/lib/bpfcontain/policy"
POLICY_DIR_ENV_VAR = "BPFCONTAIN_POLICY_DIR"


class AccessFlags(IntFlag):
    """File-style access flags, written as a string of r/w/a/x characters."""

    READ = 1
    WRITE = 2
    APPEND = 4
    EXECUTE = 8


_FLAG_CHARS = (
    ("r", AccessFlags.READ),
    ("w", AccessFlags.WRITE),
    ("a", AccessFlags.APPEND),
    ("x", AccessFlags.EXECUTE),
)
_FLAG_BITS = {ch: int(flag) for ch, flag in _FLAG_CHARS}
# every mask as its AccessFlags member, so parsing ORs plain ints
_ACCESS_MEMBERS = tuple(AccessFlags(mask) for mask in range(16))

# Access granted when a file-like rule names no flags.
DEFAULT_ACCESS = AccessFlags.READ | AccessFlags.WRITE


def parse_access(flags: str) -> AccessFlags:
    """Parse a flag string like ``"ra"`` into AccessFlags.

    Unknown characters raise BadAccessFlags; the empty string is rejected.
    """
    if not isinstance(flags, str) or not flags:
        raise BadAccessFlags(str(flags))
    mask = 0
    try:
        for ch in flags:
            mask |= _FLAG_BITS[ch]
    except KeyError:
        raise BadAccessFlags(flags) from None
    return _ACCESS_MEMBERS[mask]


ACCESS_STRINGS = tuple(
    "".join(ch for ch, flag in _FLAG_CHARS if mask & int(flag))
    for mask in range(16)
)


def format_access(mask: int) -> str:
    """Render an access mask in canonical ``rwax`` order."""
    return ACCESS_STRINGS[int(mask) & 15]


class DeviceKind(IntEnum):
    """Unprivileged character-device classes addressable by device rules."""

    TTY = 0
    RANDOM = 1
    NULL = 2
    ZERO = 3


_DEVICE_NAMES = {kind.name.lower(): kind for kind in DeviceKind}


def format_device(kind: int) -> str:
    return DeviceKind(kind).name.lower()


class NetCategory(IntFlag):
    """Socket-operation groups a network rule can grant."""

    CLIENT = 1
    SERVER = 2
    SEND = 4
    RECEIVE = 8


_NET_NAMES = {cat.name.lower(): cat for cat in NetCategory}

NET_ALL = NetCategory.CLIENT | NetCategory.SERVER | NetCategory.SEND | NetCategory.RECEIVE


_NET_STRINGS = tuple(
    " ".join(c.name.lower() for c in NetCategory if mask & int(c))
    for mask in range(16)
)


def format_net(mask: int) -> str:
    return _NET_STRINGS[int(mask) & 15]


# The Linux capability vocabulary; rule names are validated against it.
CAPABILITIES = frozenset({
    "CAP_AUDIT_CONTROL", "CAP_AUDIT_READ", "CAP_AUDIT_WRITE", "CAP_BLOCK_SUSPEND",
    "CAP_BPF", "CAP_CHECKPOINT_RESTORE", "CAP_CHOWN", "CAP_DAC_OVERRIDE",
    "CAP_DAC_READ_SEARCH", "CAP_FOWNER", "CAP_FSETID", "CAP_IPC_LOCK",
    "CAP_IPC_OWNER", "CAP_KILL", "CAP_LEASE", "CAP_LINUX_IMMUTABLE",
    "CAP_MAC_ADMIN", "CAP_MAC_OVERRIDE", "CAP_MKNOD", "CAP_NET_ADMIN",
    "CAP_NET_BIND_SERVICE", "CAP_NET_BROADCAST", "CAP_NET_RAW", "CAP_PERFMON",
    "CAP_SETFCAP", "CAP_SETGID", "CAP_SETPCAP", "CAP_SETUID", "CAP_SYSLOG",
    "CAP_SYS_ADMIN", "CAP_SYS_BOOT", "CAP_SYS_CHROOT", "CAP_SYS_MODULE",
    "CAP_SYS_NICE", "CAP_SYS_PACCT", "CAP_SYS_PTRACE", "CAP_SYS_RAWIO",
    "CAP_SYS_RESOURCE", "CAP_SYS_TIME", "CAP_SYS_TTY_CONFIG", "CAP_WAKE_ALARM",
})


def _normpath(path: str) -> str:
    norm = posixpath.normpath(path)
    # POSIX preserves a leading double slash; here it is the root like any other
    return norm[1:] if norm.startswith("//") else norm


def normalize_rule_path(path: str) -> str:
    """Lexically normalize an absolute rule path; ``..`` components are rejected."""
    if not isinstance(path, str) or not path:
        raise InvalidPath(str(path), "empty")
    if not path.startswith("/"):
        raise InvalidPath(path, "must be absolute")
    if "\x00" in path:
        raise InvalidPath(path, "must not hold a NUL")
    if ".." in path.split("/"):
        raise InvalidPath(path, "'..' components are not allowed in rules")
    return _normpath(path)


def normalize_event_path(path: str) -> str:
    """Normalize a trace-supplied path (lexical only, ``..`` resolved in place)."""
    if not path.startswith("/"):
        raise ValueError(f"event path must be absolute: {path!r}")
    if "\x00" in path:
        raise ValueError(f"event path must not hold a NUL: {path!r}")
    return _normpath(path)


class DefaultMode(IntEnum):
    DENY = 0
    ALLOW = 1


# --- records -----------------------------------------------------------------

class Value:
    """Base of the package's records: ``__slots__`` names the fields, in
    order, and each class writes its own ``__init__``.

    A record equals only a record of its own class with equal fields, so
    two classes of one shape never compare equal.  It is mutable and
    unhashable; see FrozenValue for the other kind.
    """

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


_set = object.__setattr__  # how a FrozenValue's __init__ fills its slots


class FrozenValue(Value):
    """A record that refuses assignment and hashes by its fields."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


# --- rules -------------------------------------------------------------------

class Rule(FrozenValue):
    """One rule as the compiled store keeps it.

    ``category`` names its map in ``compiler.MAP_CATEGORIES``; ``key`` is the
    normalized path, the DeviceKind, the peer policy name, the ``CAP_*``
    name, or None for network; ``access`` is the AccessFlags, the
    NetCategory mask, or 1 for ipc and capability.
    """

    __slots__ = ("category", "key", "access")

    def __init__(self, category: str, key, access: int):
        self._init(category, key, access)


class PolicyDocument(Value):
    """A parsed, normalized policy file."""

    __slots__ = ("name", "entry", "entry_args", "default", "allow", "deny", "taint")

    def __init__(self, name: str, entry: str, entry_args: tuple[str, ...] = (),
                 default: DefaultMode = DefaultMode.DENY, allow: list[Rule] | None = None,
                 deny: list[Rule] | None = None, taint: list[Rule] | None = None):
        self.name = name
        self.entry = entry
        self.entry_args = entry_args
        self.default = default
        self.allow = [] if allow is None else allow
        self.deny = [] if deny is None else deny
        self.taint = [] if taint is None else taint

    @property
    def tainted_from_start(self) -> bool:
        """A document without taint rules is enforced from its first event."""
        return not self.taint


# --- parsing -----------------------------------------------------------------

_TOP_LEVEL_KEYS = {"name", "entry", "default", "allow", "deny", "taint"}


def _split_rule_value(kind: str, value, key) -> tuple:
    """A ``<key> [flags]`` rule value as ``(key(<key>), flags)``."""
    parts = _nonblank(f"{kind} rule value", value).split()
    if len(parts) > 2:
        raise MalformedRule(f"{kind} rule value has too many fields: {value!r}")
    return key(parts[0]), parse_access(parts[1]) if len(parts) == 2 else DEFAULT_ACCESS


def _device_kind(name: str) -> DeviceKind:
    dev = _DEVICE_NAMES.get(name.lower())
    if dev is None:
        raise MalformedRule(f"unknown device kind: {name!r}")
    return dev


def _yaml_kind(value) -> str:
    """How an error names a YAML value: a string by its text, and ``~``, ``{}``
    and ``[]`` by their kind, never by their Python text."""
    if isinstance(value, str):
        return repr(value)
    return "null" if value is None else "a mapping" if isinstance(value, dict) else "a list"


def _nonblank(what: str, value) -> str:
    """``value`` if it is a string with more than blanks, else MalformedRule."""
    if isinstance(value, str) and value.strip():
        return value
    raise MalformedRule(f"{what} must be a non-empty string, got {_yaml_kind(value)}")


def _parse_network_value(value) -> NetCategory:
    if isinstance(value, str):
        names = value.replace(",", " ").split()
    elif isinstance(value, list):
        for item in value:
            if not isinstance(item, str):
                raise MalformedRule(f"network rule list item must be a category name, "
                                    f"got {_yaml_kind(item)}")
        names = value
    else:
        raise MalformedRule(f"network rule value must be a string or list, got {_yaml_kind(value)}")
    if not names:
        raise MalformedRule("network rule must name at least one category")
    cats = NetCategory(0)
    for name in names:
        cat = _NET_NAMES.get(name.strip().lower())
        if cat is None:
            raise BadNetworkCategory(name)
        cats |= cat
    return cats


def _parse_capability_value(value) -> str:
    name = _nonblank("capability rule value", value).strip().upper()
    if not name.startswith("CAP_"):
        name = "CAP_" + name
    if name not in CAPABILITIES:
        raise UnknownCapability(value)
    return name


def _parse_rule(entry) -> Rule:
    if not isinstance(entry, dict) or len(entry) != 1:
        got = f"{len(entry)} keys" if isinstance(entry, dict) else _yaml_kind(entry)
        raise MalformedRule(f"each rule must be a single-key mapping, got {got}")
    (kind, value), = entry.items()
    kind = kind.lower()
    if kind in ("file", "subdir", "filesystem", "fs"):
        category = "filesystem" if kind == "fs" else kind
        return Rule(category, *_split_rule_value(category, value, normalize_rule_path))
    if kind == "device":
        return Rule("device", *_split_rule_value("device", value, _device_kind))
    if kind == "tty":  # shorthand for ``device: tty``
        if value is None:
            return Rule("device", DeviceKind.TTY, DEFAULT_ACCESS)
        if not isinstance(value, str):
            raise MalformedRule(f"tty rule value must be a flag string, got {_yaml_kind(value)}")
        return Rule("device", DeviceKind.TTY, parse_access(value.strip()))
    if kind in ("network", "net"):
        return Rule("network", None, _parse_network_value(value))
    if kind == "ipc":
        return Rule("ipc", _nonblank("ipc rule value", value).strip(), 1)
    if kind in ("capability", "cap"):
        return Rule("capability", _parse_capability_value(value), 1)
    raise UnknownRuleKind(kind)


def _parse_rule_list(doc: dict, key: str) -> list[Rule]:
    raw = doc.get(key)
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise MalformedRule(f"{key!r} must be a list of rules")
    return [_parse_rule(entry) for entry in raw]


# a policy nests 4 deep
_MAX_DEPTH = 64
# the plain scalars that load as None; every other scalar is a str
_NULLS = frozenset({"", "~", "null", "Null", "NULL"})


def _refuse(construct: str, event):
    raise MalformedYaml(
        f"{construct} is not allowed in a policy (line {event.start_mark.line + 1})")


class _PyParser(yaml.reader.Reader, yaml.scanner.Scanner, yaml.parser.Parser):
    """PyYAML's pure-Python event source, for a PyYAML built without libyaml.

    It refuses a scalar that UTF-8 cannot hold, as libyaml does: a ``\\u``
    escape naming a lone surrogate.
    """

    def __init__(self, text: str):
        yaml.reader.Reader.__init__(self, text)
        yaml.scanner.Scanner.__init__(self)
        yaml.parser.Parser.__init__(self)

    def get_event(self):
        event = yaml.parser.Parser.get_event(self)
        if event.__class__ is ScalarEvent:
            try:
                event.value.encode("utf-8")
            except UnicodeEncodeError as exc:
                _refuse(f"a lone surrogate {exc.object[exc.start]!r}", event)
        return event


try:
    from yaml.cyaml import CParser as _Parser
except ImportError:  # PyYAML built without libyaml
    _Parser = _PyParser


def _load_events(text: str):
    """Build the policy document in one pass over the parser's events.

    Mappings, sequences and scalars become dicts, lists and str; a plain
    scalar that is empty or is ``~``, ``null``, ``Null`` or ``NULL`` is
    None, and no other is typed (``yes``, ``123`` and ``<<`` are strings).
    A text without a document is None.  The policy language has nothing
    else: a tag, an anchor, an alias, a repeated key, a null key, a
    collection as a key, nesting past _MAX_DEPTH and a second document
    each raise MalformedYaml, naming the construct and its line.
    """
    get = _Parser(text).get_event
    get()  # StreamStartEvent
    if get().__class__ is StreamEndEvent:
        return None  # no document, only comments or nothing
    cur = root = []
    stack = []
    key = None  # in a mapping, the key whose value comes next
    while True:
        event = get()
        cls = event.__class__
        if cls is MappingEndEvent or cls is SequenceEndEvent:
            cur = stack.pop()
            continue
        if cls is DocumentEndEvent:
            break
        if cls is AliasEvent:
            _refuse(f"an alias *{event.anchor}", event)
        # the tag first: in ``[!, &a y]`` libyaml ends the tag at the comma and
        # PyYAML takes ``!,`` for it, so only PyYAML's first node has the anchor
        if event.tag is not None:
            _refuse("a tag", event)  # unnamed: libyaml and PyYAML end some tags apart
        if event.anchor is not None:
            _refuse(f"an anchor &{event.anchor}", event)
        if cls is ScalarEvent:
            value = event.value
            if event.implicit[0] and value in _NULLS:
                value = None
            if key is None and cur.__class__ is dict:
                if value is None:
                    _refuse("a null key", event)
                if value in cur:
                    _refuse(f"a repeated key {value!r}", event)
                key = value
                continue
        elif key is None and cur.__class__ is dict:
            _refuse("a mapping as a key" if cls is MappingStartEvent else "a sequence as a key",
                    event)
        elif len(stack) == _MAX_DEPTH:
            _refuse(f"nesting deeper than {_MAX_DEPTH} levels", event)
        else:
            value = {} if cls is MappingStartEvent else []
        if key is None:
            cur.append(value)
        else:
            cur[key] = value
            key = None
        if cls is not ScalarEvent:
            stack.append(cur)
            cur = value
    event = get()
    if event.__class__ is not StreamEndEvent:
        _refuse("a second document", event)
    return root[0]


def parse_policy(text: str) -> PolicyDocument:
    """Parse one YAML policy document into a normalized PolicyDocument."""
    try:
        doc = _load_events(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a lone surrogate in ``text``
        raise MalformedYaml(str(exc)) from exc
    if not isinstance(doc, dict):
        raise MalformedYaml("policy document must be a YAML mapping")

    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise MalformedRule(f"unknown top-level keys: {sorted(unknown)}")

    if "name" not in doc:
        raise MissingField("name")
    name = doc["name"]
    if isinstance(name, (list, dict)):
        raise MalformedRule(f"policy name must be a string, got {_yaml_kind(name)}")
    if name is None or not name.strip():
        raise EmptyName("policy name must be a non-empty string")
    name = name.strip()

    entry_raw = doc.get("entry")
    if isinstance(entry_raw, (list, dict)):
        raise MalformedRule(f"entry must be a path, got {_yaml_kind(entry_raw)}")
    if entry_raw is None or not entry_raw.strip():
        raise MissingField("entry")
    entry_parts = entry_raw.split()
    entry = normalize_rule_path(entry_parts[0])
    entry_args = tuple(entry_parts[1:])

    mode = doc.get("default", "deny")
    default = DefaultMode.__members__.get(mode.strip().upper()) if isinstance(mode, str) else None
    if default is None:
        raise MalformedRule(f"default must be 'allow' or 'deny', got {_yaml_kind(mode)}")

    return PolicyDocument(
        name=name,
        entry=entry,
        entry_args=entry_args,
        default=default,
        allow=_parse_rule_list(doc, "allow"),
        deny=_parse_rule_list(doc, "deny"),
        taint=_parse_rule_list(doc, "taint"),
    )


# --- validation --------------------------------------------------------------

class ValidationIssue(FrozenValue):
    __slots__ = ("severity", "code", "policy", "message")  # severity: "error" | "warning"

    def __init__(self, severity: str, code: str, policy: str, message: str):
        self._init(severity, code, policy, message)

    def __str__(self) -> str:
        return f"{self.severity}: [{self.code}] {self.policy}: {self.message}"


def validate_policy_set(docs: list[PolicyDocument]) -> list[ValidationIssue]:
    """Cross-document checks; returns issues rather than raising.

    Dangling IPC peers are warnings only — the peer policy may be loaded
    later in a different directory scan.
    """
    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    names = {doc.name for doc in docs}
    for doc in docs:
        if doc.name in seen:
            issues.append(ValidationIssue(
                "error", "DuplicateName", doc.name,
                "policy name is declared by more than one document",
            ))
        seen.add(doc.name)
        for rule_list in (doc.allow, doc.deny, doc.taint):
            for rule in rule_list:
                if rule.category == "ipc" and rule.key not in names:
                    issues.append(ValidationIssue(
                        "warning", "DanglingIpcPeer", doc.name,
                        f"ipc rule references unloaded policy {rule.key!r}",
                    ))
        if doc.default == DefaultMode.DENY and not doc.allow:
            issues.append(ValidationIssue(
                "warning", "NoAllowRules", doc.name,
                "default-deny policy grants nothing explicitly",
            ))
    return issues


def policy_dir_from_env(override: str | None = None) -> str:
    """Resolve the policy directory: explicit override > env var > default."""
    if override:
        return override
    return os.environ.get(POLICY_DIR_ENV_VAR) or DEFAULT_POLICY_DIR


def load_policy_dir(path: str) -> list[tuple[str, PolicyDocument]]:
    """Parse every ``*.yml``/``*.yaml`` file under ``path`` (sorted for determinism).

    Returns (filename, document) pairs; parse errors propagate with the
    offending filename attached to the exception message.
    """
    entries = sorted(
        name for name in os.listdir(path)
        if name.endswith((".yml", ".yaml"))
    )
    docs: list[tuple[str, PolicyDocument]] = []
    for name in entries:
        try:
            with open(os.path.join(path, name), "r", encoding="utf-8") as fh:
                text = fh.read()
            docs.append((name, parse_policy(text)))
        except UnicodeDecodeError as exc:
            raise MalformedYaml(f"{name}: not valid UTF-8: {exc}") from None
        except Exception as exc:
            exc.args = (f"{name}: {exc}",)
            raise
    return docs
