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
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode

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

try:
    from yaml.cyaml import CParser
except ImportError:  # PyYAML built without libyaml
    CParser = None
    _Loader = yaml.SafeLoader
else:
    class _Loader(CParser, yaml.composer.Composer,
                  yaml.constructor.SafeConstructor, yaml.resolver.Resolver):
        """SafeLoader with libyaml's scanner and parser.

        It loads the texts `_load_events` defers: tags, anchors, aliases,
        merge keys, non-string scalars and keys, deep nesting, a second
        document and anything libyaml refuses.  The nodes are composed in
        Python, not by CParser: its composer recurses on the C stack, so
        deep nesting would crash the interpreter instead of raising
        RecursionError.
        """

        get_single_node = yaml.composer.Composer.get_single_node
        compose_document = yaml.composer.Composer.compose_document
        compose_node = yaml.composer.Composer.compose_node

        def __init__(self, stream):
            CParser.__init__(self, stream)
            yaml.composer.Composer.__init__(self)
            yaml.constructor.SafeConstructor.__init__(self)
            yaml.resolver.Resolver.__init__(self)

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
    if ".." in path.split("/"):
        raise InvalidPath(path, "'..' components are not allowed in rules")
    return _normpath(path)


def normalize_event_path(path: str) -> str:
    """Normalize a trace-supplied path (lexical only, ``..`` resolved in place)."""
    if not path.startswith("/"):
        raise ValueError(f"event path must be absolute: {path!r}")
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

class FileRule(FrozenValue):
    __slots__ = ("path", "access")

    def __init__(self, path: str, access: AccessFlags):
        self._init(path, access)


class SubdirRule(FrozenValue):
    __slots__ = ("path", "access")

    def __init__(self, path: str, access: AccessFlags):
        self._init(path, access)


class FilesystemRule(FrozenValue):
    __slots__ = ("mountpoint", "access")

    def __init__(self, mountpoint: str, access: AccessFlags):
        self._init(mountpoint, access)


class DeviceRule(FrozenValue):
    __slots__ = ("kind", "access")

    def __init__(self, kind: DeviceKind, access: AccessFlags):
        self._init(kind, access)


class TtyRule(FrozenValue):
    __slots__ = ("access",)

    def __init__(self, access: AccessFlags):
        self._init(access)


class NetworkRule(FrozenValue):
    __slots__ = ("categories",)

    def __init__(self, categories: NetCategory):
        self._init(categories)


class IpcRule(FrozenValue):
    __slots__ = ("other_policy_name",)

    def __init__(self, other_policy_name: str):
        self._init(other_policy_name)


class CapabilityRule(FrozenValue):
    __slots__ = ("capability_name",)

    def __init__(self, capability_name: str):
        self._init(capability_name)


Rule = (
    FileRule | SubdirRule | FilesystemRule | DeviceRule | TtyRule
    | NetworkRule | IpcRule | CapabilityRule
)


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
    if not isinstance(value, str) or not value.strip():
        raise MalformedRule(f"{kind} rule value must be a non-empty string")
    parts = value.split()
    if len(parts) > 2:
        raise MalformedRule(f"{kind} rule value has too many fields: {value!r}")
    return key(parts[0]), parse_access(parts[1]) if len(parts) == 2 else DEFAULT_ACCESS


def _device_kind(name: str) -> DeviceKind:
    dev = _DEVICE_NAMES.get(name.lower())
    if dev is None:
        raise MalformedRule(f"unknown device kind: {name!r}")
    return dev


def _parse_network_value(value) -> NetCategory:
    if isinstance(value, str):
        names = value.replace(",", " ").split()
    elif isinstance(value, list):
        names = [str(v) for v in value]
    else:
        raise MalformedRule(f"network rule value must be a string or list: {value!r}")
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
    if not isinstance(value, str) or not value.strip():
        raise MalformedRule(f"capability rule value must be a non-empty string: {value!r}")
    name = value.strip().upper()
    if not name.startswith("CAP_"):
        name = "CAP_" + name
    if name not in CAPABILITIES:
        raise UnknownCapability(value)
    return name


def _parse_rule(entry) -> Rule:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise MalformedRule(f"each rule must be a single-key mapping, got {entry!r}")
    (kind, value), = entry.items()
    kind = str(kind).lower()
    if kind == "file":
        return FileRule(*_split_rule_value("file", value, normalize_rule_path))
    if kind == "subdir":
        return SubdirRule(*_split_rule_value("subdir", value, normalize_rule_path))
    if kind in ("filesystem", "fs"):
        return FilesystemRule(*_split_rule_value("filesystem", value, normalize_rule_path))
    if kind == "device":
        return DeviceRule(*_split_rule_value("device", value, _device_kind))
    if kind == "tty":
        if value is None:
            return TtyRule(DEFAULT_ACCESS)
        if not isinstance(value, str):
            raise BadAccessFlags(str(value))
        return TtyRule(parse_access(value.strip()))
    if kind in ("network", "net"):
        return NetworkRule(_parse_network_value(value))
    if kind == "ipc":
        if not isinstance(value, str) or not value.strip():
            raise MalformedRule(f"ipc rule value must be a policy name: {value!r}")
        return IpcRule(value.strip())
    if kind in ("capability", "cap"):
        return CapabilityRule(_parse_capability_value(value))
    raise UnknownRuleKind(kind)


def _parse_rule_list(doc: dict, key: str) -> list[Rule]:
    raw = doc.get(key)
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise MalformedRule(f"{key!r} must be a list of rules")
    return [_parse_rule(entry) for entry in raw]


def _check_utf8(doc):
    """Raise UnicodeEncodeError (a ValueError) for any string in the loaded
    document, keys included, that UTF-8 cannot hold: a lone surrogate, which
    a ``\\u`` escape can name and only libyaml refuses while parsing."""
    stack, seen = [doc], set()
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            node.encode("utf-8")
        elif isinstance(node, (dict, list, tuple, set)) and id(node) not in seen:
            seen.add(id(node))  # aliases may share a node or make a cycle
            stack.extend(node)
            if isinstance(node, dict):
                stack.extend(node.values())


class _Defer(Exception):
    """`_load_events` met a text that only `_Loader` builds."""


# a policy nests 4 deep; past this `_Loader` runs, and keeps its RecursionError
_MAX_DEPTH = 64
_RESOLVER = yaml.resolver.Resolver()


def _load_events(text: str):
    """Build the document in one pass over libyaml's events, as `_Loader`
    would: dicts, lists and str, a repeated key keeping its last value at
    its first position.

    Raise _Defer on anything else: a tag, an anchor or alias, a key that
    is not a string, a plain scalar that resolves to another type (the
    ``<<`` merge key included), nesting past _MAX_DEPTH, a second document,
    or a YAMLError.  No string needs a UTF-8 check: CParser encodes the
    text first, and libyaml refuses a ``\\u`` escape naming a surrogate.
    """
    if CParser is None:
        raise _Defer
    implicit = _RESOLVER.yaml_implicit_resolvers
    try:
        get = CParser(text).get_event
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
            if cls is AliasEvent or event.anchor is not None or event.tag is not None:
                raise _Defer
            if cls is ScalarEvent:
                value = event.value
                # only a plain scalar whose first character starts some
                # implicit type (or an empty one) can resolve to a non-str
                if event.implicit[0] and value[:1] in implicit and \
                        _RESOLVER.resolve(ScalarNode, value, event.implicit) \
                        != _RESOLVER.DEFAULT_SCALAR_TAG:
                    raise _Defer
                if key is None and cur.__class__ is dict:
                    key = value
                    continue
            elif (key is None and cur.__class__ is dict) or len(stack) == _MAX_DEPTH:
                raise _Defer  # a collection as a key, or too deep
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
        if get().__class__ is not StreamEndEvent:
            raise _Defer  # a second document
    except yaml.YAMLError:
        raise _Defer from None
    return root[0]


def parse_policy(text: str) -> PolicyDocument:
    """Parse one YAML policy document into a normalized PolicyDocument."""
    try:
        try:
            doc = _load_events(text)
        except _Defer:
            doc = yaml.load(text, Loader=_Loader)
            if _Loader is yaml.SafeLoader:  # libyaml refuses a lone surrogate itself
                _check_utf8(doc)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # long int, surrogate, depth
        raise MalformedYaml(str(exc)) from exc
    except (LookupError, AttributeError) as exc:
        # a tag's constructor tripping on its value: KeyError for `!!bool maybe`,
        # IndexError for `!!int ''`, AttributeError for `!!timestamp foo`
        raise MalformedYaml(
            f"cannot construct a tagged value ({type(exc).__name__}: {exc})") from exc
    if not isinstance(doc, dict):
        raise MalformedYaml("policy document must be a YAML mapping")

    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise MalformedRule(f"unknown top-level keys: {sorted(unknown, key=str)}")

    if "name" not in doc:
        raise MissingField("name")
    name = doc["name"]
    if not isinstance(name, str) or not name.strip():
        raise EmptyName("policy name must be a non-empty string")
    name = name.strip()

    if "entry" not in doc:
        raise MissingField("entry")
    entry_raw = doc["entry"]
    if not isinstance(entry_raw, str) or not entry_raw.strip():
        raise MissingField("entry")
    entry_parts = entry_raw.split()
    entry = normalize_rule_path(entry_parts[0])
    entry_args = tuple(entry_parts[1:])

    default = DefaultMode.DENY
    if "default" in doc:
        mode = str(doc["default"]).strip().lower()
        if mode == "allow":
            default = DefaultMode.ALLOW
        elif mode == "deny":
            default = DefaultMode.DENY
        else:
            raise MalformedRule(f"default must be 'allow' or 'deny', got {doc['default']!r}")

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
                if isinstance(rule, IpcRule) and rule.other_policy_name not in names:
                    issues.append(ValidationIssue(
                        "warning", "DanglingIpcPeer", doc.name,
                        f"ipc rule references unloaded policy {rule.other_policy_name!r}",
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
