"""Exception hierarchy for policy parsing, compilation, and runtime state."""


class BpfcontainError(Exception):
    """Base class for all errors raised by this package."""


# --- policy parsing ---------------------------------------------------------

class PolicyParseError(BpfcontainError):
    """A policy document could not be parsed into a PolicyDocument."""


class MalformedYaml(PolicyParseError):
    pass


class MissingField(PolicyParseError):
    def __init__(self, field: str):
        super().__init__(f"missing required field: {field}")
        self.field = field


class EmptyName(PolicyParseError):
    pass


class UnknownRuleKind(PolicyParseError):
    def __init__(self, kind: str):
        super().__init__(f"unknown rule kind: {kind!r}")
        self.kind = kind


class BadAccessFlags(PolicyParseError):
    def __init__(self, flags: str):
        super().__init__(f"bad access flag string: {flags!r}")
        self.flags = flags


class InvalidPath(PolicyParseError):
    def __init__(self, path: str, why: str):
        super().__init__(f"invalid path {path!r}: {why}")
        self.path = path


class BadNetworkCategory(PolicyParseError):
    def __init__(self, category: str):
        super().__init__(f"unknown network category: {category!r}")
        self.category = category


class UnknownCapability(PolicyParseError):
    def __init__(self, name: str):
        super().__init__(f"unknown POSIX capability: {name!r}")
        self.name = name


class MalformedRule(PolicyParseError):
    pass


# --- compilation ------------------------------------------------------------

class CompileError(BpfcontainError):
    pass


class CapacityExceeded(CompileError):
    """A fixed-capacity decision map ran out of slots."""

    def __init__(self, category: str, capacity: int):
        super().__init__(f"capacity exceeded for map {category!r} (limit {capacity})")
        self.category = category
        self.capacity = capacity


# --- container state --------------------------------------------------------

class StateError(BpfcontainError):
    pass


class AlreadyConfined(StateError):
    def __init__(self, pid: int):
        super().__init__(f"pid {pid} is already associated with a container")
        self.pid = pid


class UnknownPolicy(StateError):
    def __init__(self, name: str):
        super().__init__(f"no loaded policy named {name!r}")
        self.name = name


class ContainerTableFull(StateError):
    def __init__(self, capacity: int):
        super().__init__(f"containers map is full (capacity {capacity})")
        self.capacity = capacity


class DuplicatePid(StateError):
    def __init__(self, pid: int):
        super().__init__(f"pid {pid} is already tracked")
        self.pid = pid


# --- traces -----------------------------------------------------------------

class TraceError(BpfcontainError):
    pass


class OutOfOrderTrace(TraceError):
    def __init__(self, seq: int):
        super().__init__(f"trace sequence numbers are not strictly increasing at seq {seq}")
        self.seq = seq


class MalformedEvent(TraceError):
    def __init__(self, seq, why: str):
        super().__init__(f"malformed trace event at seq {seq}: {why}")
        self.seq = seq
        self.why = why
