"""Operator CLI: lint policies, replay traces, explain single decisions.

Exit codes: 0 success, 1 policy parse/validation errors, 2 I/O failures,
3 trace/event format errors.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import stat
import sys
import tempfile

from .compiler import MAP_CATEGORIES, MapCapacities, compile_policies
from .engine import decide
from .errors import (
    CompileError,
    PolicyParseError,
    StateError,
    TraceError,
)
from .policy import (
    DEFAULT_POLICY_DIR,
    POLICY_DIR_ENV_VAR,
    load_policy_dir,
    policy_dir_from_env,
    validate_policy_set,
)
from .state import DEFAULT_CONTAINER_CAPACITY, ContainerState
from .trace import (
    DEFAULT_AUDIT_CAPACITY,
    AuditLog,
    AuditWriter,
    LifecycleEvent,
    parse_trace,  # unused here, but perfbench/tracer.py wraps ``cli.parse_trace``
    parse_trace_object,
    replay,
)
from .transport import parsed_events

EXIT_OK = 0
EXIT_POLICY = 1
EXIT_IO = 2
EXIT_TRACE = 3

_CAPACITY_TARGETS = MAP_CATEGORIES + ("containers", "audit")


def _parse_capacity(spec: str) -> tuple[str, int]:
    category, sep, value = spec.partition("=")
    try:
        n = int(value) if value.isascii() and value.isdigit() else 0
    except ValueError:  # more digits than int() converts
        n = 0
    if not sep or category not in _CAPACITY_TARGETS or n <= 0:
        raise argparse.ArgumentTypeError(
            f"expected <category>=<n> with category in {', '.join(_CAPACITY_TARGETS)}: {spec!r}")
    return category, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpfcontain",
        description="Confinement policy engine: lint policies, replay traces, explain decisions.",
    )
    parser.add_argument(
        "--policy-dir",
        help=f"policy directory (default: ${POLICY_DIR_ENV_VAR} or {DEFAULT_POLICY_DIR})",
    )
    parser.add_argument(
        "--capacity", action="append", default=[], type=_parse_capacity,
        metavar="CATEGORY=N", help="override a map capacity (repeatable)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lint", help="parse and validate every policy in the policy directory")

    p_run = sub.add_parser("run", help="replay a trace file and report the audit summary")
    p_run.add_argument("--trace", required=True, help="JSONL trace file")
    p_run.add_argument("--audit", help="write the audit log (JSONL) to this path")

    p_explain = sub.add_parser("explain", help="decide one inline event under one policy")
    p_explain.add_argument("--policy", required=True, help="policy name")
    p_explain.add_argument("--event", required=True, help="event as inline JSON")

    return parser


def _capacities(args) -> tuple[MapCapacities, int, int]:
    overrides = dict(args.capacity)
    containers = overrides.pop("containers", DEFAULT_CONTAINER_CAPACITY)
    audit = overrides.pop("audit", DEFAULT_AUDIT_CAPACITY)
    return MapCapacities(**overrides), containers, audit


def _info(args, message: str):
    """With ``-v`` (or more), write ``message`` to stderr as a progress line."""
    if args.verbose:
        print(f"INFO bpfcontain: {message}", file=sys.stderr)


class _Fail(Exception):
    """``_Fail(code, message)``: ``main`` prints the message to stderr and exits with code."""


def _load_policies(args):
    """Parse and cross-validate the policy directory: ``(docs, issues)``."""
    policy_dir = policy_dir_from_env(args.policy_dir)
    try:
        named_docs = load_policy_dir(policy_dir)
    except OSError as exc:
        raise _Fail(EXIT_IO, f"error: cannot read policy directory: {exc}")
    except PolicyParseError as exc:
        raise _Fail(EXIT_POLICY, f"error: [ParseError] {exc}")
    docs = [doc for _, doc in named_docs]
    _info(args, f"loaded {len(docs)} policies from {policy_dir}")
    return docs, validate_policy_set(docs)


def cmd_lint(args) -> int:
    """Report the policy set's issues and, when none is an error, what
    compiling it under the ``--capacity`` maps refuses, as ``run`` would."""
    docs, issues = _load_policies(args)
    for issue in issues:
        print(str(issue))
    errors = sum(1 for i in issues if i.severity == "error")
    warnings = len(issues) - errors
    if not errors:
        try:
            compile_policies(docs, _capacities(args)[0])
        except CompileError as exc:
            print(f"error: {exc}")
            errors = 1
    print(f"{len(docs)} policies, {errors} error(s), {warnings} warning(s)")
    return EXIT_POLICY if errors else EXIT_OK


def _compile_for_run(args):
    """Compile the policy directory: ``(store, container capacity, audit capacity)``."""
    docs, issues = _load_policies(args)
    errors = [str(i) for i in issues if i.severity == "error"]
    if errors:
        raise _Fail(EXIT_POLICY, "\n".join(errors))
    capacities, containers, audit = _capacities(args)
    sizes = ", ".join(f"{cat}={getattr(capacities, cat)}" for cat in MAP_CATEGORIES)
    _info(args, f"capacities: {sizes}, containers={containers}, audit={audit}")
    try:
        store = compile_policies(docs, capacities)
    except CompileError as exc:
        raise _Fail(EXIT_POLICY, f"error: {exc}")
    entries = ", ".join(f"{cat}={store.count(cat)}" for cat in MAP_CATEGORIES)
    _info(args, f"store entries: {entries}")
    return store, containers, audit


def _open_audit(path: str):
    """Open the audit output: ``(file, temp path or None, final path)``.

    A missing file, or a regular file with one link, is written through a
    temp file beside the symlink-resolved path, made with the mode, owner
    and group ``open(path, "w")`` would leave there, to replace it on
    success.  Anything else (a device, a pipe, a hard-linked file, or an
    owner the temp file cannot be given) is ``open(path, "w")``, written in
    place as the run goes.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and (not stat.S_ISREG(st.st_mode) or st.st_nlink > 1):
        return open(path, "w", encoding="utf-8"), None, path
    target = os.path.realpath(path)
    if st is None:
        umask = os.umask(0o022)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        os.close(os.open(target, os.O_WRONLY))  # the permission check open(path, "w") makes
        mode = stat.S_IMODE(st.st_mode)
    try:
        fd, tmp = tempfile.mkstemp(prefix=".audit-", suffix=".tmp", dir=os.path.dirname(target))
    except OSError as exc:  # name the path given, not the temp file
        exc.filename = path
        raise
    try:
        if st is not None:
            own = os.fstat(fd)
            if (own.st_uid, own.st_gid) != (st.st_uid, st.st_gid):
                os.fchown(fd, st.st_uid, st.st_gid)
        os.fchmod(fd, mode)
    except PermissionError:
        os.close(fd)
        os.unlink(tmp)
        return open(path, "w", encoding="utf-8"), None, path
    except BaseException:
        os.close(fd)
        os.unlink(tmp)
        raise
    return open(fd, "w", encoding="utf-8"), tmp, target


@contextlib.contextmanager
def _audit_records(path: str | None):
    """The records sink for ``replay``: written through to ``path``, if given.

    Where ``_open_audit`` gives a temp file, it replaces ``path``'s target
    only when the block succeeds; on any error it is removed and an
    existing file is left as it was.
    """
    if path is None:
        yield AuditWriter()
        return
    fh, tmp, target = _open_audit(path)
    try:
        with fh:
            yield AuditWriter(fh.write)
        if tmp is not None:
            os.replace(tmp, target)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise


def cmd_run(args) -> int:
    store, containers, audit_capacity = _compile_for_run(args)
    try:
        trace_fh = open(args.trace, "r", encoding="utf-8")
    except OSError as exc:
        raise _Fail(EXIT_IO, f"error: cannot read trace: {exc}")
    try:
        # the events are parsed in a forked child, where one can be; the
        # audit header is buffered before the fork and is written by this
        # process alone
        with trace_fh, _audit_records(args.audit) as records, parsed_events(trace_fh) as events:
            state = ContainerState(store, max_containers=containers)
            audit = AuditLog(audit_capacity, records)
            replay(events, state, audit)
    except OSError as exc:  # the audit file, the trace, or a parser process that ended early
        raise _Fail(EXIT_IO, f"error: I/O error in run: {exc}")
    except TraceError as exc:
        raise _Fail(EXIT_TRACE, f"error: {exc}")
    except UnicodeDecodeError as exc:
        raise _Fail(EXIT_TRACE, f"error: trace is not valid UTF-8: {exc}")
    _info(args, f"parsed {audit.events} events from {args.trace}")
    _info(args, f"replayed {audit.events} events: {len(audit.records)} audit records kept,"
                f" {audit.dropped} dropped, {len(state.containers)} containers live")

    s = audit.summary()
    line = (f"events={s['events']} allows={s['allows']} denies={s['denies']}"
            f" kills={s['kills']} taints={s['taints']}")
    if s["dropped"]:
        line += f" dropped={s['dropped']}"
    print(line)
    return EXIT_OK


def cmd_explain(args) -> int:
    store, containers, _ = _compile_for_run(args)
    if store.meta(args.policy) is None:
        raise _Fail(EXIT_POLICY, f"error: no loaded policy named {args.policy!r}")
    try:
        obj = json.loads(args.event)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise _Fail(EXIT_TRACE, f"error: event is not valid JSON: {exc}")
    try:
        event = parse_trace_object(obj, seq=0).event
    except TraceError as exc:
        raise _Fail(EXIT_TRACE, f"error: {exc}")
    if isinstance(event, LifecycleEvent):
        raise _Fail(EXIT_TRACE, "error: explain needs a mediated event, not a lifecycle record")

    # a one-container world: confine the event's pid, then judge the event
    state = ContainerState(store, max_containers=containers)
    try:
        state.confine(event.pid, args.policy)
    except StateError as exc:
        raise _Fail(EXIT_POLICY, f"error: {exc}")
    print(decide(event, state).explain())
    return EXIT_OK


_freeze_at_exit = False


def main(argv=None) -> int:
    global _freeze_at_exit
    if not _freeze_at_exit:
        # The interpreter's last cyclic collection walks every object the run
        # loaded and frees nothing that needs freeing: main closes its files
        # and reaps the parser child before it returns, and Python never
        # promises __del__ for cyclic garbage at exit.  So the process
        # freezes what is left as it exits, registered once however often
        # main runs; a forked child leaves through os._exit and never runs it.
        atexit.register(gc.freeze)
        _freeze_at_exit = True
    args = build_parser().parse_args(argv)
    command = {"lint": cmd_lint, "run": cmd_run, "explain": cmd_explain}[args.command]
    try:
        return command(args)
    except _Fail as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
