"""Check every record of an audit log against the rule-walking oracle.

The oracle (``tests/oracle.py``) judges each mediated event from the raw
policy documents, with no compiled store and no shared kernel code.  This
module mirrors the container world through confine, fork, exit and kill,
predicts the full record sequence (Created/Removed records, the verdict
and taint transition of every mediated event, container ids and policy
names) and compares it with the audit file record by record.

Import only after ``src`` and ``tests`` are on ``sys.path``.
"""

from __future__ import annotations

import json
import posixpath

import oracle
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
from bpfcontain.policy import AccessFlags, parse_policy

_FLAG_BITS = {"r": 1, "w": 2, "a": 4, "x": 8}
_MECHANISMS = {
    "UnixSocket": IpcMechanism.UNIX_SOCKET, "Signal": IpcMechanism.SIGNAL,
    "SysV": IpcMechanism.SYSV, "ShMem": IpcMechanism.SHMEM,
}
_HARDENING = {
    "BpfSyscall": HardeningKind.BPF_SYSCALL, "Keyring": HardeningKind.KEYRING,
    "Ptrace": HardeningKind.PTRACE, "Mount": HardeningKind.MOUNT,
    "Lockdown": HardeningKind.LOCKDOWN,
    "UnlinkPinnedObject": HardeningKind.UNLINK_PINNED_OBJECT,
}


class WorkloadError(Exception):
    """The generated trace contains an operation that fails by design."""


def _path(raw: str) -> str:
    norm = posixpath.normpath(raw)
    return norm[1:] if norm.startswith("//") else norm


def _priv(obj) -> PrivLevel:
    return PrivLevel(obj["uid"], frozenset(obj["capability_set"]))


def to_event(obj: dict):
    """A wire-format mediated event as the oracle's input object."""
    kind, pid = obj["kind"], obj["pid"]
    if kind == "FileAccess":
        mask = sum(_FLAG_BITS[ch] for ch in obj["requested"])
        return FileAccess(pid, _path(obj["path"]), AccessFlags(mask),
                          FsKind[obj.get("fs_kind", "Regular").upper()],
                          obj.get("owner_mount_ns"), obj.get("proc_subject_pid"))
    if kind == "SocketOp":
        return SocketOp(pid, SocketFamily[obj["family"].upper()], SocketOpKind[obj["op"].upper()])
    if kind == "IpcOp":
        return IpcOp(pid, obj["peer_pid"], _MECHANISMS[obj["mechanism"]])
    if kind == "CapabilityUse":
        return CapabilityUse(pid, obj["capability"], obj["possessed"])
    if kind == "CommitCreds":
        return CommitCreds(pid, _priv(obj["old_priv"]), _priv(obj["new_priv"]))
    if kind == "SwitchNamespaces":
        return SwitchNamespaces(pid)
    if kind == "HardeningOp":
        return HardeningOp(pid, _HARDENING[obj["op"]])
    raise WorkloadError(f"unknown event kind {kind!r}")


def expected_records(workload) -> list[tuple]:
    """(seq, container_id, policy, decision, taint_transition) per audit record."""
    docs = {}
    for _, text in workload.policies:
        doc = parse_policy(text)
        docs[doc.name] = doc
    world = oracle.OracleWorld()
    # id(OracleContainer) -> (container, container id); holding the container
    # keeps its id() from being reused by a later one
    cids: dict[int, tuple] = {}
    killed: set[int] = set()
    out = []
    for obj in workload.events:
        seq, kind = obj["seq"], obj["kind"]
        if kind == "confine":
            pid, name = obj["pid"], obj["policy_name"]
            if pid in killed or pid in world.by_pid or name not in docs:
                raise WorkloadError(f"seq {seq}: confine of pid {pid} would fail")
            ns = obj["ns_info"]
            cont = world.confine(pid, docs[name], mount_ns=ns["mount_ns"], ipc_ns=ns["ipc_ns"])
            cids[id(cont)] = (cont, len(cids) + 1)
            out.append((seq, len(cids), name, "Created", False))
        elif kind == "fork":
            child = obj["child"]
            if child in killed or child in world.by_pid:
                raise WorkloadError(f"seq {seq}: fork to pid {child} would fail")
            cont = world.by_pid.get(obj["parent"])
            if cont is not None:
                world.join(child, cont)
        elif kind == "exit":
            cont = world.by_pid.pop(obj["pid"], None)
            if cont is not None:
                cont.pids.discard(obj["pid"])
                if not cont.pids:
                    out.append((seq, cids[id(cont)][1], cont.doc.name, "Removed", False))
        else:
            event = to_event(obj)
            if event.pid in killed:
                out.append((seq, None, None, "Unconfined", False))
                continue
            verdict, triggered = oracle.oracle_decide(event, world)
            cont = world.by_pid.get(event.pid)
            if cont is None:
                out.append((seq, None, None, verdict, triggered))
                continue
            out.append((seq, cids[id(cont)][1], cont.doc.name, verdict, triggered))
            if triggered:
                cont.tainted = True
            if verdict == oracle.KILL:
                killed.add(event.pid)
                del world.by_pid[event.pid]
                cont.pids.discard(event.pid)
    return out


def check_audit(workload, audit_path: str) -> tuple[int, str | None]:
    """Compare the audit file with the oracle; returns (records checked, first error)."""
    expected = expected_records(workload)
    with open(audit_path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if json.loads(header) != {"format": 1}:
            return 0, f"bad audit header {header.strip()!r}"
        n = 0
        for n, line in enumerate(fh, start=1):
            if n > len(expected):
                return n - 1, f"audit has more records than the {len(expected)} expected"
            rec = json.loads(line)
            got = (rec["seq"], rec["container_id"], rec["policy"], rec["decision"],
                   rec["taint_transition"])
            if got != expected[n - 1]:
                return n - 1, f"record {n}: audit {got} != oracle {expected[n - 1]}"
    if n != len(expected):
        return n, f"audit has {n} records, oracle expects {len(expected)}"
    return n, None
