"""Seeded workload generators for the pipeline benchmark.

Each generator returns a ``Workload``: policy YAML files, the trace as a
list of wire-format event objects (the JSONL schema ``bpfcontain run``
reads), and the map capacities the run needs.  Generation uses only the
standard library, so the program under test sees nothing but the files
written from a ``Workload``; the same seed always gives the same bytes.

* ``steady_mix`` is the acceptance-suite workload
  (``tests/corpus.py:synthetic_workload`` with ``WORKLOAD_POLICIES``),
  reproduced call for call so its traces are byte-identical to
  ``write_trace(synthetic_workload(n, seed))``.  Few distinct file-kernel
  argument tuples: a decision memo shows its gain here.
* ``cold_paths`` is file access on mostly distinct, deep paths under
  subdir and filesystem rules, which forces full ancestor walks and path
  normalization and defeats a memo.
* ``lifecycle_churn`` is hundreds of policies with taint and ipc rules and
  a steady stream of confine/fork/exit, kills and events from killed pids.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0x5EED

EVENTS = {"steady_mix": 100_000, "cold_paths": 80_000, "lifecycle_churn": 100_000}

LIFECYCLE_KINDS = frozenset({"confine", "fork", "exit"})

# canonical rwax spelling of an access string
_FLAG_ORDER = "rwax"


@dataclass
class Workload:
    name: str
    seed: int
    policies: list[tuple[str, str]]          # (file name, YAML text)
    events: list[dict] = field(default_factory=list)
    capacities: dict[str, int] = field(default_factory=dict)

    def trace_lines(self):
        """The JSONL trace, header first, one line per event."""
        yield '{"format":1}\n'
        for obj in self.events:
            yield json.dumps(obj, separators=(",", ":")) + "\n"

    def write_trace(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.trace_lines())

    def write_policies(self, directory: str):
        for name, text in self.policies:
            with open(f"{directory}/{name}", "w", encoding="utf-8") as fh:
                fh.write(text)

    def capacity_args(self) -> list[str]:
        """``--capacity`` flags; the audit buffer always exceeds the event count."""
        caps = dict(self.capacities, audit=len(self.events) + 1)
        out = []
        for category, n in caps.items():
            out += ["--capacity", f"{category}={n}"]
        return out

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for obj in self.events:
            counts[obj["kind"]] = counts.get(obj["kind"], 0) + 1
        return counts

    def lifecycle_share(self) -> float:
        counts = self.kind_counts()
        return sum(counts.get(kind, 0) for kind in LIFECYCLE_KINDS) / len(self.events)


def _canon(flags: str) -> str:
    return "".join(ch for ch in _FLAG_ORDER if ch in flags)


class _Trace:
    """Appends wire objects with consecutive seq numbers."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, kind: str, **fields):
        obj = {"seq": len(self.events) + 1, "kind": kind}
        obj.update(fields)
        self.events.append(obj)

    def __len__(self):
        return len(self.events)

    def confine(self, pid, policy, mount_ns, ipc_ns):
        self.emit("confine", pid=pid, policy_name=policy,
                  ns_info={"mount_ns": mount_ns, "ipc_ns": ipc_ns})

    def file(self, pid, path, flags, fs_kind=None, owner_mount_ns=None, proc_subject_pid=None):
        obj = {"pid": pid, "path": path, "requested": _canon(flags)}
        if fs_kind is not None:
            obj["fs_kind"] = fs_kind
        if owner_mount_ns is not None:
            obj["owner_mount_ns"] = owner_mount_ns
        if proc_subject_pid is not None:
            obj["proc_subject_pid"] = proc_subject_pid
        self.emit("FileAccess", **obj)

    def creds(self, pid, old_uid, old_caps, new_uid, new_caps):
        self.emit("CommitCreds", pid=pid,
                  old_priv={"uid": old_uid, "capability_set": sorted(old_caps)},
                  new_priv={"uid": new_uid, "capability_set": sorted(new_caps)})


SOCKET_FAMILIES = ("Ipv4", "Ipv6", "Unix", "Other")
SOCKET_OPS = ("Create", "Bind", "Listen", "Accept", "Connect", "Send", "Receive", "Shutdown")
IPC_MECHANISMS = ("UnixSocket", "Signal", "SysV", "ShMem")
HARDENING_OPS = ("BpfSyscall", "Keyring", "Ptrace", "Mount", "Lockdown", "UnlinkPinnedObject")


# --- steady_mix -------------------------------------------------------------------

STEADY_POLICIES = """\
name: web
entry: /usr/bin/httpd
allow:
  - network: client server send receive
  - subdir: /srv/www r
  - file: /var/log/web.log ra
  - tty: rw
---
name: db
entry: /usr/bin/mysqld
allow:
  - subdir: /var/lib/db rw
  - network: server send receive
  - ipc: web
taint:
  - network: server
---
name: worker
entry: /usr/bin/worker
allow:
  - subdir: /data rw
  - device: random r
  - capability: CAP_KILL
deny:
  - file: /data/secrets r
---
name: logger
entry: /usr/bin/logger
allow:
  - file: /var/log/app.log ra
  - filesystem: /tmp rw
---
name: sandboxed
entry: /usr/bin/untrusted
---
name: desktop
entry: /usr/bin/app
default: allow
deny:
  - subdir: /home/user/secrets rw
  - network: server
---
name: backup
entry: /usr/bin/backup
allow:
  - filesystem: / r
  - file: /backup/out.tar rwa
taint:
  - file: /backup/out.tar w
---
name: monitor
entry: /usr/bin/monitor
allow:
  - subdir: /proc r
  - device: zero r
---
name: chat
entry: /usr/bin/chat
allow:
  - network: client send receive
  - ipc: web
  - tty: rw
---
name: builder
entry: /usr/bin/make
allow:
  - subdir: /build rw
  - subdir: /usr/include r
  - device: null w
"""


def _named_files(texts):
    out = []
    for text in texts:
        name = text.split("\n", 1)[0].removeprefix("name:").strip()
        out.append((f"{name}.yml", text))
    return out


def steady_mix(seed: int = DEFAULT_SEED, n_events: int = EVENTS["steady_mix"]) -> Workload:
    """The acceptance-suite trace; every rng call mirrors synthetic_workload."""
    texts = STEADY_POLICIES.split("---\n")
    names = [text.split("\n", 1)[0].removeprefix("name:").strip() for text in texts]
    rng = random.Random(seed)
    paths = (
        ["/srv/www/index.html", "/srv/www/a/b/c.css", "/var/log/web.log",
         "/var/lib/db/table", "/data/in/file", "/data/secrets",
         "/var/log/app.log", "/tmp/scratch", "/home/user/secrets/key",
         "/backup/out.tar", "/build/obj/main.o", "/usr/include/stdio.h",
         "/etc/passwd", "/usr/lib/libc.so.6", "/opt/tool/bin"]
        + [f"/data/tree/{i}/{j}/leaf" for i in range(4) for j in range(4)]
        + ["/dev/tty", "/dev/pts/0", "/dev/urandom", "/dev/null", "/dev/zero"]
    )
    flags = ["r", "w", "ra", "rw", "rx"]
    tr = _Trace()
    pids = []
    next_pid = 1
    for name in names * 3:
        tr.confine(next_pid, name, rng.randint(1, 5), rng.randint(1, 3))
        pids.append(next_pid)
        next_pid += 1

    while len(tr) < n_events:
        pid = rng.choice(pids)
        roll = rng.random()
        if roll < 0.70:
            kind = rng.random()
            if kind < 0.85:
                tr.file(pid, rng.choice(paths), rng.choice(flags))
            elif kind < 0.92:
                path = f"/proc/{rng.choice(pids)}/status"
                tr.file(pid, path, "r", fs_kind="Procfs", proc_subject_pid=rng.choice(pids))
            else:
                tr.file(pid, "/merged/layer/file", "rw", fs_kind="Overlayfs",
                        owner_mount_ns=rng.randint(1, 5))
        elif roll < 0.85:
            family = rng.choice(("Ipv4", "Ipv6"))
            tr.emit("SocketOp", pid=pid, family=family, op=rng.choice(SOCKET_OPS))
        elif roll < 0.90:
            cap = rng.choice(("CAP_KILL", "CAP_SYS_ADMIN"))
            tr.emit("CapabilityUse", pid=pid, capability=cap, possessed=rng.random() < 0.8)
        elif roll < 0.94:
            peer = rng.choice(pids)
            tr.emit("IpcOp", pid=pid, peer_pid=peer, mechanism=rng.choice(IPC_MECHANISMS))
        elif roll < 0.97 and len(pids) < 500:
            tr.emit("fork", parent=pid, child=next_pid)
            pids.append(next_pid)
            next_pid += 1
        elif roll < 0.99:
            tr.emit("HardeningOp", pid=pid, op=rng.choice(HARDENING_OPS))
        elif len(pids) > 40:
            gone = pids.pop(rng.randrange(len(pids)))
            tr.emit("exit", pid=gone)
        else:
            tr.emit("SwitchNamespaces", pid=pid)

    return Workload("steady_mix", seed, _named_files(texts), tr.events[:n_events])


# --- cold_paths -------------------------------------------------------------------

# (name, default, allow, deny, taint): trees covered by subdir and filesystem rules.
# Policies with a filesystem rule make the file kernel walk every ancestor
# up to "/"; the others stop at the subdir reach of 9 levels.
_COLD_POLICIES = (
    ("archive", "deny", ["subdir: /srv/data rw", "subdir: /srv/data/a r",
                         "filesystem: / r"], ["subdir: /srv/data/private rw"], []),
    ("cache", "deny", ["subdir: /var/cache/app rw", "filesystem: /var rw"],
     ["subdir: /var/cache/app/locked w"], []),
    ("home", "allow", ["subdir: /home/u rw"], ["subdir: /home/u/private rw",
                                              "filesystem: /mnt/vol1 w"], []),
    ("pkg", "deny", ["subdir: /opt/pkg rx", "subdir: /usr/share r"], ["file: /opt/pkg/bin w"], []),
    ("volumes", "deny", ["filesystem: /mnt/vol0 rw", "filesystem: /mnt/vol1 r",
                         "subdir: /mnt/vol0/b rwa"], ["subdir: /mnt/vol0/private r"], []),
    ("lake", "deny", ["subdir: /data/lake rwa", "filesystem: /data r"],
     ["subdir: /data/lake/private w"], ["subdir: /data/lake/c w"]),
    ("indexer", "deny", ["subdir: /srv/data r", "subdir: /usr/share r", "subdir: /home/u r",
                         "filesystem: / r"], [], ["subdir: /home/u/private r"]),
    ("scratch", "allow", ["filesystem: /tmp rwa"],
     ["subdir: /srv/data/private rw", "subdir: /var/cache/app/locked rwa"],
     ["filesystem: /mnt/vol0 w"]),
)
_COLD_ROOTS = ("/srv/data", "/var/cache/app", "/home/u", "/opt/pkg", "/usr/share",
               "/mnt/vol0", "/mnt/vol1", "/data/lake", "/tmp", "/etc/conf.d")
_COLD_SUBTREES = ("private", "locked", "a", "b", "c")


def _policy_yaml(name, default, allow, deny, taint, extra_allow=()):
    lines = [f"name: {name}", f"entry: /usr/bin/{name}", f"default: {default}"]
    for key, rules in (("allow", list(allow) + list(extra_allow)), ("deny", deny),
                       ("taint", taint)):
        if rules:
            lines.append(f"{key}:")
            lines += [f"  - {rule}" for rule in rules]
    return "\n".join(lines) + "\n"


def _deep_path(rng: random.Random) -> str:
    """A mostly unique path, 1 to 14 components below one of the roots."""
    parts = [rng.choice(_COLD_ROOTS)]
    if rng.random() < 0.3:
        parts.append(rng.choice(_COLD_SUBTREES))
    for _ in range(rng.randint(1, 14)):
        parts.append(f"{rng.getrandbits(32):08x}")
    path = "/".join(parts)
    # non-canonical spellings that parse must normalize
    roll = rng.random()
    if roll < 0.04:
        path = path.replace("/", "//", 1)
    elif roll < 0.08:
        cut = path.rfind("/")
        path = path[:cut] + "/./" + path[cut + 1:]
    elif roll < 0.10:
        path = path + "/x/.."
    return path


def cold_paths(seed: int = DEFAULT_SEED, n_events: int = EVENTS["cold_paths"]) -> Workload:
    rng = random.Random(seed)
    names = [p[0] for p in _COLD_POLICIES]
    texts = []
    for name, default, allow, deny, taint in _COLD_POLICIES:
        extra = ["network: client send receive", "capability: CAP_CHOWN", "tty: rw"]
        extra += [f"ipc: {peer}" for peer in names if peer != name]
        texts.append(_policy_yaml(name, default, allow, deny, taint, extra))

    pool = [_deep_path(rng) for _ in range(40)]
    flags = ("r", "w", "rw", "ra", "x", "rx", "a")
    tr = _Trace()
    pids, mount_ns = [], {}
    next_pid = 1
    for name in names * 4:
        ns = rng.randint(1, 4)
        tr.confine(next_pid, name, ns, rng.randint(1, 2))
        pids.append(next_pid)
        mount_ns[next_pid] = ns
        next_pid += 1
    for _ in range(32):
        parent = rng.choice(pids)
        tr.emit("fork", parent=parent, child=next_pid)
        pids.append(next_pid)
        mount_ns[next_pid] = mount_ns[parent]
        next_pid += 1

    while len(tr) < n_events:
        pid = rng.choice(pids)
        roll = rng.random()
        if roll < 0.90:
            kind = rng.random()
            if kind < 0.93:
                path = rng.choice(pool) if rng.random() < 0.04 else _deep_path(rng)
                tr.file(pid, path, rng.choice(flags))
            elif kind < 0.97:
                subject = rng.choice(pids)
                path = f"/proc/{subject}/{rng.getrandbits(32):08x}/status"
                tr.file(pid, path, rng.choice(("r", "rw")), fs_kind="Procfs",
                        proc_subject_pid=subject)
            else:
                path = f"/merged/{rng.getrandbits(32):08x}/{rng.getrandbits(32):08x}"
                tr.file(pid, path, "rw", fs_kind="Overlayfs",
                        owner_mount_ns=rng.choice((mount_ns[pid], rng.randint(1, 4))))
        elif roll < 0.93:
            tr.emit("SocketOp", pid=pid, family=rng.choice(SOCKET_FAMILIES),
                    op=rng.choice(SOCKET_OPS))
        elif roll < 0.955:
            tr.emit("IpcOp", pid=pid, peer_pid=rng.choice(pids),
                    mechanism=rng.choice(IPC_MECHANISMS))
        elif roll < 0.98:
            cap = rng.choice(("CAP_CHOWN", "CAP_CHOWN", "CAP_NET_RAW"))
            tr.emit("CapabilityUse", pid=pid, capability=cap, possessed=rng.random() < 0.8)
        elif roll < 0.995:
            tr.emit("HardeningOp", pid=pid, op=rng.choice(HARDENING_OPS))
        elif roll < 0.998:
            tr.creds(pid, 1000, ["CAP_CHOWN"], 1000, [])
        else:
            tr.emit("SwitchNamespaces", pid=pid)

    return Workload("cold_paths", seed, _named_files(texts), tr.events)


# --- lifecycle_churn --------------------------------------------------------------

CHURN_POLICIES = 300
_CAPS = ("CAP_CHOWN", "CAP_KILL", "CAP_NET_RAW", "CAP_NET_BIND_SERVICE", "CAP_SETUID",
         "CAP_SYS_ADMIN", "CAP_SYS_PTRACE", "CAP_DAC_OVERRIDE")
_NET = ("client", "server", "send", "receive")
_TARGET_PIDS = 400


def _churn_policies(rng: random.Random):
    names = [f"svc{i:03d}" for i in range(CHURN_POLICIES)]
    allow_peers = {name: set() for name in names}
    for i, name in enumerate(names):
        # ring neighbours are mutual; a few random links are one-sided
        for step in (1, 2):
            peer = names[(i + step) % len(names)]
            allow_peers[name].add(peer)
            allow_peers[peer].add(name)
        for _ in range(2):
            allow_peers[name].add(rng.choice(names))
        allow_peers[name].discard(name)
    # sorted: set order follows string hashing, which differs per process
    allow_peers = {name: sorted(peers) for name, peers in allow_peers.items()}
    docs = {}
    for i, name in enumerate(names):
        caps = rng.sample(_CAPS, rng.randint(1, 3))
        allow = [f"subdir: /srv/{name} rw", "tty: rw", "file: /etc/passwd r",
                 "network: " + " ".join(rng.sample(_NET, rng.randint(1, 4)))]
        allow += [f"capability: {cap}" for cap in caps]
        allow += [f"ipc: {peer}" for peer in allow_peers[name]]
        deny = []
        if rng.random() < 0.3:
            deny.append("capability: CAP_SYS_ADMIN")
        if rng.random() < 0.2:
            deny.append(f"ipc: {names[(i + 2) % len(names)]}")
        taint = []
        if rng.random() < 0.6:
            taint = rng.choice((
                ["network: server"],
                [f"capability: {caps[0]}"],
                [f"ipc: {names[(i + 1) % len(names)]}"],
                ["tty: r"],
                [f"subdir: /srv/{name} w"],
            ))
        default = "allow" if rng.random() < 0.2 else "deny"
        docs[name] = _policy_yaml(name, default, allow, deny, taint)
    return names, allow_peers, docs


def lifecycle_churn(seed: int = DEFAULT_SEED,
                    n_events: int = EVENTS["lifecycle_churn"]) -> Workload:
    rng = random.Random(seed)
    names, allow_peers, docs = _churn_policies(rng)
    tr = _Trace()
    next_pid = 1
    live: list[int] = []               # confined, not exited, not killed
    index: dict[int, int] = {}         # pid -> position in live
    policy_of: dict[int, str] = {}
    by_policy: dict[str, list[int]] = {name: [] for name in names}
    family: dict[int, list[int]] = {}  # container root pid -> member pids
    root_of: dict[int, int] = {}
    killed: list[int] = []

    def add(pid, policy, root):
        index[pid] = len(live)
        live.append(pid)
        policy_of[pid] = policy
        by_policy[policy].append(pid)
        family.setdefault(root, []).append(pid)
        root_of[pid] = root

    def drop(pid):
        i = index.pop(pid)
        last = live.pop()
        if last != pid:
            live[i] = last
            index[last] = i
        by_policy[policy_of[pid]].remove(pid)
        family[root_of[pid]].remove(pid)

    def confine():
        nonlocal next_pid
        pid, next_pid = next_pid, next_pid + 1
        policy = rng.choice(names)
        tr.confine(pid, policy, rng.randint(1, 3), rng.randint(1, 2))
        add(pid, policy, pid)

    def fork(parent):
        nonlocal next_pid
        child, next_pid = next_pid, next_pid + 1
        tr.emit("fork", parent=parent, child=child)
        add(child, policy_of[parent], root_of[parent])

    def ipc_peer(pid):
        roll = rng.random()
        siblings = family[root_of[pid]]
        if roll < 0.2 and len(siblings) > 1:
            return rng.choice(siblings)
        if roll < 0.7:
            peers = [p for name in allow_peers[policy_of[pid]] for p in by_policy[name][:3]]
            if peers:
                return rng.choice(peers)
        if roll < 0.9 or not killed:
            return rng.choice(live)
        return rng.choice(killed)

    for _ in range(120):
        confine()

    while len(tr) < n_events:
        roll = rng.random()
        if roll < 0.36:
            grow = len(live) < _TARGET_PIDS
            step = rng.random()
            if step < (0.3 if grow else 0.2):
                confine()
            elif step < (0.7 if grow else 0.45) or len(live) < 50:
                fork(rng.choice(live))
            else:
                pid = rng.choice(live)
                tr.emit("exit", pid=pid)
                drop(pid)
            continue
        pid = rng.choice(live)
        if roll < 0.56:
            tr.emit("IpcOp", pid=pid, peer_pid=ipc_peer(pid),
                    mechanism=rng.choice(IPC_MECHANISMS))
        elif roll < 0.68:
            cap = rng.choice(_CAPS)
            tr.emit("CapabilityUse", pid=pid, capability=cap, possessed=rng.random() < 0.8)
        elif roll < 0.74:
            if rng.random() < 0.35:
                # escalation: the pid is killed, its later events arrive unconfined
                if rng.random() < 0.5:
                    tr.creds(pid, 1000, [], 0, [])
                else:
                    tr.creds(pid, 0, ["CAP_CHOWN"], 0, ["CAP_CHOWN", "CAP_SYS_ADMIN"])
                drop(pid)
                killed.append(pid)
                if not live:
                    confine()
            else:
                tr.creds(pid, 1000, ["CAP_CHOWN"], 1000, [])
        elif roll < 0.80:
            tr.emit("SocketOp", pid=pid, family=rng.choice(SOCKET_FAMILIES),
                    op=rng.choice(SOCKET_OPS))
        elif roll < 0.88:
            policy = policy_of[pid]
            path = rng.choice((f"/srv/{policy}/{rng.randrange(50)}/data", "/dev/tty",
                               "/etc/passwd", f"/srv/{rng.choice(names)}/x"))
            tr.file(pid, path, rng.choice(("r", "w", "rw")))
        elif roll < 0.94:
            tr.emit("HardeningOp", pid=pid, op=rng.choice(HARDENING_OPS))
        elif roll < 0.96:
            tr.emit("SwitchNamespaces", pid=pid)
        elif killed:
            ghost = rng.choice(killed)
            tr.emit("CapabilityUse", pid=ghost, capability="CAP_KILL", possessed=True)

    roomy = 16 * CHURN_POLICIES
    capacities = {category: roomy for category in
                  ("file", "subdir", "device", "network", "ipc", "capability", "meta")}
    capacities["containers"] = 4 * _TARGET_PIDS
    files = [(f"{name}.yml", docs[name]) for name in names]
    return Workload("lifecycle_churn", seed, files, tr.events, capacities)


GENERATORS = {
    "steady_mix": steady_mix,
    "cold_paths": cold_paths,
    "lifecycle_churn": lifecycle_churn,
}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
