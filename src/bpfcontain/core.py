"""The decision kernel: the file-access and socket-op hot paths.

The engine computes the kernel arguments from an event, its container and
the tables its policy's sealed meta holds; the kernels return plain tuples::

    (verdict, reason, detail, taint_detail)

where detail/taint_detail are ``(tier, key, mask)`` for rule-derived
reasons and None otherwise.  Kernels never mutate state; a non-None
taint_detail tells the engine to commit the taint transition.  The integer
codes below are shared with the engine, which maps them onto verdicts,
stages and reason text.
"""

from __future__ import annotations

from .events import SocketFamily, SocketOpKind
from .policy import NET_ALL, DeviceKind, NetCategory

# verdicts, in the order of ``engine.Verdict``
V_ALLOW, V_DENY, V_KILL, V_UNCONFINED = range(4)

# rule tiers, most specific first; each is its category's position in
# ``compiler.MAP_CATEGORIES``, which names it in audit reasons
T_FILE = 0
T_SUBDIR = 1
T_FS = 2
T_DEV = 3
T_NET = 4
T_IPC = 5
T_CAP = 6

# kernel reason codes, numbered from 1 in this order; the engine numbers
# its own after them
(R_EXEMPT, R_DENY_RULE, R_ALLOW_RULE, R_DEFAULT, R_PROC_SELF, R_PROC_FOREIGN,
 R_OVERLAY, R_BPFFS, R_NET_FAMILY, R_UNIX_IPC) = range(1, 11)

# Kernel constants, taken from the enums; the engine passes ``family`` and
# ``op`` as their IntEnum members, which compare and index as ints.
_DEV_TTY, _DEV_RANDOM, _DEV_NULL, _DEV_ZERO = (
    int(DeviceKind.TTY), int(DeviceKind.RANDOM), int(DeviceKind.NULL), int(DeviceKind.ZERO))
_FAM_UNIX, _FAM_OTHER = int(SocketFamily.UNIX), int(SocketFamily.OTHER)
_OP_CREATE = int(SocketOpKind.CREATE)
_NET_ALL = int(NET_ALL)

# Maximum path components a subdir rule may reach below its root: the rule
# grants 8 nested subdirectory levels, plus the final component itself.
_SUBDIR_REACH = 9

# op -> required category bit(s), indexed by SocketOpKind; CREATE is special-cased
_OP_CATS = tuple(int({
    SocketOpKind.CREATE: NET_ALL,  # any category justifies socket creation
    SocketOpKind.BIND: NetCategory.SERVER,
    SocketOpKind.LISTEN: NetCategory.SERVER,
    SocketOpKind.ACCEPT: NetCategory.SERVER,
    SocketOpKind.CONNECT: NetCategory.CLIENT,
    SocketOpKind.SEND: NetCategory.SEND,
    SocketOpKind.RECEIVE: NetCategory.RECEIVE,
    SocketOpKind.SHUTDOWN: NetCategory.SERVER,
}[op]) for op in SocketOpKind)


def classify_device(path):
    """Map a /dev path onto a device-rule kind, or -1 if it is none of them.

    Only a path under ``/dev/`` maps to a kind, so a caller may skip others."""
    if path == "/dev/null":
        return _DEV_NULL
    if path == "/dev/zero":
        return _DEV_ZERO
    if path == "/dev/random" or path == "/dev/urandom":
        return _DEV_RANDOM
    if path.startswith("/dev/tty") or path.startswith("/dev/pts/"):
        return _DEV_TTY
    return -1


def decide_file_access(files, default_allow, tainted, implicit, path, requested):
    """Stages 3-8 of the pipeline for one file access.

    ``files`` is the policy meta's ``(file_t, tree, dev_t)``: its file and
    device tables (or None), and the prefix tree of its subdir and
    filesystem keys (``compiler._prefix_tree``, or None).  The walk goes
    down the path from ``/`` and stops at the first prefix that is not in
    the tree, since no key lies below it.  ``implicit`` is the implicit
    filesystem policy the engine derived from the event and the container:
    0 for none, else the reason it leads to (``R_PROC_SELF`` for an own
    procfs/sysfs entry, ``R_PROC_FOREIGN`` for a foreign one, ``R_OVERLAY``
    for an overlay the container owns).
    """
    file_t, tree, dev_t = files

    # every matching entry as (tier, key, entry), most specific first: the
    # file, its subdirs nearest first, the containing filesystem (the longest
    # declared mountpoint), the device.  Each stage below takes the first hit
    # that decides it, so this order is the tier precedence.
    hits = []
    if file_t is not None:
        entry = file_t.get(path)
        if entry is not None:
            hits.append((T_FILE, path, entry))
    # The prefixes top-down, from "/" to the path itself, while the tree
    # holds them.  A subdir rule reaches the path from at most _SUBDIR_REACH
    # levels up (the components left below its key) and never the key
    # itself; each subdir hit is inserted where the first one went, so the
    # nearest ends up first.  A deeper filesystem hit (a longer mountpoint,
    # or the path itself) overwrites a shallower one.
    fs_hit = None
    if tree is not None:
        first = len(hits)
        anc = "/"
        cut = 0 if len(path) > 1 else -1
        while True:
            node = tree.get(anc)
            if node is None:
                break
            subdir, fs = node
            if fs is not None:
                fs_hit = (T_FS, anc, fs)
            if cut < 0:
                break
            if subdir is not None and path.count("/", cut) <= _SUBDIR_REACH:
                hits.insert(first, (T_SUBDIR, anc, subdir))
            cut = path.find("/", cut + 1)
            anc = path[:cut] if cut > 0 else path
    if fs_hit is not None:
        hits.append(fs_hit)
    if dev_t is not None and path.startswith("/dev/"):
        dev = classify_device(path)
        if dev >= 0:
            entry = dev_t.get(dev)
            if entry is not None:
                hits.append((T_DEV, dev, entry))

    # The grant is the most specific hit with an allow mask; broader tiers
    # cannot widen it.  A foreign procfs/sysfs entry is granted only by a
    # file or subdir rule, and that grant must cover the request before any
    # other stage runs; otherwise the grant is found only at the allow stage.
    foreign = implicit == R_PROC_FOREIGN
    grant = None
    if foreign:
        for hit in hits:
            if hit[0] > T_SUBDIR:
                break
            if hit[2][0]:
                grant = hit
                break
        if requested & ~(grant[2][0] if grant is not None else 0):
            return (V_DENY, R_PROC_FOREIGN, None, None)

    # taint triggers, then the untainted exemption
    taint_detail = None
    if not tainted:
        for tier, key, entry in hits:
            if entry[2] & requested:
                taint_detail = (tier, key, entry[2] & requested)
                break
        if taint_detail is None:
            return (V_ALLOW, R_EXEMPT, None, None)

    # explicit deny rules: any match wins, the first fixes provenance only
    for tier, key, entry in hits:
        if entry[1] & requested:
            return (V_DENY, R_DENY_RULE, (tier, key, entry[1] & requested), taint_detail)

    if implicit == R_PROC_SELF or implicit == R_OVERLAY:
        return (V_ALLOW, implicit, None, taint_detail)

    # explicit allow: the grant must cover the whole request
    if not foreign:
        for hit in hits:
            if hit[2][0]:
                grant = hit
                break
    if grant is not None and not (requested & ~grant[2][0]):
        return (V_ALLOW, R_ALLOW_RULE, (grant[0], grant[1], grant[2][0]), taint_detail)
    if foreign:
        # coverage was established above; reaching here means nothing
        # granted and nothing was requested
        return (V_DENY, R_PROC_FOREIGN, None, taint_detail)
    if default_allow:
        return (V_ALLOW, R_DEFAULT, None, taint_detail)
    return (V_DENY, R_DEFAULT, None, taint_detail)


def decide_socket_op(network, default_allow, tainted, family, op):
    """Socket-operation decision over the policy's network category masks,
    ``network`` being its ``(allow, deny, taint)`` triple."""
    if family == _FAM_UNIX:
        # unix domain sockets are ipc; a container may always talk to itself,
        # cross-container flows arrive as IpcOp events
        return (V_ALLOW, R_UNIX_IPC, None, None)
    if family == _FAM_OTHER:
        if not tainted:
            return (V_ALLOW, R_EXEMPT, None, None)
        return (V_DENY, R_NET_FAMILY, None, None)

    allow_cats, deny_cats, taint_cats = network
    opcats = _OP_CATS[op]
    taint_detail = None
    if not tainted:
        if op != _OP_CREATE and taint_cats & opcats:
            taint_detail = (T_NET, taint_cats & opcats, taint_cats & opcats)
        else:
            return (V_ALLOW, R_EXEMPT, None, None)

    if op == _OP_CREATE:
        # creation is implied by any grant and refused only by a total deny
        if deny_cats == _NET_ALL:
            return (V_DENY, R_DENY_RULE, (T_NET, _NET_ALL, _NET_ALL), taint_detail)
        if allow_cats:
            return (V_ALLOW, R_ALLOW_RULE, (T_NET, allow_cats, allow_cats), taint_detail)
    else:
        if deny_cats & opcats:
            return (V_DENY, R_DENY_RULE, (T_NET, opcats, opcats), taint_detail)
        if allow_cats & opcats:
            return (V_ALLOW, R_ALLOW_RULE, (T_NET, opcats, opcats), taint_detail)

    if default_allow:
        return (V_ALLOW, R_DEFAULT, None, taint_detail)
    return (V_DENY, R_DEFAULT, None, taint_detail)
