"""Image restore: boot-and-graft rehydration into a fresh ``Node``.

Simulated threads are Python generators and cannot be serialized, so the
restorer does what CRIU cannot: it *boots* a fresh instance of the same
server version — which deterministically reproduces the source tree's
shape (pids, thread identities, fd numbers, sock ids, mapping layout are
all allocated during startup, before any traffic) — quiesces it at the
same barrier, and then *grafts* the image's mutable state over it:
mapping bytes, allocator bookkeeping, fd-table flags and allocation
cursors, listener/network counters.  The program's own state lives
entirely in simulated memory, so byte-identical memory plus identical
kernel-object state is a byte-identical server (``TreeFingerprint``
pins this in the round-trip tests).

Validation runs **in full before any mutation**: the meta is checked
against ``IMAGE_SHAPE`` and ``check_fingerprint`` before anything is
booted, every structural
surface of the freshly booted tree is checked against the image, and a
mismatch raises ``ImageError`` naming the failing key or surface — a bad
or incompatible image can never produce a partially restored tree.

The graft is shared with the warm standby: ``graft_record`` overlays one
process's allocator and fd state and ``graft_listeners`` the listener
table, for an image's records and a delta's alike.

The returned node is still parked at the quiescence barrier, which is
what makes it a *warm standby*: deltas can be grafted indefinitely, and
``resume_node`` (promotion) releases the barrier to start serving.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro import obs
from repro.errors import ImageError
from repro.fleet.node import DEFAULT_STALL_NS, Node
from repro.mcr.config import MCRConfig
from repro.mem.ptmalloc import Chunk, _FreeList
from repro.checkpoint.image import (
    IMAGE_SHAPE,
    CheckpointImage,
    check_fingerprint,
    check_runs,
    check_shape,
)
from repro.mcr.faults import fire


# -- validation (read-only; every check precedes the first graft write) --------


def _validate_tree(node: Node, image: CheckpointImage) -> Dict[int, Any]:
    """Check the booted tree matches the image structurally; map pid->process."""
    records = {record["pid"]: record for record in image.meta["processes"]}
    live: Dict[int, Any] = {p.pid: p for p in node.root.tree()}
    want = {
        (r["pid"], r["name"], r["parent_pid"]) for r in records.values()
    }
    have = {
        (p.pid, p.name, p.parent.pid if p.parent is not None else None)
        for p in live.values()
    }
    if want != have:
        raise ImageError(
            "process-tree",
            f"booted tree {sorted(have)} != image tree {sorted(want)}",
        )
    for pid, record in records.items():
        process = live[pid]
        _validate_threads(process, record)
        _validate_mappings(process, record, image)
        _validate_heap(process, record)
        _validate_fds(process, record)
    _validate_listeners(node, image)
    return live


def _validate_threads(process: Any, record: Dict[str, Any]) -> None:
    live = {t.tid: t for t in process.live_threads()}
    want = {(t["tid"], t["name"]) for t in record["threads"]}
    have = {(t.tid, t.name) for t in live.values()}
    if want != have:
        raise ImageError(
            "threads",
            f"pid {process.pid}: booted threads {sorted(have)} != image {sorted(want)}",
        )
    for entry in record["threads"]:
        thread = live[entry["tid"]]
        if not thread.at_barrier:
            raise ImageError(
                "threads",
                f"pid {process.pid} tid {thread.tid} not parked at the barrier",
            )
        if entry["at_barrier"] and entry["call_stack"] != thread.call_stack:
            raise ImageError(
                "threads",
                f"pid {process.pid} tid {thread.tid}: quiescent point moved "
                f"({thread.call_stack} != image {entry['call_stack']})",
            )


def _validate_mappings(process: Any, record: Dict[str, Any], image: CheckpointImage) -> None:
    want = {
        (m["name"], m["base"], m["size"], m["kind"]) for m in record["mappings"]
    }
    have = {
        (m.name, m.base, m.size, m.kind) for m in process.space.mappings()
    }
    if want != have:
        raise ImageError(
            "mappings",
            f"pid {process.pid}: booted layout {sorted(have)} != image {sorted(want)}",
        )
    for entry in record["mappings"]:
        section = image.sections.get(entry["section"])
        if section is None:
            raise ImageError(entry["section"], "section payload missing")
        check_runs(
            entry["section"], section.runs, len(section.payload), limit=entry["size"]
        )


def _validate_heap(process: Any, record: Dict[str, Any], section: str = "allocator") -> None:
    heap = process.heap
    rec = record["heap"]
    if rec["base"] != heap.base:
        raise ImageError(
            section, f"pid {process.pid}: heap 'base' moved"
        )
    lo, hi = heap.base, heap.end
    for start, end in rec["free"]:
        if not (lo <= start < end <= hi):
            raise ImageError(
                section,
                f"pid {process.pid}: 'free' interval [{start:#x},{end:#x}) outside heap",
            )
    for base, _user, total, _startup, _site in rec["chunks"]:
        if not (lo <= base and base + total <= hi):
            raise ImageError(
                section,
                f"pid {process.pid}: 'chunks' entry at {base:#x} outside heap",
            )


def _validate_fds(process: Any, record: Dict[str, Any]) -> None:
    want = {(fd, kind) for fd, kind, _closed, _ref in record["fds"]}
    have = {
        (fd, getattr(obj, "kind", "?")) for fd, obj in process.fdtable.items()
    }
    if want != have:
        raise ImageError(
            "fds",
            f"pid {process.pid}: booted fds {sorted(have)} != image {sorted(want)}",
        )


def _validate_listeners(node: Node, image: CheckpointImage) -> None:
    want = {(port, sock_id) for port, sock_id, _c, _b in image.meta["listeners"]}
    have = {
        (port, listener.sock_id)
        for port, listener in node.kernel.net._listeners.items()
    }
    if want != have:
        raise ImageError(
            "listeners",
            f"booted listeners {sorted(have)} != image {sorted(want)}",
        )


def _respawn_volatile_threads(node: Node, image: CheckpointImage) -> bool:
    """Recreate lazily-spawned threads the image has but a fresh boot lacks.

    Mirrors the live-update path's ``post_startup`` handlers: volatile
    threads (httpd's janitor) are spawned on demand, not during startup,
    so a fresh boot cannot reproduce them.  The program declares their
    mains in ``metadata["volatile_thread_mains"]`` and the restorer
    respawns each missing one in image order — per-process tids are
    allocated sequentially, so image order reproduces the image's tids.
    Anything still missing afterwards is a genuine incompatibility and
    is left for validation to name.
    """
    mains = node.program.metadata.get("volatile_thread_mains") or {}
    if not mains:
        return False
    records = {r["pid"]: r for r in image.meta["processes"]}
    spawned = False
    for process in node.root.tree():
        record = records.get(process.pid)
        if record is None:
            continue
        have = {t.name for t in process.live_threads()}
        for entry in record["threads"]:
            main = mains.get(entry["name"])
            if entry["name"] in have or main is None:
                continue
            node.kernel._start_thread(process, main, (), entry["name"])
            spawned = True
    return spawned


# -- graft (only runs once validation passed in full) --------------------------


def _graft_heap(heap: Any, rec: Dict[str, Any]) -> None:
    free = _FreeList()
    for start, end in rec["free"]:
        free.add(start, end)
    heap._free = free
    heap._chunks = {}
    for base, user_size, total_size, startup, site_id in rec["chunks"]:
        chunk = Chunk(base, user_size, total_size, bool(startup), site_id)
        heap._chunks[chunk.user_base] = chunk
    heap._sorted_user_bases = sorted(heap._chunks)
    heap._reserved = {base: size for base, size in rec["reserved"]}
    heap.startup_mode = bool(rec["startup_mode"])
    heap._deferred_frees = list(rec["deferred"])
    heap._deferred = set(rec["deferred"])
    heap.malloc_count = rec["malloc_count"]
    heap.free_count = rec["free_count"]
    heap.bytes_allocated = rec["bytes_allocated"]


def graft_record(process: Any, record: Dict[str, Any]) -> None:
    """Overlay one process's allocator and fd state (``RECORD_SHAPE``)."""
    _graft_heap(process.heap, record["heap"])
    fdtable = process.fdtable
    for fd, _kind, closed, _refcount in record["fds"]:
        obj = fdtable.try_get(fd)
        if obj is not None and hasattr(obj, "closed"):
            obj.closed = bool(closed)
    fdtable.load_alloc_state(record["fd_alloc"])


def graft_listeners(net: Any, listeners: Any) -> None:
    """Overlay the listener table's backlog and closed flags."""
    for port, _sock_id, closed, backlog in listeners:
        listener = net._listeners.get(port)
        if listener is not None:
            listener.backlog = backlog
            listener.closed = bool(closed)


def graft_process(process: Any, record: Dict[str, Any], image: CheckpointImage) -> None:
    """Overlay one process's mutable state from the image (post-validation)."""
    # Chunk headers and tag mirrors ride along in the mapping bytes.
    for entry in record["mappings"]:
        mapping = process.space.mapping_at(entry["base"])
        mapping.replace(*image.sections[entry["section"]])
    graft_record(process, record)


def _graft_world(node: Node, image: CheckpointImage) -> None:
    net = node.kernel.net
    counters = image.meta["net"]
    net._next_sock_id = counters["next_sock_id"]
    net._next_conn_id = counters["next_conn_id"]
    net._next_pair_id = counters["next_pair_id"]
    net._next_epoll_id = counters["next_epoll_id"]
    net.total_connections = counters["total_connections"]
    graft_listeners(net, image.meta["listeners"])
    node.kernel.pidns._next_pid = image.meta["namespace"]["next_pid"]


# -- entry points --------------------------------------------------------------


def restore_image(
    image: CheckpointImage,
    node_id: int = 0,
    config: Optional[MCRConfig] = None,
    stall_ns: int = DEFAULT_STALL_NS,
) -> Node:
    """Rehydrate ``image`` into a fresh, fully validated, *quiesced* node.

    Boot-and-graft: checks the meta's shape, boots ``image.server`` at
    the image's program version in a brand-new kernel, drives it to the
    quiescence barrier, validates every structural surface against the
    image (raising ``ImageError`` before any mutation on mismatch), then
    grafts the mutable state.  The returned node is held at the barrier —
    apply deltas to keep it warm, or ``resume_node`` to start serving.
    """
    check_shape("meta", "meta", image.meta, IMAGE_SHAPE)
    check_fingerprint("meta", image.meta["fingerprint"])
    node = Node.boot(
        image.server,
        node_id=node_id,
        version=image.meta["program_version"],
        config=config,
        stall_ns=stall_ns,
    )
    with node.scope():
        with obs.span("restore", image_id=image.image_id):
            protocol = node.session.quiescence
            protocol.request()
            try:
                protocol.wait(node.root, config=config)
                if _respawn_volatile_threads(node, image):
                    # Drive the recreated threads to the barrier too.
                    protocol.wait(node.root, config=config)
                fire(config, "restore.image")
                live = _validate_tree(node, image)
                for record in image.meta["processes"]:
                    graft_process(live[record["pid"]], record, image)
                _graft_world(node, image)
            except BaseException as error:
                try:
                    # Post-mortem stamped with the image identity; it must
                    # never mask the error that is about to propagate.
                    node.collector.blackbox(
                        "restore.failed",
                        config.blackbox_path if config is not None else None,
                        failure_site=getattr(error, "fault_site", None)
                        or "restore.image",
                        fingerprint=image.fingerprint.summary(),
                        image_version=image.image_id,
                        image_format=image.meta.get("format"),
                        last_applied_delta_seq=0,
                        error=repr(error),
                    )
                except Exception:  # pragma: no cover - never make it worse
                    pass
                protocol.release()
                node.teardown()
                raise
    obs.incr("checkpoint.restores")
    obs.emit("checkpoint.restored", image_id=image.image_id)
    return node


def resume_node(node: Node) -> Node:
    """Release the restore-time barrier: the grafted tree starts serving."""
    with node.scope():
        node.session.quiescence.release()
    return node
