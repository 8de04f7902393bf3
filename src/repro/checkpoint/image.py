"""The checkpoint container: capture, encode/decode, durable file I/O.

There is one container and two kinds of checkpoint in it: a full image
of a quiesced tree (this module), and a delta (``delta.py``), which is
an image of the pages written since the last checkpoint.  Both are a
``CheckpointImage``; only their meta differs, and each consumer checks
the meta it reads against its own shape table (``IMAGE_SHAPE`` here,
``delta.DELTA_SHAPE``).

Layout of an encoded container (all integers little-endian)::

    8 bytes   magic  b"MCRIMAGE"
    4 bytes   format version (u32)
    4 bytes   meta length   (u32)
    N bytes   meta JSON (sorted keys — byte-deterministic)
    4 bytes   CRC32 of the meta JSON
    ...       binary sections, at offsets recorded in meta["sections"]
              (relative to the end of the header), one per mapping,
              each independently CRC'd, back to back to the end

A section is named for the mapping it lands in (``section_name``: pid,
mapping name, base) and holds runs of that mapping's pages, packed back
to back; its record in ``meta["sections"]`` carries the ascending,
page-aligned ``[start, stop)`` run list next to ``offset`` / ``length``
/ ``crc32``.  An image's runs are its mapping's resident pages
(``PageTracker.resident_runs``; a page that is not resident is all
zero), a delta's the pages written since the baseline.  Capture,
encode, file I/O, decode, validation and graft all do work in
proportion to the bytes held, never to mapped size.  Two sizes of an
image follow, and they answer different questions:

* ``total_bytes()`` — the bytes the image *describes* (the sum of its
  mapping sizes).  This is what the virtual clock is charged for
  (``SERIALIZE_BYTE_NS``, the cold-restore rehydrate) and what drills
  report as ``image_kb``: the modelled system dumps a whole tree.
* ``stored_bytes()`` — the bytes the image *holds* and ``write_image``
  puts on disk (plus meta): what the host pays.  A delta describes no
  mappings; its size is always this one, its payload.

``image_id`` names the captured state, not the container: it is the
CRC of the structural meta — everything captured except ``format``,
``sections`` and the id itself, which are added afterwards — chained
over every mapping's full contents, zeros included (folded in closed
form by ``Mapping.crc32``, not read).  Two captures of byte-identical
trees get the same id whatever format version wrote them.

The meta document carries everything needed to *validate* a restore
before mutating anything: the process tree shape (pids, names, parents,
thread call-stack positions), mapping/fd/listener/allocator records,
world-level counters, and the full ``TreeFingerprint`` of the source
tree at capture time.  ``decode`` — the only checkpoint decoder —
verifies magic, version, every CRC and every section record up front
and raises ``ImageError`` naming the failing section: truncated,
extended, bit-flipped, ill-formed or wrong-version containers are
rejected whole, and it raises nothing else.

Capture quiesces the tree first (same barrier protocol as a live
update), so the image is a transactionally consistent cut; the pause is
charged to the virtual clock per byte described, which is what the
``bench failover`` cadence sweep measures against RTO.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, List, NamedTuple, Optional, Union

from repro import obs
from repro.errors import ImageError
from repro.mcr.config import MCRConfig
from repro.mcr.faults import TreeFingerprint, fire
from repro.mem.address_space import Runs
from repro.mem.pages import PAGE_SIZE

MAGIC = b"MCRIMAGE"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<8sII")  # magic, format version, meta length

# Virtual-time cost of serializing/writing one image byte (ns).  Chosen
# so a typical single-process image (~5 MB) pauses the tree for ~5 ms —
# the same order as CRIU dumping a small tree to tmpfs.
SERIALIZE_BYTE_NS = 1


def section_name(pid: int, mapping_name: str, base: int) -> str:
    return f"mem/{pid}/{mapping_name}@0x{base:x}"


class Section(NamedTuple):
    """One mapping's resident bytes: ``payload`` packs ``runs`` back to back."""

    runs: Runs
    payload: Union[bytes, memoryview]


def check_runs(name: str, runs: Any, length: int, limit: Optional[int] = None) -> None:
    """Raise ``ImageError(name)`` unless ``runs`` is a well-formed run list.

    Well-formed: ``[start, stop)`` integer pairs, page-aligned, ascending
    and disjoint, ``length`` bytes in total and (given ``limit``, the
    mapping's size) none past it.
    """
    if not isinstance(runs, (list, tuple)):
        raise ImageError(name, "run list missing or not a list")
    cursor = total = 0
    for run in runs:
        if not (
            isinstance(run, (list, tuple))
            and len(run) == 2
            and all(type(edge) is int for edge in run)
        ):
            raise ImageError(name, f"malformed run {run!r}")
        start, stop = run
        if start % PAGE_SIZE or stop % PAGE_SIZE:
            raise ImageError(name, f"run [{start:#x},{stop:#x}) not page-aligned")
        if not cursor <= start < stop:
            raise ImageError(name, f"run [{start:#x},{stop:#x}) empty or out of order")
        cursor = stop
        total += stop - start
    if total != length:
        raise ImageError(name, f"runs cover {total} bytes, payload is {length}")
    if limit is not None and cursor > limit:
        raise ImageError(name, f"runs end at {cursor:#x}, mapping is {limit:#x} bytes")


class CheckpointImage:
    """One decoded (or freshly captured) checkpoint image."""

    def __init__(self, meta: Dict[str, Any], sections: Dict[str, Section]) -> None:
        self.meta = meta
        self.sections = sections

    @property
    def image_id(self) -> str:
        return self.meta["image_id"]

    @property
    def server(self) -> str:
        return self.meta["server"]

    @property
    def fingerprint(self) -> TreeFingerprint:
        return TreeFingerprint.from_dict(self.meta["fingerprint"])

    def total_bytes(self) -> int:
        """Bytes the image describes: every mapped byte of the tree."""
        return sum(
            mapping["size"]
            for record in self.meta["processes"]
            for mapping in record["mappings"]
        )

    def stored_bytes(self) -> int:
        """Bytes the image holds (and writes): the resident pages only."""
        return sum(len(section.payload) for section in self.sections.values())

    # -- encoding --------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize deterministically (same tree state -> same bytes)."""
        names = sorted(self.sections)
        sections_meta: Dict[str, Any] = {}
        offset = 0
        for name in names:
            runs, payload = self.sections[name]
            sections_meta[name] = {
                "offset": offset,
                "length": len(payload),
                "crc32": zlib.crc32(payload),
                "runs": [list(run) for run in runs],
            }
            offset += len(payload)
        meta = dict(self.meta)
        meta["sections"] = sections_meta
        meta_blob = json.dumps(meta, sort_keys=True).encode()
        parts = [
            _HEADER.pack(MAGIC, FORMAT_VERSION, len(meta_blob)),
            meta_blob,
            struct.pack("<I", zlib.crc32(meta_blob)),
        ]
        parts.extend(self.sections[name].payload for name in names)
        return b"".join(parts)

    # -- decoding (validate everything, or raise ImageError) ------------------

    @classmethod
    def decode(cls, data: bytes) -> "CheckpointImage":
        """Validate and index ``data``; payloads are windows into it, not copies."""
        if len(data) < _HEADER.size:
            raise ImageError("magic", f"truncated header ({len(data)} bytes)")
        magic, version, meta_len = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise ImageError("magic", f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ImageError(
                "version", f"format {version}, this build reads {FORMAT_VERSION}"
            )
        meta_end = _HEADER.size + meta_len
        if len(data) < meta_end + 4:
            raise ImageError("meta", "truncated before end of meta")
        meta_blob = data[_HEADER.size:meta_end]
        (meta_crc,) = struct.unpack_from("<I", data, meta_end)
        if zlib.crc32(meta_blob) != meta_crc:
            raise ImageError("meta", "CRC mismatch (corrupt meta)")
        try:
            meta = json.loads(meta_blob)
        except ValueError as error:
            raise ImageError("meta", f"undecodable JSON: {error}") from None
        records = meta.get("sections", {}) if isinstance(meta, dict) else None
        if not isinstance(records, dict):
            raise ImageError("meta", "meta or its section table is not an object")
        body = memoryview(data)[meta_end + 4:]
        sections: Dict[str, Section] = {}
        stored = 0
        for name, record in records.items():
            if not isinstance(record, dict):
                raise ImageError(name, "section record is not an object")
            fields = [record.get(key) for key in ("offset", "length", "crc32")]
            if any(type(field) is not int or field < 0 for field in fields):
                raise ImageError(name, f"missing or ill-typed offset/length/crc32 {fields}")
            start, length, crc = fields
            check_runs(name, record.get("runs"), length)
            payload = body[start:start + length]
            if len(payload) != length:
                raise ImageError(name, "truncated section")
            if zlib.crc32(payload) != crc:
                raise ImageError(name, "CRC mismatch (corrupt section)")
            runs = tuple((run[0], run[1]) for run in record["runs"])
            sections[name] = Section(runs, payload)
            stored += length
        if stored != len(body):
            raise ImageError("meta", f"sections hold {stored} bytes, body is {len(body)}")
        return cls(meta, sections)


# -- capture -------------------------------------------------------------------


def _heap_record(heap: Any) -> Dict[str, Any]:
    return {
        "base": heap.base,
        "free": [[s, e] for s, e in heap._free.intervals()],
        "chunks": [
            [c.base, c.user_size, c.total_size, bool(c.startup), c.site_id]
            for c in heap.chunks()
        ],
        "reserved": [[b, s] for b, s in sorted(heap.reserved_ranges().items())],
        "startup_mode": heap.startup_mode,
        "deferred": list(heap._deferred_frees),
        "malloc_count": heap.malloc_count,
        "free_count": heap.free_count,
        "bytes_allocated": heap.bytes_allocated,
    }


# What ``state_record`` writes of a process's allocator and fd state,
# as JSON decodes it — the part of a record a delta ships, and that a
# restore or a delta grafts: a dict names required keys (keyed by ``str``
# alone, an object of any keys), a tuple is a list of exactly those items,
# a one-item list a list of any length, a set the allowed types.
RECORD_SHAPE = {
    "heap": {
        "base": int,
        "free": [(int, int)],
        "chunks": [(int, int, int, bool, int)],
        "reserved": [(int, int)],
        "startup_mode": bool,
        "deferred": [int],
        "malloc_count": int,
        "free_count": int,
        "bytes_allocated": int,
    },
    "fds": [(int, str, bool, {int, type(None)})],
    "fd_alloc": {"next_reserved": int, "next_stash": int, "blocked": [int]},
}
LISTENERS_SHAPE = [(int, int, bool, int)]
# ``TreeFingerprint.to_dict``; each ``processes`` key is ``"pid|name"``.
FINGERPRINT_SHAPE = {
    "processes": {
        str: {
            "mem": [(str, int, int, int)],
            "fds": [(int, str, {int, type(None)}, bool)],
            "allocator": (int, int, int, int),
        }
    },
    "listeners": [(int, int, bool)],
}
# Everything of an image's meta that restore reads; the fingerprint is
# ``check_fingerprint``'s.
IMAGE_SHAPE = {
    "image_id": str,
    "server": str,
    "program_version": int,
    "fingerprint": dict,
    "namespace": {"next_pid": int},
    "net": {
        key: int
        for key in (
            "next_sock_id", "next_conn_id", "next_pair_id", "next_epoll_id",
            "total_connections",
        )
    },
    "listeners": LISTENERS_SHAPE,
    "processes": [
        {
            "pid": int,
            "name": str,
            "parent_pid": {int, type(None)},
            "threads": [{"tid": int, "name": str, "at_barrier": bool, "call_stack": list}],
            "mappings": [{"name": str, "base": int, "size": int, "kind": str, "section": str}],
            **RECORD_SHAPE,
        }
    ],
}


_MISSING = object()


def _misshapen(value: Any, shape: Any) -> Optional[List[Any]]:
    """The key path at which ``value`` departs from ``shape``, or None.

    Types match exactly, so a JSON ``true`` is not a count, and a missing
    key matches no shape, not even one that allows ``None``.
    """
    if isinstance(shape, (set, type)):
        return None if type(value) in (shape if isinstance(shape, set) else (shape,)) else []
    if isinstance(shape, dict) and type(value) is dict and str in shape:
        parts = ((key, item, shape[str]) for key, item in value.items())
    elif isinstance(shape, dict) and type(value) is dict:
        parts = ((key, value.get(key, _MISSING), inner) for key, inner in shape.items())
    elif isinstance(shape, list) and type(value) is list:
        parts = ((at, item, shape[0]) for at, item in enumerate(value))
    elif isinstance(shape, tuple) and type(value) is list and len(value) == len(shape):
        parts = ((at, item, inner) for at, (item, inner) in enumerate(zip(value, shape)))
    else:
        return []
    for key, item, inner in parts:
        found = _misshapen(item, inner)
        if found is not None:
            return [key] + found
    return None


def check_shape(section: str, what: str, value: Any, shape: Any) -> None:
    """Raise ``ImageError(section)`` naming the key unless ``value`` has ``shape``."""
    path = _misshapen(value, shape)
    if path is not None:
        keys = "".join(f"[{key!r}]" for key in path)
        raise ImageError(section, f"missing or ill-typed {what}{keys}")


def check_fingerprint(section: str, payload: Any) -> None:
    """Raise ``ImageError(section)`` unless ``TreeFingerprint.from_dict`` reads ``payload``."""
    check_shape(section, "fingerprint", payload, FINGERPRINT_SHAPE)
    for key in payload["processes"]:
        if not key.partition("|")[0].isdecimal():
            raise ImageError(section, f"fingerprint['processes'] key {key!r} is not 'pid|name'")


def listener_records(net: Any) -> List[List[Any]]:
    """The listener table as images and deltas carry it (``LISTENERS_SHAPE``)."""
    return [
        [port, listener.sock_id, bool(listener.closed), listener.backlog]
        for port, listener in sorted(net._listeners.items())
    ]


def state_record(process: Any) -> Dict[str, Any]:
    """A process's allocator and fd state (``RECORD_SHAPE``): what a graft overlays."""
    fdtable = process.fdtable
    fds = [
        [fd, getattr(obj, "kind", "?"), bool(getattr(obj, "closed", False)),
         getattr(obj, "refcount", None)]
        for fd, obj in fdtable.items()
    ]
    return {
        "heap": _heap_record(process.heap),
        "fds": fds,
        "fd_alloc": fdtable.alloc_state(),
    }


def _process_record(process: Any) -> Dict[str, Any]:
    threads = [
        {
            "tid": t.tid,
            "name": t.name,
            "state": t.state,
            "at_barrier": bool(t.at_barrier),
            "call_stack": list(t.call_stack),
            "blocked_on": t.blocked_on,
        }
        for t in sorted(process.live_threads(), key=lambda t: t.tid)
    ]
    mappings = [
        {
            "name": m.name,
            "base": m.base,
            "size": m.size,
            "kind": m.kind,
            "section": section_name(process.pid, m.name, m.base),
            "write_seq": m.tracker.write_seq,
        }
        for m in sorted(process.space.mappings(), key=lambda m: m.base)
    ]
    return {
        "pid": process.pid,
        "name": process.name,
        "parent_pid": process.parent.pid if process.parent is not None else None,
        "threads": threads,
        "mappings": mappings,
        **state_record(process),
    }


def capture_quiesced(node: Any, config: Optional[MCRConfig] = None) -> CheckpointImage:
    """Serialize an already-quiesced node's tree into an image.

    The caller holds the barrier (``checkpoint_node`` wraps the
    quiesce/release pair).  Fires the ``checkpoint.capture`` site and
    charges the serialization pause to the node's virtual clock.
    """
    config = config or node.session.config
    fire(config, "checkpoint.capture")
    kernel = node.kernel
    fingerprint = TreeFingerprint.capture(kernel, node.root)
    stores: Dict[str, Any] = {}  # section name -> Mapping
    processes = []
    for process in node.root.tree():
        processes.append(_process_record(process))
        for mapping in process.space.mappings():
            stores[section_name(process.pid, mapping.name, mapping.base)] = mapping
    net = kernel.net
    meta: Dict[str, Any] = {
        "server": node.server,
        "program_version": int(node.program.version),
        "captured_ns": kernel.clock.now_ns,
        "fingerprint": fingerprint.to_dict(),
        "namespace": {"next_pid": kernel.pidns._next_pid},
        "net": {
            "next_sock_id": net._next_sock_id,
            "next_conn_id": net._next_conn_id,
            "next_pair_id": net._next_pair_id,
            "next_epoll_id": net._next_epoll_id,
            "total_connections": net.total_connections,
        },
        "listeners": listener_records(net),
        "processes": processes,
    }
    # Identity: a CRC over the structural meta chained over every
    # mapping's contents, so two captures of byte-identical trees get the
    # same id; the container's format is added after, as the id itself is.
    digest = zlib.crc32(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(stores):
        digest = stores[name].crc32(digest)
    meta["image_id"] = f"img-{digest:08x}"
    meta["format"] = FORMAT_VERSION
    image = CheckpointImage(meta, {
        name: Section(*mapping.packed(tuple(mapping.tracker.resident_runs())))
        for name, mapping in stores.items()
    })
    pause_ns = image.total_bytes() * SERIALIZE_BYTE_NS
    kernel.clock.advance(pause_ns)
    obs.incr("checkpoint.images")
    obs.incr("checkpoint.image_bytes", image.total_bytes())
    obs.incr("checkpoint.image_stored_bytes", image.stored_bytes())
    obs.emit(
        "checkpoint.captured",
        image_id=meta["image_id"],
        bytes=image.total_bytes(),
        pause_ns=pause_ns,
    )
    return image


def checkpoint_node(node: Any, config: Optional[MCRConfig] = None) -> CheckpointImage:
    """Quiesce ``node``, capture a full image, resume serving.

    The standard entry point for a running primary; fires the
    ``checkpoint.capture`` site inside the barrier so an injected crash
    leaves the tree quiesced-but-intact (the release in the finally
    resumes it — a failed checkpoint never takes the primary down).
    """
    config = config or node.session.config
    with node.scope():
        with obs.span("checkpoint", server=node.server):
            with node.session.quiescence.held(node.root, config):
                return capture_quiesced(node, config)


# -- durable file I/O ----------------------------------------------------------


def write_image(
    image: CheckpointImage,
    path: str,
    config: Optional[MCRConfig] = None,
) -> int:
    """Write ``image`` to ``path`` atomically; returns bytes written.

    Fires the ``checkpoint.write`` site *before* the rename: an injected
    mid-file death leaves only the temporary file behind, never a torn
    image at ``path`` — the last good image stays readable.
    """
    blob = image.encode()
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
        fire(config, "checkpoint.write")
        handle.write(blob[len(blob) // 2:])
    os.replace(tmp_path, path)
    obs.incr("checkpoint.image_writes")
    return len(blob)


def read_image(path: str) -> CheckpointImage:
    """Read and fully validate a durable image (``ImageError`` on damage)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise ImageError("magic", f"unreadable image file: {error}") from None
    return CheckpointImage.decode(data)
