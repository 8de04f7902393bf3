"""Durable checkpoint images: round-trip, delta chains, corruption, blackbox.

The tentpole property is byte-identity: checkpoint a quiesced server,
restore it into a fresh kernel, and the restored tree's
``TreeFingerprint`` must match the image exactly — for every server,
and after any full-then-N-incremental delta chain.  The hardening
property is atomicity: a damaged or incompatible image raises a typed
``ImageError`` naming the failing section and never yields a partially
restored tree.
"""

from __future__ import annotations

import json
import random
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointImage,
    DeltaBaseline,
    FORMAT_VERSION,
    StandbyChannel,
    WarmStandby,
    capture_delta,
    checkpoint_node,
    hold_quiesced,
    read_image,
    restore_image,
    resume_node,
    write_image,
)
from repro.checkpoint.delta import DELTA_SHAPE
from repro.checkpoint.image import Section, section_name, state_record
from repro.cli import main
from repro.errors import ImageError, PromotionError
from repro.mcr.config import MCRConfig
from repro.mcr.faults import FaultPlan, TreeFingerprint
from repro.mem.pages import PAGE_SIZE
from repro.servers.node import Node

SERVERS = ("simple", "httpd", "nginx", "vsftpd", "memcache")
# The rows that had a one-shot request script before vsftpd and opensshd
# got theirs: the traffic this test has always sent, kept as it was.
SERVED_BEFORE_REQUEST_SCRIPTS = ("simple", "httpd", "nginx", "nginx_reg", "memcache")

WARMUP_NS = 30_000_000


def _boot_warm(server: str, requests: int = 4) -> Node:
    """Boot a node, push some traffic through it, and drain in-flight work."""
    node = Node.boot(server)
    if requests and server in SERVED_BEFORE_REQUEST_SCRIPTS:
        node.serve(requests)
    node.run_for(WARMUP_NS)
    return node


def _teardown(*nodes: Node) -> None:
    for node in nodes:
        if node is not None and not node.torn_down:
            node.teardown()


# -- full-image round trip ----------------------------------------------------


@pytest.mark.parametrize("server", SERVERS)
def test_round_trip_fingerprint_identical(server):
    source = _boot_warm(server)
    restored = None
    try:
        image = checkpoint_node(source)
        assert image.server == server
        assert image.meta["format"] == FORMAT_VERSION
        restored = restore_image(image, node_id=1)
        live = restored.fingerprint()
        assert image.fingerprint.diff(live) == []
    finally:
        _teardown(source, restored)


def test_restored_node_serves_after_resume(tmp_path):
    source = _boot_warm("simple")
    restored = None
    try:
        image = checkpoint_node(source)
        path = tmp_path / "simple.img"
        write_image(image, str(path))
        reloaded = read_image(str(path))
        assert reloaded.image_id == image.image_id
        assert reloaded.fingerprint.diff(image.fingerprint) == []
        restored = resume_node(restore_image(reloaded, node_id=1))
        restored.serve(3)
        restored.run_for(WARMUP_NS)
        assert restored.completed == 3
        assert restored.lost == 0
    finally:
        _teardown(source, restored)


def test_fingerprint_dict_round_trip():
    node = _boot_warm("simple")
    try:
        original = node.fingerprint()
        clone = TreeFingerprint.from_dict(original.to_dict())
        assert clone.diff(original) == []
        # JSON round-trip must be lossless too (the image meta relies on it).
        rejson = TreeFingerprint.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert rejson.diff(original) == []
    finally:
        _teardown(node)


# -- delta chains -------------------------------------------------------------


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rounds=st.lists(st.integers(min_value=1, max_value=3), max_size=3))
def test_full_then_incremental_chain_matches_primary(rounds):
    """Full image + N streamed deltas leave the standby byte-identical."""
    primary = _boot_warm("simple")
    standby = None
    try:
        image = checkpoint_node(primary)
        baseline = DeltaBaseline(image)
        standby = WarmStandby.from_image(image, node_id=1)
        channel = StandbyChannel()
        for requests in rounds:
            primary.serve(requests)
            primary.run_for(WARMUP_NS)
            delta = capture_delta(primary, baseline)
            assert delta is not None, "no structural change expected"
            channel.send(delta)
            for blob in channel.drain():
                assert standby.apply(blob)
        assert not standby.stale
        assert standby.applied_seq == len(rounds)
        live = primary.fingerprint()
        grafted = standby.node.fingerprint()
        assert live.diff(grafted) == []
    finally:
        _teardown(primary, None if standby is None else standby.node)


def test_sequence_gap_marks_standby_stale():
    primary = _boot_warm("simple")
    standby = None
    try:
        image = checkpoint_node(primary)
        baseline = DeltaBaseline(image)
        standby = WarmStandby.from_image(image, node_id=1)
        deltas = []
        for _ in range(2):
            primary.serve(2)
            primary.run_for(WARMUP_NS)
            deltas.append(capture_delta(primary, baseline))
        # Drop delta seq 1 on the floor: seq 2 arrives against applied_seq 0.
        assert not standby.apply(deltas[1].encode())
        assert standby.stale
        assert standby.deltas_rejected == 1
        # A stale standby refuses everything until resynced from a full image.
        assert not standby.apply(deltas[0].encode())
        standby.resync(checkpoint_node(primary))
        assert not standby.stale
    finally:
        _teardown(primary, None if standby is None else standby.node)


# -- a delta is an image: decode names the damaged section, and only that ------


def _cut_delta(primary):
    """A full image of ``primary``, a standby restored from it, and one delta."""
    image = checkpoint_node(primary)
    baseline = DeltaBaseline(image)
    standby = WarmStandby.from_image(image, node_id=1)
    primary.serve(3)
    primary.run_for(WARMUP_NS)
    return image, standby, capture_delta(primary, baseline)


def _delta_with(delta, meta=None, sections=None) -> bytes:
    """``delta`` re-encoded with its meta or sections replaced: every CRC is right."""
    return CheckpointImage(
        delta.meta if meta is None else meta,
        delta.sections if sections is None else sections,
    ).encode()


def test_delta_is_an_image_of_the_pages_written_since():
    primary = _boot_warm("simple")
    standby = None
    try:
        _image, standby, delta = _cut_delta(primary)
        blob = delta.encode()
        assert blob[:8] == b"MCRIMAGE" and struct.unpack_from("<I", blob, 8) == (FORMAT_VERSION,)
        decoded = CheckpointImage.decode(blob)
        assert {k: v for k, v in decoded.meta.items() if k != "sections"} == delta.meta
        assert {n: (s.runs, bytes(s.payload)) for n, s in decoded.sections.items()} == {
            n: (s.runs, bytes(s.payload)) for n, s in delta.sections.items()
        }
        # Each section is named as the image names the mapping it lands
        # in, and holds exactly the pages written since the image.
        live = {
            section_name(p.pid, m.name, m.base): m
            for p in primary.root.tree() for m in p.space.mappings()
        }
        assert delta.sections and set(delta.sections) <= set(live)
        for name, (runs, payload) in delta.sections.items():
            assert runs and all(start < stop for start, stop in runs)
            assert bytes(payload) == b"".join(live[name].data[a:b] for a, b in runs)
        assert delta.stored_bytes() == sum(b - a for s in delta.sections.values() for a, b in s.runs)
    finally:
        _teardown(primary, None if standby is None else standby.node)


def test_damaged_delta_raises_nothing_but_image_error():
    primary = _boot_warm("simple")
    standby = None
    try:
        image, standby, delta = _cut_delta(primary)
        blob = delta.encode()
        meta, body = _layout(blob)

        # One flipped byte anywhere names the region it hit, as for images.
        rng = random.Random(21)
        regions = [
            ("magic", range(0, 8)),
            ("version", range(8, 12)),
            ("meta", range(12, body)),  # meta length, meta JSON, meta CRC
        ]
        for name, record in meta["sections"].items():
            start = body + record["offset"]
            regions.append((name, range(start, start + record["length"])))
        assert sum(len(span) for _name, span in regions) == len(blob)
        for expected, span in regions:
            for at in rng.sample(span, min(len(span), 24)):
                assert _decode_error(_flipped(blob, at, rng)) == expected, f"flip at {at}"

        # Truncation at each boundary +- 1, and one byte too many.
        names = set(meta["sections"])
        boundaries = {0, 8, 12, 16, body - 4, body, len(blob)}
        boundaries |= {body + record["offset"] for record in meta["sections"].values()}
        for cut in sorted({b + d for b in boundaries for d in (-1, 0, 1)}):
            if 0 <= cut < len(blob):
                assert _decode_error(blob[:cut]) in names | {"magic", "meta"}, f"cut at {cut}"
        assert _decode_error(blob + b"\x00") == "meta"

        # ``apply`` is as it was: damage marks the standby stale, no raise.
        assert not standby.apply(_flipped(blob, len(blob) - 1, rng))
        assert standby.stale and standby.deltas_rejected == 1
    finally:
        _teardown(primary, None if standby is None else standby.node)


# Each ``DELTA_SHAPE`` key, retyped: with it missing or a bool instead, three
# metas that pass their CRC and that the standby must refuse naming the key.
RETYPED_DELTA_META = {"seq": "1", "base_image_id": 7, "captured_ns": None, "records": [],
                      "listeners": {}, "fingerprint": "none"}


def test_every_delta_meta_key_is_checked():
    assert set(RETYPED_DELTA_META) == set(DELTA_SHAPE)


@pytest.mark.parametrize("key", RETYPED_DELTA_META)
def test_delta_meta_a_standby_cannot_read_is_refused_naming_the_key(key):
    primary = _boot_warm("simple")
    standby = None
    try:
        image, standby, delta = _cut_delta(primary)
        before = standby.node.fingerprint()
        for doctored in (
            {k: v for k, v in delta.meta.items() if k != key},
            {**delta.meta, key: RETYPED_DELTA_META[key]},
            {**delta.meta, key: True},  # a bool is not a count
        ):
            fresh = WarmStandby(standby.node, image)
            with standby.node.scope():
                assert not fresh.apply(_delta_with(delta, meta=doctored))
            event = [e for e in standby.node.collector.events
                     if e.name == "standby.delta_rejected"][-1]
            assert "'meta'" in event.payload["error"] and repr(key) in event.payload["error"]
            assert fresh.stale and fresh.applied_seq == 0
        assert before.diff(standby.node.fingerprint()) == []
    finally:
        _teardown(primary, None if standby is None else standby.node)


def _renamed_last_section(rename):
    """The delta plus a copy of its last section, named ``rename(pid, name, base)``."""
    def doctor(delta, _standby):
        last = max(delta.sections)
        pid, rest = last[len("mem/"):].split("/", 1)
        name, base = rest.rsplit("@", 1)
        renamed = rename(int(pid), name, int(base, 16))
        sections = {**delta.sections, renamed: delta.sections[last]}
        return _delta_with(delta, sections=sections), renamed

    return doctor


def _last_run_ending_at(end):
    """The last section's last run moved to end at ``end(mapping size)``."""
    def doctor(delta, standby):
        last = max(delta.sections)
        (mapping,) = [
            m for p in standby.node.root.tree() for m in p.space.mappings()
            if section_name(p.pid, m.name, m.base) == last
        ]
        runs, payload = delta.sections[last]
        start, stop = runs[-1]
        shift = end(mapping.size) - stop
        moved = Section((*runs[:-1], (start + shift, stop + shift)), payload)
        return _delta_with(delta, sections={**delta.sections, last: moved}), last

    return doctor


def _in_meta(blamed, doctor):
    """A doctor of the delta's meta alone; the sections stay as cut."""
    return lambda delta, standby: (_delta_with(delta, meta=doctor(delta.meta, standby)), blamed)


def _records_for(pid_text):
    """A process record for a pid the tree does not have (never opened)."""
    return _in_meta("'records'", lambda meta, standby: {
        **meta, "records": {**meta["records"], pid_text: _root_state(standby)}})


def _root_state(standby):
    return state_record(standby.node.root)


def _unpid_fingerprint(fingerprint):
    """``fingerprint`` with each process keyed by name alone, no pid."""
    processes = {
        key.partition("|")[2]: entry for key, entry in fingerprint["processes"].items()
    }
    return {**fingerprint, "processes": processes}


# A delta whose every CRC is right that does not land in the standby's
# tree: each doctor returns the encoded delta and what its refusal blames.
MISSES_THE_TREE = {
    "unknown-pid": _renamed_last_section(lambda pid, name, base: f"mem/4242/{name}@0x{base:x}"),
    "no-mapping-there": _renamed_last_section(lambda pid, name, base: f"mem/{pid}/{name}@0x1000"),
    "not-a-mapping-start": _renamed_last_section(
        lambda pid, name, base: f"mem/{pid}/{name}@0x{base + PAGE_SIZE:x}"),
    "pid-not-a-number": _renamed_last_section(lambda pid, name, base: f"mem/init/{name}@0x{base:x}"),
    "another-mapping-name": _renamed_last_section(
        lambda pid, name, base: f"mem/{pid}/elsewhere@0x{base:x}"),
    "run-a-page-past-the-mapping": _last_run_ending_at(lambda size: size + PAGE_SIZE),
    "run-far-past-the-mapping": _last_run_ending_at(lambda size: 1 << 40),
    "listener-closed-not-a-bool": _in_meta(
        "'listeners'",
        lambda meta, _s: {**meta, "listeners": [[*meta["listeners"][0][:2], 0, 1]]}),
    "record-for-unknown-pid": _records_for("4242"),
    "record-for-non-pid": _records_for("init"),
    "fingerprint-empty": _in_meta("'processes'", lambda meta, _s: {**meta, "fingerprint": {}}),
    "fingerprint-key-not-a-pid": _in_meta(
        "'pid|name'",
        lambda meta, _s: {**meta, "fingerprint": _unpid_fingerprint(meta["fingerprint"])}),
}


def _root_record(doctor):
    """The standby root's own heap / fds / fd_alloc, doctored, as its ``records`` entry."""
    def doctor_meta(meta, standby):
        root = standby.node.root
        return {**meta, "records": {**meta["records"], str(root.pid): doctor(_root_state(standby))}}

    return doctor_meta


def _heap(**changed):
    return lambda record: {**record, "heap": {**record["heap"], **changed}}


def _heap_plus(key, entry):
    return lambda record: _heap(**{key: record["heap"][key] + [entry]})(record)


# A record for a pid the tree has, whose contents an image's restore
# would refuse: the graft used to raise half-way or take it.
BAD_RECORD_CONTENTS = {
    "record-without-heap": (
        "'heap'", _root_record(lambda rec: {k: v for k, v in rec.items() if k != "heap"})),
    "fds-not-a-list": ("'fds'", _root_record(lambda rec: {**rec, "fds": 7})),
    "fd-alloc-without-blocked": (
        "'blocked'", _root_record(lambda rec: {**rec, "fd_alloc": {"next_reserved": 3,
                                                                   "next_stash": 0}})),
    "chunk-size-not-a-count": (
        "'chunks'", _root_record(_heap_plus("chunks", [0x10, True, 32, False, 0]))),
    "chunk-below-the-heap": (
        "'chunks'", _root_record(_heap_plus("chunks", [0x10, 16, 32, False, 0]))),
    "free-interval-past-the-heap": (
        "'free'", _root_record(_heap_plus("free", [2**60, 2**60 + PAGE_SIZE]))),
    "heap-base-moved": ("'base'", _root_record(_heap(base=0x1000))),
}


@pytest.mark.parametrize("case", MISSES_THE_TREE)
def test_well_formed_delta_that_misses_the_tree_is_rejected_before_any_write(case):
    _assert_refused_before_any_write(MISSES_THE_TREE[case])


@pytest.mark.parametrize("case", BAD_RECORD_CONTENTS)
def test_delta_record_an_image_restore_would_refuse_is_rejected_before_any_write(case):
    blamed, doctor = BAD_RECORD_CONTENTS[case]
    _assert_refused_before_any_write(_in_meta(blamed, doctor))


def _in_root(key, value):
    """The first process record's ``key`` set to ``value``."""
    return lambda meta: meta["processes"][0].__setitem__(key, value)


def _in_root_heap(key, value):
    return lambda meta: meta["processes"][0]["heap"].__setitem__(key, value)


def _short_first_fd(meta):
    fds = meta["processes"][0]["fds"]
    fds[0] = fds[0][:3]


def _short_first_allocator(meta):
    first = next(iter(meta["fingerprint"]["processes"].values()))
    first["allocator"] = first["allocator"][:1]


# An image whose CRCs are right and whose meta a restore cannot graft: it
# used to raise ValueError / KeyError half-way, or restore the garbage and
# call the fingerprint verified.  The same check refuses a delta's records.
BAD_IMAGE_META = {
    "free-not-a-list": ("'free'", _in_root_heap("free", "x")),
    "short-fd-entry": ("'fds'", _short_first_fd),
    "no-fd-alloc": ("'fd_alloc'", lambda meta: meta["processes"][0].pop("fd_alloc")),
    "no-net": ("'net'", lambda meta: meta.pop("net")),
    "deferred-a-string": ("'deferred'", _in_root_heap("deferred", "ab")),
    "malloc-count-a-string": ("'malloc_count'", _in_root_heap("malloc_count", "7")),
    "no-program-version": ("'program_version'", lambda meta: meta.pop("program_version")),
    "parent-pid-a-string": ("'parent_pid'", _in_root("parent_pid", "0")),
    "no-parent-pid": ("'parent_pid'", lambda meta: meta["processes"][0].pop("parent_pid")),
    "fingerprint-empty": ("'processes'", lambda meta: meta.__setitem__("fingerprint", {})),
    "fingerprint-allocator-short": ("'allocator'", _short_first_allocator),
    "fingerprint-key-not-a-pid": (
        "'pid|name'",
        lambda meta: meta.__setitem__("fingerprint", _unpid_fingerprint(meta["fingerprint"]))),
    "listener-closed-not-a-bool": (
        "'listeners'", lambda meta: meta["listeners"][0].__setitem__(2, 0)),
}


@pytest.fixture(scope="module")
def simple_image():
    return _encoded_simple_image()


@pytest.mark.parametrize("case", BAD_IMAGE_META)
def test_image_meta_a_restore_cannot_graft_is_refused_before_any_write(
    case, simple_image, tmp_path, capsys, monkeypatch
):
    blamed, doctor = BAD_IMAGE_META[case]
    _image, blob = simple_image
    meta, _body = _layout(blob)
    doctor(meta)
    doctored = _with_meta(blob, json.dumps(meta, sort_keys=True).encode())
    image = CheckpointImage.decode(doctored)  # every CRC and section is fine
    booted = []
    real_boot = Node.boot

    def spied_boot(*args, **kwargs):
        booted.append(real_boot(*args, **kwargs))
        return booted[-1]

    monkeypatch.setattr(Node, "boot", spied_boot)
    try:
        with pytest.raises(ImageError) as excinfo:
            restore_image(image, node_id=1)
    finally:
        _teardown(*booted)
    assert excinfo.value.section == "meta" and blamed in str(excinfo.value)
    assert booted == []  # refused before a tree existed to be written to
    # The CLI reports it as a refused image, not a traceback.
    path = tmp_path / "doctored.img"
    path.write_bytes(doctored)
    assert main(["restore", str(path)]) == 2
    assert f"cannot restore {path}" in capsys.readouterr().err


def _assert_refused_before_any_write(doctor):
    primary = _boot_warm("simple")
    standby = None
    try:
        _image, standby, delta = _cut_delta(primary)
        assert delta.sections
        before = standby.node.fingerprint()
        blob, blamed = doctor(delta, standby)
        with standby.node.scope():
            # Decodes (the CRCs are right), is the next in sequence, and
            # points outside the standby's tree or carries a record its
            # graft cannot take: refused, not raised, and
            # not one good section or record before the bad one was written.
            assert not standby.apply(blob)
        assert standby.stale and (standby.deltas_rejected, standby.deltas_applied) == (1, 0)
        assert standby.applied_seq == 0
        (event,) = [e for e in standby.node.collector.events if e.name == "standby.delta_rejected"]
        assert "ImageError" in event.payload["error"] and blamed in event.payload["error"]
        assert before.diff(standby.node.fingerprint()) == []
        # Stale, but still the last consistent checkpoint: promotable.
        promoted = standby.promote()
        served = promoted.completed
        promoted.serve(2)
        promoted.run_for(WARMUP_NS)
        assert (promoted.completed - served, promoted.lost) == (2, 0)
    finally:
        _teardown(primary, None if standby is None else standby.node)


# -- corrupt-image hardening --------------------------------------------------


def _encoded_image(server):
    node = _boot_warm(server)
    try:
        image = checkpoint_node(node)
        return image, image.encode()
    finally:
        _teardown(node)


def _encoded_simple_image():
    return _encoded_image("simple")


@pytest.fixture(scope="module")
def httpd_image():
    """A three-process image with multi-run sections, cut once for the fuzz tests."""
    return _encoded_image("httpd")


def test_corrupt_images_raise_typed_errors():
    image, blob = _encoded_simple_image()

    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(b"NOTMCRIM" + blob[8:])
    assert excinfo.value.section == "magic"

    bad_version = blob[:8] + struct.pack("<I", FORMAT_VERSION + 1) + blob[12:]
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(bad_version)
    assert excinfo.value.section == "version"

    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(blob[:40])
    assert excinfo.value.section == "meta"

    # Truncation mid-sections names the damaged section, not "meta".
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(blob[:-64])
    assert excinfo.value.section in image.sections

    # A single flipped bit in a section payload fails that section's CRC.
    flipped = bytearray(blob)
    flipped[-10] ^= 0x40
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(bytes(flipped))
    assert excinfo.value.section in image.sections


def test_incompatible_image_never_partially_restores():
    source = _boot_warm("simple")
    try:
        image = checkpoint_node(source)
        meta = json.loads(json.dumps(image.meta))  # deep copy
        meta["processes"][0]["threads"][0]["call_stack"] = ["somewhere", "else"]
        doctored = CheckpointImage(meta, dict(image.sections))
        with pytest.raises(ImageError) as excinfo:
            restore_image(doctored, node_id=1)
        assert excinfo.value.section == "threads"
    finally:
        _teardown(source)


def test_v1_image_is_refused_by_version():
    _image, blob = _encoded_simple_image()
    assert FORMAT_VERSION == 2
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(blob[:8] + struct.pack("<I", 1) + blob[12:])
    assert excinfo.value.section == "version"


# -- image-format fuzzing: decode raises a section-named ImageError, only -------

_HEADER_SIZE = 16


def _layout(blob):
    """``(meta, body_start)`` of an encoded image."""
    (meta_len,) = struct.unpack_from("<I", blob, 12)
    meta_end = _HEADER_SIZE + meta_len
    return json.loads(blob[_HEADER_SIZE:meta_end]), meta_end + 4


def _decode_error(blob) -> str:
    """The section ``decode`` blames; anything but ``ImageError`` propagates."""
    with pytest.raises(ImageError) as excinfo:
        CheckpointImage.decode(bytes(blob))
    return excinfo.value.section


def _flipped(blob, at, rng):
    damaged = bytearray(blob)
    damaged[at] ^= rng.randrange(1, 256)
    return damaged


def test_fuzzed_byte_flips_name_the_damaged_region(httpd_image):
    _image, blob = httpd_image
    meta, body = _layout(blob)
    rng = random.Random(20)
    regions = [
        ("magic", range(0, 8)),
        ("version", range(8, 12)),
        ("meta", range(12, _HEADER_SIZE)),      # the meta length
        ("meta", range(_HEADER_SIZE, body - 4)),
        ("meta", range(body - 4, body)),        # the meta CRC
    ]
    for name, record in meta["sections"].items():
        start = body + record["offset"]
        regions.append((name, range(start, start + record["length"])))
    assert sum(len(span) for _name, span in regions) == len(blob)
    assert sum(1 for _name, span in regions[5:] if span) >= 5  # sections with bytes
    for expected, span in regions:
        for at in rng.sample(span, min(len(span), 24)):
            assert _decode_error(_flipped(blob, at, rng)) == expected, f"flip at {at}"


def test_truncation_at_every_section_boundary_is_rejected(httpd_image):
    image, blob = httpd_image
    meta, body = _layout(blob)
    assert _decode_error(blob[: body - 1]) == "meta"
    names = set(image.sections)
    boundaries = {body + r["offset"] for r in meta["sections"].values()} | {len(blob)}
    cuts = {b + d for b in boundaries for d in (-1, 0, 1)}
    for cut in sorted(c for c in cuts if body <= c < len(blob)):
        assert _decode_error(blob[:cut]) in names, f"cut at {cut}"
    CheckpointImage.decode(blob)  # the whole image still decodes


def _with_meta(blob, meta_blob):
    """``blob``'s sections behind a different meta document, CRC fixed up."""
    _meta, body = _layout(blob)
    header = struct.pack("<8sII", b"MCRIMAGE", FORMAT_VERSION, len(meta_blob))
    return header + meta_blob + struct.pack("<I", zlib.crc32(meta_blob)) + blob[body:]


def _with_section_record(blob, mutate):
    """Re-encode ``blob`` with its largest section's record doctored."""
    meta, _body = _layout(blob)
    name = max(meta["sections"], key=lambda n: meta["sections"][n]["length"])
    mutate(meta["sections"][name])
    return name, _with_meta(blob, json.dumps(meta, sort_keys=True).encode())


def _set(key, value):
    return lambda record: record.__setitem__(key, value)


def _shift_runs(record):  # same length, off the page grid
    record["runs"] = [[start + 8, stop + 8] for start, stop in record["runs"]]


def _split_run(record):
    """The first run as two pages-long halves (needs >= 2 pages)."""
    start, stop = record["runs"][0]
    assert stop - start >= 2 * PAGE_SIZE
    return [start, start + PAGE_SIZE], [start + PAGE_SIZE, stop], record["runs"][1:]


def _descending_runs(record):
    first, second, rest = _split_run(record)
    record["runs"] = [second, first, *rest]


def _overlapping_runs(record):
    first, second, rest = _split_run(record)
    record["runs"] = [first, [second[0] - PAGE_SIZE, second[1] - PAGE_SIZE], *rest]


def _short_runs(record):
    first, _second, rest = _split_run(record)
    record["runs"] = [first, *rest]


RECORD_DAMAGE = [
    *(
        (f"{key}={value!r}", _set(key, value))
        for key in ("offset", "length", "crc32", "runs")
        for value in (None, -1, "7", 1.5, True, {"a": 1})
    ),
    *(
        (f"no {key}", lambda record, key=key: record.pop(key))
        for key in ("offset", "length", "crc32", "runs")
    ),
    ("runs of non-pairs", _set("runs", [[0], [1, 2, 3]])),
    ("runs of non-ints", _set("runs", [["0", 4096]])),
    ("unaligned runs", _shift_runs),
    ("descending runs", _descending_runs),
    ("overlapping runs", _overlapping_runs),
    ("runs shorter than length", _short_runs),
]


@pytest.mark.parametrize("mutate", [m for _l, m in RECORD_DAMAGE], ids=[l for l, _m in RECORD_DAMAGE])
def test_doctored_section_record_names_its_section(mutate, httpd_image):
    _image, blob = httpd_image
    name, doctored = _with_section_record(blob, mutate)
    assert _decode_error(doctored) == name


@pytest.mark.parametrize(
    "meta_blob,blamed",
    [
        (b"[]", "meta"),
        (b"null", "meta"),
        (b"7", "meta"),
        (b'"meta"', "meta"),
        (b'{"seq": 1', "meta"),  # not JSON
        (b"\xff\xfe", "meta"),  # not text
        (b'{"sections": []}', "meta"),
        (b'{"sections": {"mem/1/x@0x0": 7}}', "mem/1/x@0x0"),
    ],
)
def test_meta_that_is_not_a_section_table_is_rejected(meta_blob, blamed, httpd_image):
    _image, blob = httpd_image
    assert _decode_error(_with_meta(blob, meta_blob)) == blamed


def _quiesced_boot_fingerprint(server: str) -> TreeFingerprint:
    """What a fresh boot parked at the barrier fingerprints as (deterministic)."""
    node = Node.boot(server, node_id=1)
    try:
        with hold_quiesced(node):
            return node.fingerprint()
    finally:
        _teardown(node)


def _past_the_end(section, size):
    start, stop = section.runs[-1]
    return section._replace(runs=(*section.runs[:-1], (start + size, stop + size)))


def _short_payload(section, _size):
    return section._replace(payload=bytes(section.payload)[:-PAGE_SIZE])


@pytest.mark.parametrize("doctor", [_past_the_end, _short_payload])
def test_doctored_in_memory_image_never_partially_grafts(doctor, monkeypatch):
    """A bad last section is found before the first mapping is written."""
    source = _boot_warm("simple")
    try:
        image = checkpoint_node(source)
    finally:
        _teardown(source)
    mappings = image.meta["processes"][-1]["mappings"]
    entry = [e for e in mappings if image.sections[e["section"]].runs][-1]
    sections = dict(image.sections)
    sections[entry["section"]] = doctor(sections[entry["section"]], entry["size"])
    at_teardown = []
    real_teardown = Node.teardown

    def fingerprinting_teardown(node):
        at_teardown.append(node.fingerprint())
        real_teardown(node)

    with monkeypatch.context() as patch, pytest.raises(ImageError) as excinfo:
        patch.setattr(Node, "teardown", fingerprinting_teardown)
        restore_image(CheckpointImage(image.meta, sections), node_id=1)
    assert excinfo.value.section == entry["section"]
    (failed_target,) = at_teardown
    assert _quiesced_boot_fingerprint("simple").diff(failed_target) == []


def test_unreadable_image_file(tmp_path):
    with pytest.raises(ImageError) as excinfo:
        read_image(str(tmp_path / "missing.img"))
    assert excinfo.value.section == "magic"


# -- blackbox dumps -----------------------------------------------------------


def test_failed_restore_dumps_blackbox(tmp_path):
    source = _boot_warm("simple")
    try:
        image = checkpoint_node(source)
        blackbox_path = tmp_path / "restore-blackbox.json"
        config = MCRConfig(
            faults=FaultPlan().at("restore.image"),
            blackbox_path=str(blackbox_path),
        )
        with pytest.raises(ImageError):
            restore_image(image, node_id=1, config=config)
        assert blackbox_path.exists()
        dump = json.loads(blackbox_path.read_text())
        assert dump["reason"] == "restore.failed"
        assert dump["image_version"] == image.image_id
        assert dump["failure_site"] == "restore.image"
        assert dump["last_applied_delta_seq"] == 0
    finally:
        _teardown(source)


def test_failed_promotion_dumps_blackbox(tmp_path):
    primary = _boot_warm("simple")
    standby = None
    try:
        image = checkpoint_node(primary)
        blackbox_path = tmp_path / "promote-blackbox.json"
        config = MCRConfig(
            faults=FaultPlan().at("standby.promote"),
            blackbox_path=str(blackbox_path),
        )
        standby = WarmStandby.from_image(image, node_id=1, config=config)
        baseline = DeltaBaseline(image)
        primary.serve(2)
        primary.run_for(WARMUP_NS)
        delta = capture_delta(primary, baseline)
        assert standby.apply(delta.encode())
        with pytest.raises(PromotionError):
            standby.promote()
        assert blackbox_path.exists()
        dump = json.loads(blackbox_path.read_text())
        assert dump["reason"] == "standby.promote_failed"
        assert dump["image_version"] == image.image_id
        assert dump["last_applied_delta_seq"] == 1
        assert standby.last_blackbox is not None
    finally:
        _teardown(primary, None if standby is None else standby.node)
