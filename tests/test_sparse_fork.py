"""Demand-paged mappings: sparse fork against a dense oracle.

``Mapping`` stores are demand-zero and ``clone`` copies only the pages in
``tracker.ever_written``.  That is only correct while *a page not in
``ever_written`` is all zero*, so these tests pin the invariant at three
levels: a hypothesis model of one address space against dense
``bytearray``s, a walk over whole server trees across the update and the
checkpoint planes, and the restore-then-fork regression the invariant
exists for.  Checkpoint images rest on the same invariant — a section
stores resident runs only — so the same model and the same trees pin
*sparse ≡ dense* there (section (d)): the dense capture the image format
used to perform lives on here as the oracle.
"""

from __future__ import annotations

import copy
import json
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.checkpoint import (
    CheckpointImage,
    DeltaBaseline,
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
from repro.checkpoint import restore as restore_module
from repro.checkpoint.image import Section, capture_quiesced, section_name
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE
from repro.servers.node import Node
from repro.workloads.ftpbench import FtpBench
from repro.workloads.holders import ConnectionHolder
from tests.helpers import unmap

SERVERS = ("httpd", "nginx", "vsftpd", "opensshd", "memcache")
# The rows that had a one-shot request script before vsftpd and opensshd
# got theirs: the traffic this test has always sent, kept as it was.
SERVED_BEFORE_REQUEST_SCRIPTS = ("simple", "httpd", "nginx", "nginx_reg", "memcache")
TRACKER_FIELDS = (
    "_cleared_once", "_dirty", "ever_written", "fault_count", "write_seq", "_page_seq",
)
ZERO_PAGE = bytes(PAGE_SIZE)


def tracker_state(mapping, skip=()):
    """A snapshot (copies, not live references) of the tracker's fields."""
    return {
        name: copy.copy(getattr(mapping.tracker, name))
        for name in TRACKER_FIELDS
        if name not in skip
    }


def assert_residency(space: AddressSpace) -> None:
    """Every page outside ``ever_written`` reads as zeros."""
    for mapping in space.mappings():
        window = space.view(mapping.base, mapping.size)
        resident = mapping.tracker.ever_written
        assert all(0 <= page < mapping.tracker.num_pages for page in resident)
        for page in range(mapping.tracker.num_pages):
            if page not in resident:
                start = page * PAGE_SIZE
                assert window[start : start + PAGE_SIZE] == ZERO_PAGE, (
                    f"{mapping.name}: non-resident page {page} holds data"
                )


def assert_tree_residency(processes) -> None:
    for process in processes:
        assert_residency(process.space)


def assert_same_bytes(space: AddressSpace, twin: AddressSpace) -> None:
    """The fork-time contract: ``twin`` holds every byte ``space`` maps."""
    for mapping in space.mappings():
        assert twin.read_bytes(mapping.base, mapping.size) == (
            space.read_bytes(mapping.base, mapping.size)
        ), f"fork dropped bytes of '{mapping.name}'"


# -- (a) model test -----------------------------------------------------------


class DenseModel:
    """One address space next to its oracle: dense bytes + resident pages."""

    def __init__(self, space: AddressSpace, dense=None, resident=None) -> None:
        self.space = space
        self.dense = dense if dense is not None else {}
        self.resident = resident if resident is not None else {}

    def fork(self) -> "DenseModel":
        return DenseModel(
            self.space.clone(),
            {base: bytearray(data) for base, data in self.dense.items()},
            {base: set(pages) for base, pages in self.resident.items()},
        )

    def put(self, base: int, offset: int, data: bytes, touch_zero_pages: bool) -> None:
        self.dense[base][offset : offset + len(data)] = data
        for page in range(offset // PAGE_SIZE, (offset + len(data) - 1) // PAGE_SIZE + 1):
            lo = max(page * PAGE_SIZE, offset) - offset
            hi = min((page + 1) * PAGE_SIZE, offset + len(data)) - offset
            if touch_zero_pages or any(data[lo:hi]):
                self.resident[base].add(page)

    def check(self) -> None:
        bases = [m.base for m in self.space.mappings()]
        assert bases == sorted(self.dense)
        for mapping in self.space.mappings():
            got = self.space.read_bytes(mapping.base, mapping.size)
            assert got == bytes(self.dense[mapping.base])
            assert mapping.tracker.ever_written == self.resident[mapping.base]
        assert_residency(self.space)


def assert_image_graft_matches_dense(model: DenseModel) -> None:
    """capture -> encode -> decode -> replace lands the dense bytes, exactly.

    Into a fresh twin of the layout, and into one whose every page the
    source never touched holds stale data (which the graft must zero).
    """
    space = model.space
    captured = CheckpointImage({}, {
        f"{m.base:x}": Section(*m.packed(tuple(m.tracker.resident_runs())))
        for m in space.mappings()
    })
    image = CheckpointImage.decode(captured.encode())
    for stale in (False, True):
        target = AddressSpace()
        for mapping in space.mappings():
            twin = target.map(mapping.size, address=mapping.base, name=mapping.name)
            for page in set(range(twin.tracker.num_pages)) - model.resident[twin.base]:
                if stale:
                    target.write_bytes(twin.base + page * PAGE_SIZE + 40, b"stale")
        for twin in target.mappings():
            had = set(twin.tracker.ever_written)
            before = tracker_state(twin, skip=("ever_written",))
            epoch = twin.tracker.graft_epoch
            twin.replace(*image.sections[f"{twin.base:x}"])
            assert bytes(twin.data) == bytes(model.dense[twin.base])
            assert twin.tracker.ever_written == had | model.resident[twin.base]
            assert tracker_state(twin, skip=("ever_written",)) == before
            assert twin.tracker.graft_epoch == epoch + 1
        assert_residency(target)


payloads = st.one_of(
    st.binary(min_size=1, max_size=64),
    # Multi-page payloads with whole zero pages inside: what a restored
    # image section or a sparse write looks like.
    st.lists(
        st.sampled_from([ZERO_PAGE, b"\x5a" * PAGE_SIZE, b"\0" * 100 + b"\x01"]),
        min_size=1,
        max_size=3,
    ).map(b"".join),
)
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["map", "write_bytes", "write_word", "load", "clear", "clone", "unmap"]
        ),
        st.integers(0, 1 << 16),  # which space
        st.integers(0, 1 << 16),  # which mapping / how many pages
        st.integers(0, 1 << 16),  # where
        payloads,
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(operations)
def test_sparse_clone_matches_dense_oracle(ops):
    models = [DenseModel(AddressSpace())]
    for kind, which, pick, where, payload in ops:
        model = models[which % len(models)]
        space = model.space
        if kind == "map":
            mapping = space.map((pick % 6 + 1) * PAGE_SIZE)
            model.dense[mapping.base] = bytearray(mapping.size)
            model.resident[mapping.base] = set()
            continue
        if kind == "clear":
            space.clear_soft_dirty()
            continue
        if kind == "clone":
            before = [tracker_state(m) for m in space.mappings()]
            child = model.fork()
            child.check()
            assert [tracker_state(m) for m in child.space.mappings()] == before
            assert [tracker_state(m) for m in space.mappings()] == before
            for ours, theirs in zip(space.mappings(), child.space.mappings()):
                for name in ("_dirty", "ever_written", "_page_seq"):
                    assert getattr(ours.tracker, name) is not getattr(theirs.tracker, name)
            models.append(child)
            continue
        mappings = list(space.mappings())
        if not mappings:
            continue
        mapping = mappings[pick % len(mappings)]
        base = mapping.base
        if kind == "unmap":
            unmap(space, base)
            del model.dense[base], model.resident[base]
        elif kind == "write_word":
            offset = where % (mapping.size - 7)
            value = int.from_bytes(payload[:8].ljust(8, b"\x07"), "little")
            space.write_word(base + offset, value)
            assert space.read_word(base + offset) == value
            model.put(base, offset, value.to_bytes(8, "little"), True)
        else:
            data = payload[: mapping.size]
            offset = where % (mapping.size - len(data) + 1)
            if kind == "write_bytes":
                space.write_bytes(base + offset, data)
                model.put(base, offset, data, True)
            else:
                before = tracker_state(mapping, skip=("ever_written",))
                mapping.load(offset, data)
                after = tracker_state(mapping, skip=("ever_written",))
                assert after == before, "a graft moved soft-dirty/sequencing state"
                model.put(base, offset, data, False)
        # A write on one side of a fork never shows on any other.
        for each in models:
            each.check()
    for each in models:
        each.check()
        assert_image_graft_matches_dense(each)


def test_view_is_read_only():
    space = AddressSpace()
    mapping = space.map(PAGE_SIZE)
    window = space.view(mapping.base, 16)
    assert window.readonly
    with pytest.raises(TypeError):
        window[0] = 1


# -- (b) whole trees across the update and checkpoint planes --------------------


@pytest.mark.parametrize("server", SERVERS)
def test_residency_invariant_across_updates(server):
    spec = SERVER_BENCHES[server]
    world = boot_server(server)
    kernel = world.kernel
    assert_tree_residency(kernel.live_processes())
    spec["workload"]().run(kernel)
    assert_tree_residency(kernel.live_processes())
    ctl = McrCtl(kernel, world.session)
    result = ctl.live_update(spec["make_program"](2))
    assert result.committed, result.error
    assert_tree_residency(kernel.live_processes())
    config = MCRConfig(faults=FaultPlan().at("transfer.memory"))
    result = ctl.live_update(spec["make_program"](3), config=config)
    assert result.rolled_back
    assert_tree_residency(kernel.live_processes())
    spec["workload"]().run(kernel)
    assert_tree_residency(kernel.live_processes())


def _serve(node: Node, requests: int) -> None:
    if node.server in SERVED_BEFORE_REQUEST_SCRIPTS:
        node.serve(requests)
    node.run_for(30_000_000)


@pytest.mark.parametrize("server", SERVERS)
def test_residency_invariant_across_checkpoint_plane(server, tmp_path):
    primary = Node.boot(server)
    standby = None
    try:
        _serve(primary, 4)
        path = str(tmp_path / "node.img")
        write_image(checkpoint_node(primary), path)
        image = read_image(path)
        baseline = DeltaBaseline(image)
        standby = WarmStandby.from_image(image, node_id=1)
        assert_tree_residency(standby.node.root.tree())
        _serve(primary, 3)
        channel = StandbyChannel()
        channel.send(capture_delta(primary, baseline))
        for blob in channel.drain():
            assert standby.apply(blob)
        assert_tree_residency(standby.node.root.tree())
        promoted = standby.promote()
        assert_tree_residency(promoted.root.tree())
        assert primary.fingerprint().diff(promoted.fingerprint()) == []
        # What the graft made resident is what a fork of the promoted
        # tree would carry: the sparse copy must still be the whole tree.
        for process in promoted.root.tree():
            assert_same_bytes(process.space, process.space.clone())
    finally:
        for node in (primary, None if standby is None else standby.node):
            if node is not None:
                node.teardown()


# -- (c) restore, then fork ---------------------------------------------------------


def test_restored_vsftpd_forks_complete_children(monkeypatch):
    """A session forked off a restored tree inherits every grafted byte.

    The restore boots a fresh tree and overlays the image, so a page the
    original first wrote *after* startup reaches the restored parent only
    through the graft.  If the graft bypasses residency, a sparse fork
    hands the session child a zero page there.
    """
    source = Node.boot("vsftpd")
    restored = None
    try:
        FtpBench(21, users=4, retrievals=2).run(source.kernel)
        source.settle(30_000_000)
        heap = next(source.root.space.mappings("heap"))
        late_page = max(heap.tracker.ever_written) + 8
        marker_at = heap.base + late_page * PAGE_SIZE + 24
        source.root.space.write_bytes(marker_at, b"written after startup")
        restored = resume_node(restore_image(checkpoint_node(source), node_id=1))
        forks = []
        plain_clone = AddressSpace.clone

        def checked_clone(space):
            twin = plain_clone(space)
            assert_same_bytes(space, twin)
            forks.append(twin)
            return twin

        monkeypatch.setattr(AddressSpace, "clone", checked_clone)
        holder = ConnectionHolder(21, 2, kind="ftp")
        with restored.scope():
            holder.establish(restored.kernel)
        assert holder.ready == 2 and holder.errors == 0
        sessions = restored.root.descendants()
        assert sessions and len(forks) >= len(sessions)
        for session in sessions:
            assert session.space.read_bytes(marker_at, 21) == b"written after startup"
        assert_tree_residency(restored.root.tree())
        holder.release()
    finally:
        for node in (source, restored):
            if node is not None:
                node.teardown()


# -- (d) checkpoint images: sparse ≡ dense on whole trees ---------------------------

IMAGE_SERVERS = ("httpd", "nginx", "vsftpd", "memcache")


def dense_sections(node: Node) -> dict:
    """The capture image format v1 performed: every mapped byte of the tree."""
    return {
        section_name(process.pid, m.name, m.base): bytes(process.space.view(m.base, m.size))
        for process in node.root.tree()
        for m in process.space.mappings()
    }


def dense_image_id(image: CheckpointImage, dense: dict) -> str:
    """``image_id`` by the plain ``zlib.crc32`` chain over the dense sections."""
    meta = {k: v for k, v in image.meta.items() if k not in ("image_id", "format")}
    digest = zlib.crc32(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(dense):
        digest = zlib.crc32(dense[name], digest)
    return f"img-{digest:08x}"


def expanded(section: Section, size: int) -> bytes:
    out, cursor = bytearray(size), 0
    for start, stop in section.runs:
        out[start:stop] = section.payload[cursor : cursor + stop - start]
        cursor += stop - start
    return bytes(out)


def scribble(node: Node, rng: random.Random, writes: int = 40) -> None:
    """Seeded ``write_bytes`` / ``write_word`` / ``load`` all over a parked tree."""
    spots = [(p.space, m) for p in node.root.tree() for m in p.space.mappings()]
    for _ in range(writes):
        space, mapping = rng.choice(spots)
        length = min(rng.choice((8, 100, PAGE_SIZE, 2 * PAGE_SIZE + 9)), mapping.size)
        offset = rng.randrange(0, mapping.size - length + 1, 8)
        kind = rng.random()
        if kind < 0.3:
            space.write_word(mapping.base + offset, rng.getrandbits(64))
        elif kind < 0.7:
            space.write_bytes(mapping.base + offset, rng.randbytes(length))
        else:
            mapping.load(offset, rng.choice((bytes(length), rng.randbytes(length))))


def restore_watched(image: CheckpointImage, source: Node, rng, monkeypatch):
    """``restore_image``, looking at the booted target right before validation.

    With ``rng``, first dirties pages of the target the source never
    touched.  Returns the restored node and its trackers' pre-graft state.
    """
    resident = {
        (p.pid, m.base): m.tracker.ever_written
        for p in source.root.tree()
        for m in p.space.mappings()
    }
    before = {}
    validate = restore_module._validate_tree

    def watching_validate(node, image):
        for process in node.root.tree():
            for m in process.space.mappings():
                free = sorted(set(range(m.tracker.num_pages)) - resident[process.pid, m.base])
                for page in rng.sample(free, min(3, len(free))) if rng else ():
                    process.space.write_bytes(m.base + page * PAGE_SIZE + 8, b"stale")
                before[process.pid, m.base] = tracker_state(m, skip=("ever_written",))
        return validate(node, image)

    with monkeypatch.context() as patch:
        patch.setattr(restore_module, "_validate_tree", watching_validate)
        return restore_image(image, node_id=1), before


@pytest.mark.parametrize("server", IMAGE_SERVERS)
def test_sparse_image_matches_dense_oracle_on_trees(server, monkeypatch):
    rng = random.Random(f"sparse-image-{server}")
    source = Node.boot(server)
    targets = []
    try:
        _serve(source, 4)
        with hold_quiesced(source):
            scribble(source, rng)
            image = capture_quiesced(source)
            dense = dense_sections(source)
        # Capture: same identity, same bytes, as the dense reader's.
        assert image.image_id == dense_image_id(image, dense)
        assert sorted(image.sections) == sorted(dense)
        for name, section in image.sections.items():
            assert expanded(section, len(dense[name])) == dense[name], name
        assert image.total_bytes() == sum(len(blob) for blob in dense.values())
        # Restore, into a fresh boot and into one with stale pages.
        decoded = CheckpointImage.decode(image.encode())
        assert decoded.image_id == image.image_id
        for dirt in (None, rng):
            target, before = restore_watched(decoded, source, dirt, monkeypatch)
            targets.append(target)
            assert image.fingerprint.diff(target.fingerprint()) == []
            for process in target.root.tree():
                for m in process.space.mappings():
                    name = section_name(process.pid, m.name, m.base)
                    assert bytes(m.data) == dense[name], name
                    assert tracker_state(m, skip=("ever_written",)) == before[process.pid, m.base]
            assert_tree_residency(target.root.tree())
    finally:
        for node in (source, *targets):
            node.teardown()
