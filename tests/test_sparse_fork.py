"""Demand-paged mappings: sparse fork against a dense oracle.

``Mapping`` stores are demand-zero and ``clone`` copies only the pages in
``tracker.ever_written``.  That is only correct while *a page not in
``ever_written`` is all zero*, so these tests pin the invariant at three
levels: a hypothesis model of one address space against dense
``bytearray``s, a walk over whole server trees across the update and the
checkpoint planes, and the restore-then-fork regression the invariant
exists for.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.checkpoint import (
    DeltaBaseline,
    StandbyChannel,
    WarmStandby,
    capture_delta,
    checkpoint_node,
    read_image,
    restore_image,
    resume_node,
    write_image,
)
from repro.fleet.node import REQUEST_SCRIPTS, Node
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mem.address_space import AddressSpace
from repro.mem.pages import PAGE_SIZE
from repro.workloads.ftpbench import FtpBench
from repro.workloads.holders import ConnectionHolder

SERVERS = ("httpd", "nginx", "vsftpd", "opensshd", "memcache")
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
            space.unmap(base)
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
    if node.server in REQUEST_SCRIPTS:
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
