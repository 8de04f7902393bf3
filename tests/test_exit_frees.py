"""A dead process gives back its image.

Exit, a committed update's old tree, a rolled-back update's new tree, a
crash and the image an ``exec`` replaces all go through one release
step: every store is closed and every mapping forgotten, so the dead
image holds no pages and a late read faults as unmapped memory.  A node
updated again and again therefore holds the pages of its live tree only.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.errors import MemoryFault
from repro.fleet.failover import FailoverDrill
from repro.fleet.node import Node
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.servers import httpd
from repro.servers.catalog import boot
from repro.workloads.sshsuite import SshSuite

# (process, its address space, its stores, one mapped address) as they
# were before the process died.
Image = Tuple[Process, object, list, int]


def _images(processes: List[Process]) -> List[Image]:
    images = []
    for process in processes:
        mappings = list(process.space.mappings())
        images.append(
            (process, process.space, [m.data for m in mappings], mappings[0].base)
        )
    return images


def _assert_released(images: List[Image]) -> None:
    assert images
    for _process, space, stores, address in images:
        assert space.mapped_bytes() == 0
        assert space.resident_bytes() == 0
        assert all(store.closed for store in stores)
        with pytest.raises(MemoryFault):
            space.read_word(address)


def test_a_committed_whole_tree_update_frees_the_old_tree():
    world = boot("simple")
    old = _images(world.root.tree())
    result = McrCtl(world.kernel, world.session).live_update(world.make_program(2))
    assert result.committed, result.error
    assert all(process.exited for process, *_ in old)
    _assert_released(old)


def test_a_committed_rolling_update_frees_the_old_workers():
    workers = 16
    world = boot(
        "httpd",
        make_program=lambda version=1: httpd.make_program(
            version, server_processes=workers
        ),
    )
    old = _images(world.root.tree())
    assert len(old) > workers
    result = McrCtl(world.kernel, world.session).live_update(
        httpd.make_program(2, server_processes=workers),
        config=MCRConfig(update_mode="rolling"),
    )
    assert result.committed, result.error
    assert result.rolling_batches >= 2
    _assert_released(old)


def test_a_rolled_back_update_frees_the_new_tree(monkeypatch):
    world = boot("simple")
    kernel = world.kernel
    born = []
    register = Kernel._register

    def recording(self, process):
        register(self, process)
        born.append(process)

    monkeypatch.setattr(Kernel, "_register", recording)
    # The image of each new process as it stood when the rollback began.
    new = []
    terminate_tree = Kernel.terminate_tree

    def capturing(self, root, status=0):
        new.extend(_images(root.tree()))
        terminate_tree(self, root, status)

    monkeypatch.setattr(Kernel, "terminate_tree", capturing)
    result = McrCtl(kernel, world.session).live_update(
        world.make_program(2),
        config=MCRConfig(faults=FaultPlan().at("transfer.memory")),
    )
    assert result.rolled_back and result.rollback_verified is True
    assert born and {id(p) for p, *_ in new} == {id(p) for p in born}
    _assert_released(new)
    assert not any(p.exited for p in world.root.tree())


def test_a_crashed_primary_is_freed(monkeypatch):
    crashed = []
    crash_tree = Kernel.crash_tree

    def capturing(self, root, status=137):
        crashed.extend(_images(root.tree()))
        crash_tree(self, root, status)
        # Checked here: the drill tears every node down afterwards.
        _assert_released(crashed)

    monkeypatch.setattr(Kernel, "crash_tree", capturing)
    result = FailoverDrill("simple").run()
    assert result.crashed and not result.violations(), result.error
    assert crashed


def test_exec_frees_the_image_it_replaces(monkeypatch):
    world = boot("opensshd")
    replaced = []
    do_exec = Kernel.do_exec

    def capturing(self, caller, image_name, main, args):
        replaced.extend(_images([caller.process]))
        do_exec(self, caller, image_name, main, args)
        # The process lives on in the new image.
        assert not caller.process.exited
        assert caller.process.space is not replaced[-1][1]

    monkeypatch.setattr(Kernel, "do_exec", capturing)
    suite = SshSuite(sessions=1, commands=1)
    suite.run(world.kernel)
    assert suite.completed == 1 and suite.errors == 0
    _assert_released(replaced)


def test_repeated_updates_hold_only_the_live_tree():
    node = Node.boot("httpd")
    kernel = node.kernel
    for _ in range(10):
        result = node.update()
        assert result.committed, result.error
        held = sum(p.space.resident_bytes() for p in kernel.processes.values())
        live = sum(p.space.resident_bytes() for p in node.root.tree())
        assert held == live
        # The per-process ledgers keep live processes only.
        live_ids = {p.global_id for p in kernel.live_processes()}
        assert kernel._fault_charged.keys() <= live_ids
        recorder = node.collector.recorder
        recorder.sample(kernel)
        assert recorder._gauge_cache.keys() == live_ids
    node.teardown()
    assert all(p.space.mapped_bytes() == 0 for p in kernel.processes.values())
