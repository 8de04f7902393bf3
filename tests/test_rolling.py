"""Rolling per-worker live update (PR 5).

Covers the scoped quiescence protocol (the single divert site that lets
one worker batch park while the rest of the pool serves), the rolling
orchestration end to end on a real worker pool — commit, blackout win
over whole-tree at equal workload, fault -> verified rollback — and the
regression guarantee that the default whole-tree path is untouched.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import boot_server
from repro.bench.updatetime import measure_rolling_comparison
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mcr.quiescence.detection import QuiescenceProtocol
from repro.servers import httpd
from repro.workloads.ab import ApacheBench


# -- Scoped quiescence units --------------------------------------------------


class _Clock:
    now_ns = 0


class _Kernel:
    clock = _Clock()


class _Session:
    kernel = _Kernel()
    config = MCRConfig()


class TestScopedQuiescence:
    def _protocol(self):
        return QuiescenceProtocol(_Session())

    def test_unscoped_request_covers_everything(self):
        qp = self._protocol()
        qp.request()
        anything = object()
        assert qp.in_scope(anything)
        assert qp.hook_should_block(anything)
        assert qp.hook_should_block(None)

    def test_scoped_request_diverts_only_scope_members(self):
        qp = self._protocol()
        worker, master = object(), object()
        qp.request(scope=[worker])
        assert qp.in_scope(worker)
        assert not qp.in_scope(master)
        assert qp.hook_should_block(worker)
        assert not qp.hook_should_block(master)
        # A hook call with no process (legacy caller) must stay safe and
        # divert — blocking too much is correct, serving too much is not.
        assert qp.hook_should_block(None)

    def test_extend_scope_widens_in_progress_protocol(self):
        qp = self._protocol()
        worker, master = object(), object()
        qp.request(scope=[worker])
        assert not qp.hook_should_block(master)
        qp.extend_scope([master])
        assert qp.hook_should_block(master)

    def test_extend_scope_is_noop_when_unscoped(self):
        qp = self._protocol()
        qp.request()
        qp.extend_scope([object()])
        assert qp.scope is None  # still whole-tree

    def test_release_clears_scope_and_stops_diverting(self):
        qp = self._protocol()
        worker = object()
        qp.request(scope=[worker])
        qp.release()
        assert qp.scope is None
        assert not qp.requested
        assert not qp.hook_should_block(worker)

    def test_no_block_before_request(self):
        qp = self._protocol()
        assert not qp.hook_should_block(object())


# -- Rolling orchestration end to end -----------------------------------------


def _warm_world(requests=60, warm=6):
    """httpd (2-worker pool) under a mid-flight reconnecting workload."""
    world = boot_server("httpd")
    kernel = world.kernel
    workload = ApacheBench(
        80, requests=requests, concurrency=4, reconnect_stall_ns=5_000_000
    )
    clients = workload(kernel)
    kernel.run(until=lambda: workload.latency.count >= warm, max_steps=2_000_000)
    return world, workload, clients


def _drain(world, workload, clients):
    world.kernel.run(
        until=lambda: all(c.exited for c in clients), max_steps=5_000_000
    )
    assert all(c.exited for c in clients)


class TestRollingUpdate:
    def test_rolling_update_commits_and_serves(self):
        world, workload, clients = _warm_world()
        ctl = McrCtl(world.kernel, world.session)
        result = ctl.live_update(
            httpd.make_program(2), config=MCRConfig(update_mode="rolling")
        )
        assert result.committed, result.error
        assert result.mode == "rolling"
        # 2 server workers hand off individually, then the remainder
        # (master + helpers) — at least two batches on this pool.
        assert result.rolling_batches >= 2
        _drain(world, workload, clients)
        assert workload.errors == 0
        assert workload.completed == workload.requests

    def test_rolling_blackout_beats_whole_tree(self):
        # Same program factory, same worker pool, same request stream —
        # only the update mode differs between the two worlds.
        row = measure_rolling_comparison("httpd")
        assert row["rolling_blackout_ms"] < row["wt_blackout_ms"]
        assert row["rolling_slo_ok"] is True
        assert row["rolling_batches"] >= 2

    def test_rolling_fault_rolls_back_verified(self):
        world, workload, clients = _warm_world()
        plan = FaultPlan().at("transfer.memory")
        ctl = McrCtl(world.kernel, world.session)
        result = ctl.live_update(
            httpd.make_program(2),
            config=MCRConfig(update_mode="rolling", faults=plan),
        )
        assert not result.committed
        assert result.rolled_back
        # The per-batch checkpoints replayed to prove v1 is bit-identical.
        assert result.rollback_verified is True
        _drain(world, workload, clients)
        assert workload.errors == 0
        assert workload.completed == workload.requests

    def test_default_config_stays_whole_tree(self):
        world, workload, clients = _warm_world()
        ctl = McrCtl(world.kernel, world.session)
        result = ctl.live_update(httpd.make_program(2))
        assert result.committed, result.error
        assert result.mode == "whole-tree"
        assert result.rolling_batches == 0
        _drain(world, workload, clients)
        assert workload.errors == 0


# An 8-worker httpd rolled two workers at a time; prints how often
# ``Process.live_threads`` ran, which is where the scoped walk of
# ``QuiescenceProtocol.is_quiescent`` spends its host work.
_COUNT_LIVE_THREADS = """
from repro.bench.harness import boot_server, update_midflight
from repro.kernel.process import Process
from repro.mcr.config import MCRConfig
from repro.servers import httpd
from repro.workloads.ab import ApacheBench

calls, live_threads = [], Process.live_threads
Process.live_threads = lambda self: calls.append(1) or live_threads(self)
world = boot_server("httpd", make_program=lambda v: httpd.make_program(v, server_processes=8))
workload = ApacheBench(world.port, requests=40, concurrency=4, reconnect_stall_ns=5_000_000)
config = MCRConfig(update_mode="rolling", rolling_batch=2)
result, _perceived, _wall = update_midflight(world, workload, config, 4)
assert result.committed and result.rolling_batches >= 2, result.error
print(len(calls))
"""


def test_scoped_walk_does_the_same_host_work_under_any_hash_seed():
    """The scope is insertion-ordered, never ordered by object address:
    two interpreters with different hash seeds walk it alike."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _COUNT_LIVE_THREADS],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "12345")
    ]
    counts = [run.communicate(timeout=120)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert counts[0] == counts[1] and int(counts[0]) > 0
