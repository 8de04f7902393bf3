"""The one client driver against the seven loops it replaced.

``tests/client_oracles.py`` keeps the hand-written client bodies that
``ScriptedClients`` merged.  Each case here boots the same server twice,
drives one copy with the oracle and one with the driver, and asserts
what a replay would compare: the counters and every latency sample, the
process names, the final virtual clock, the scheduler pick-order CRC and
rng draws of a ``TraceLog``, and the collector's whole event log, whose
``sched.wake`` sites name the frame each client blocked in.

Then the accounting contract the driver adds: ``completed + errors ==
sent`` on every exit path, a retried request counted once.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.fleet.node import Node
from repro.kernel.kernel import Kernel
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.replay import rng as replay_rng
from repro.replay import trace as replay_trace
from repro.replay.trace import TraceLog
from repro.servers.catalog import CATALOG, boot
from repro.workloads import (
    ApacheBench,
    ConnectionHolder,
    FtpBench,
    LineBench,
    McBench,
    Script,
    ScriptedClients,
    SshSuite,
    Step,
)
from tests import client_oracles as oracle
from tests.helpers import event_dicts


class _NamingKernel(Kernel):
    """Remembers the name of every process it spawns."""

    def __init__(self) -> None:
        super().__init__()
        self.names = []

    def spawn_process(self, main, args=(), name="proc", **kwargs):
        self.names.append(name)
        return super().spawn_process(main, args, name, **kwargs)


def _observed(server, drive, seed=7):
    """Boot ``server`` under a trace and a collector, then ``drive`` it."""
    kernel = _NamingKernel()
    trace = TraceLog.record({"server": server})
    trace.bind_kernel(kernel)
    collector = obs.Collector(kernel.clock)
    with replay_rng.scoped(replay_rng.RngRegistry(seed)), \
            replay_trace.tracing(trace), obs.scoped(collector):
        counts = drive(boot(server, kernel=kernel), collector)
    trace.finish({})
    return {
        "counts": counts,
        "names": kernel.names,
        "clock_ns": kernel.clock.now_ns,
        "sched_crc": trace.final["sched_crc"],
        "draws": trace.draws,
        "events": event_dicts(collector.events),
    }


def _counts(driver):
    return (driver.completed, driver.errors, driver.reconnects, driver.latency.samples)


def _run(cls, **sizes):
    def drive(world, _collector):
        driver = cls(world.port, **sizes)
        driver.run(world.kernel)
        return _counts(driver)

    return drive


def _roll(world, bench):
    """``bench`` through an httpd rolling update: stalls reconnect and retry."""
    clients = bench(world.kernel)
    world.kernel.run(until=lambda: bench.latency.count >= 6, max_steps=2_000_000)
    result = McrCtl(world.kernel, world.session).live_update(
        world.make_program(2), config=MCRConfig(update_mode="rolling")
    )
    assert result.committed
    world.kernel.run(until=lambda: all(c.exited for c in clients), max_steps=5_000_000)
    return _counts(bench)


def _rolling(cls):
    return lambda world, _collector: _roll(
        world, cls(world.port, requests=40, concurrency=4, reconnect_stall_ns=5_000_000)
    )


def _hold(cls, kind):
    """Three parked connections; the old holder counted no completions."""

    def drive(world, _collector):
        holder = cls(world.port, 3, kind)
        holder.establish(world.kernel)
        ready = holder.ready
        holder.finish(world.kernel)
        return ready, holder.errors, holder.reconnects, holder.latency.samples

    return drive


# Case -> (server, the driver's run, the oracle's run).
CASES = {
    "ab-jitter": ("httpd", *(
        _run(cls, requests=24, concurrency=3, jitter_ns=20_000)
        for cls in (ApacheBench, oracle.ApacheBench)
    )),
    "ab-rolling": ("httpd", _rolling(ApacheBench), _rolling(oracle.ApacheBench)),
    "mc-jitter": ("memcache", *(
        _run(cls, operations=24, concurrency=3, jitter_ns=20_000)
        for cls in (McBench, oracle.McBench)
    )),
    "line": ("simple", *(
        _run(cls, script=[("push 5", "ok"), ("sum", "sum")], clients=2)
        for cls in (LineBench, oracle.LineBench)
    )),
    "ftp": ("vsftpd", *(
        _run(cls, users=2, retrievals=2) for cls in (FtpBench, oracle.FtpBench)
    )),
    "ssh": ("opensshd", *(
        _run(cls, sessions=2, commands=2) for cls in (SshSuite, oracle.SshSuite)
    )),
    **{
        f"hold-{kind}": (server, _hold(ConnectionHolder, kind), _hold(oracle.ConnectionHolder, kind))
        for server, kind in (("nginx", "http"), ("vsftpd", "ftp"), ("opensshd", "ssh"))
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_equals_the_hand_written_loop(case):
    server, driver, reference = CASES[case]
    got = _observed(server, driver)
    assert got == _observed(server, reference)
    done, errors, reconnects, samples = got["counts"]  # done: a holder's ready
    assert done and not errors and samples
    if case.startswith("hold-"):
        assert done == 3 and got["names"][-3:] == ["hold-0", "hold-1", "hold-2"]
    assert (reconnects > 0) == (case == "ab-rolling")


def _node_stream(use_driver):
    """Two serve windows, the second across a live update, then the probe."""

    def drive(world, collector):
        node = Node(3, world, collector)
        if use_driver:
            clients, request = node, node.requests
            serve = node.serve
        else:
            clients = _OracleClients(world.kernel)
            request = oracle.OneShotRequests(3, world.port, ("sum", "sum"), node.stall_ns)
            serve = lambda count: clients.add(request.serve(world.kernel, count))
        serve(6)
        clients.drain()
        serve(6)
        node.run_for(1_000_000)
        assert node.update(to_version=2).committed
        clients.drain()
        if use_driver:
            version = node.served_version()
        else:
            version = oracle.served_version(
                world.kernel, world.port, world.spec.version_probe
            )
        return _counts(request), version

    return drive


class _OracleClients:
    """``Node.drain`` for the oracle's request processes."""

    def __init__(self, kernel):
        self.kernel, self.processes = kernel, []

    def add(self, processes):
        self.processes += processes

    def drain(self):
        self.kernel.run(
            until=lambda: all(c.exited for c in self.processes), max_steps=2_000_000
        )


def test_node_requests_and_probe_equal_the_hand_written_loops():
    got = _observed("simple", _node_stream(True))
    assert got == _observed("simple", _node_stream(False))
    (completed, lost, _reconnects, samples), version = got["counts"]
    assert (completed, lost, len(samples), version) == (12, 0, 12, 2)
    assert "fleet-client-3-12" in got["names"] and "version-probe" in got["names"]
    sites = {e["payload"]["site"] for e in got["events"] if e["name"] == "sched.wake"}
    assert {"_oneshot_request:recv", "version_client:recv"} <= sites


# -- the accounting contract ---------------------------------------------------


def test_an_abandoned_client_charges_every_operation_it_did_not_complete():
    """``set`` draws ``err unknown`` from the simple server: each client
    stops at its first operation and is charged all four."""
    world = boot("simple")
    bench = McBench(world.port, operations=8, concurrency=2)
    bench.run(world.kernel)
    assert (bench.sent, bench.completed, bench.errors, bench.stopped) == (8, 0, 8, 2)


def test_sent_keeps_the_per_client_rounding():
    world = boot("httpd")
    bench = ApacheBench(world.port, requests=30, concurrency=4)
    bench.run(world.kernel)
    assert (bench.sent, bench.completed, bench.errors) == (28, 28, 0)


def test_a_refused_connect_charges_the_whole_script(kernel):
    bench = FtpBench(5999, users=2, retrievals=3)
    bench.run(kernel, max_steps=200_000)
    assert (bench.sent, bench.completed, bench.errors, bench.ready) == (6, 0, 6, 0)


def test_a_retried_request_counts_once():
    world = boot("httpd")
    bench = ApacheBench(world.port, requests=40, concurrency=4, reconnect_stall_ns=5_000_000)
    completed, errors, reconnects, samples = _roll(world, bench)
    assert reconnects > 0 and (bench.sent, completed, errors, len(samples)) == (40, 40, 0, 40)


def test_a_node_that_is_gone_loses_what_it_was_sent():
    node = Node.boot("memcache")
    node.serve(2)
    node.drain()
    node.teardown()
    node.serve(3)
    node.drain()
    assert (node.requests_sent, node.completed, node.lost) == (5, 2, 3)


def test_a_stall_bound_retries_a_step_over_a_fresh_connect_and_banner():
    """vsftpd answers ``NOOP`` with ``500``: each retry reconnects, reads
    the banner again, and the step is charged once its retries run out."""
    world = boot("vsftpd")
    clients = ScriptedClients(
        world.port, Script([Step("NOOP", expect="200")], banner=True),
        frame="noop", name="noop-{}".format, stall_ns=1_000_000,
    )
    clients.run(world.kernel)
    assert (clients.sent, clients.completed, clients.errors) == (1, 0, 1)
    assert clients.reconnects == 100 and clients.stopped == 1


def test_every_catalog_request_is_one_counted_exchange_the_banner_cannot_pass():
    for spec in CATALOG.values():
        (step,) = spec.request.steps
        assert step.counted and len(step.lines) == 1
        if spec.request.banner:
            assert step.expect and not b"220 vsftpd".startswith(step.expect)
            assert not b"SSH-2.0".startswith(step.expect)
