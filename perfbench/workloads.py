"""The four benchmark workloads, each one iteration of public-API calls.

All four are closed-loop: simulated clients are generator processes in
the same host thread as the servers, and a client sends its next
request only after the previous reply.  An iteration drives only the
public surface of ``repro.*``, checks what came back, and returns an
``Iteration``: operations attempted/failed, the deterministic results
(virtual-clock times, sizes, counts taken from result objects) and the
problems found.  Host time is not measured here — ``run.py`` times whole
iterations, and in a traced pass ``layers.Tracer`` attributes that time
through the ``tracer.span`` blocks below plus its shims.

Why these four, and what each is expected to move, is in README.md.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Callable, Dict, List

from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.checkpoint import (
    checkpoint_node,
    read_image,
    restore_image,
    resume_node,
    write_image,
)
from repro.clock import ns_to_ms
from repro.fleet import Fleet, Node, Orchestrator
from repro.fleet.failover import FailoverDrill
from repro.fleet.migration import SETTLE_NS, MigrationDrill
from repro.kernel.kernel import Kernel
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.replay import rng
from repro.servers import httpd
from repro.workloads.ab import ApacheBench
from repro.workloads.holders import ConnectionHolder
from repro.workloads.mcbench import McBench

from layers import Tracer

# Client think time: uniform 0..JITTER_NS before each request, drawn from
# the iteration's seeded RngRegistry (the only thing --seed reaches).
JITTER_NS = 20_000

# BENCH_scanperf.json, scaling curve, workers = 256.
PREFORK256_UPDATE_VIRTUAL_MS = 854.441022


class Iteration:
    """What one iteration did, as far as the virtual clock can tell."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.results: Dict[str, float] = defaultdict(int)  # counts stay ints
        self.problems: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        """One update / image cycle / drill / rollout."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def requests(self, sent: int, completed: int, what: str) -> None:
        """Client requests: anything sent and not answered correctly failed."""
        self.attempted += sent
        if completed != sent:
            self.failed += abs(sent - completed)
            self.problems.append(f"{what}: {completed}/{sent} requests completed")

    def update(
        self, tracer: Tracer, ctl: McrCtl, program: Any, config: Any = None
    ) -> Any:
        """Fire one live update of ``ctl``'s tree and account for it."""
        tree = ctl.session.root_process.tree()
        self.results["mem.dirty_pages"] += sum(
            p.space.dirty_page_count() for p in tree
        )
        self.results["mem.mapped_mb"] += sum(p.space.mapped_bytes() for p in tree) / 1e6
        result = ctl.live_update(program, config=config)
        self.note_update(result)
        return result

    def note_update(self, result: Any) -> None:
        self.op(result.committed, f"update not committed: {result.error!r}")
        put = self.results
        put["update_virtual_ms"] += result.total_ms()
        put["mcr.quiescence_virtual_ms"] += ns_to_ms(result.quiescence_ns)
        put["mcr.reinit_virtual_ms"] += ns_to_ms(result.control_migration_ns)
        put["mcr.tracing.transfer_virtual_ms"] += ns_to_ms(result.transfer_ns)
        put["mcr.controller.rolling_batches"] += result.rolling_batches
        put["mcr.controller.retries"] += result.retries
        put["mcr.controller.updates_attempted"] += 1
        put["mcr.controller.updates_committed"] += bool(result.committed)
        if result.transfer_report is not None:
            put["mcr.tracing.likely_pointers"] += (
                result.transfer_report.aggregate_table2()["likely"]["ptr"]
            )


def _drain(kernel: Kernel, clients: List[Any], max_steps: int) -> None:
    kernel.run(until=lambda: all(c.exited for c in clients), max_steps=max_steps)


# -- serve_midflight -----------------------------------------------------------

SERVE_REQUESTS = 4000


def _serve_to(kernel: Kernel, tracer: Tracer, workload: Any, goal: int) -> None:
    """Run until ``goal`` replies are in."""
    with tracer.span("kernel.serve"):
        kernel.run(until=lambda: workload.latency.count >= goal, max_steps=100_000_000)


def serve_midflight(it: Iteration, tracer: Tracer, scratch: str) -> None:
    """The paper's scenario: update three servers halfway through a run."""
    latencies_ns: List[int] = []
    for name in ("httpd", "nginx", "memcache"):
        spec = SERVER_BENCHES[name]
        kernel = Kernel()
        with tracer.collecting(kernel.clock):
            with tracer.span("runtime.boot"):
                world = boot_server(name, kernel=kernel)
            if name == "memcache":
                workload = McBench(
                    spec["port"], operations=SERVE_REQUESTS, concurrency=4,
                    jitter_ns=JITTER_NS,
                )
            else:
                workload = ApacheBench(
                    spec["port"], requests=SERVE_REQUESTS, concurrency=4,
                    jitter_ns=JITTER_NS,
                )
            clients = workload(kernel)
            _serve_to(kernel, tracer, workload, SERVE_REQUESTS // 2)
            it.update(tracer, McrCtl(kernel, world.session), spec["make_program"](2))
            _serve_to(kernel, tracer, workload, SERVE_REQUESTS)
            with tracer.span("kernel.serve"):
                _drain(kernel, clients, 1_000_000)
        it.requests(SERVE_REQUESTS, workload.completed, name)
        it.results["blackout_virtual_ms"] = max(
            it.results["blackout_virtual_ms"],
            ns_to_ms(workload.latency.blackout_ns()),
        )
        latencies_ns.extend(workload.latency.latencies_ns())
    # Exact nearest-rank, not Histogram.percentile: that one resolves to a
    # bucket boundary and would hide a small move.
    ranked = sorted(latencies_ns)
    it.results["client_p50_virtual_ms"] = ns_to_ms(ranked[len(ranked) // 2])
    it.results["client_p99_virtual_ms"] = ns_to_ms(ranked[len(ranked) * 99 // 100])


# -- prefork256_roll -----------------------------------------------------------

PREFORK_WORKERS = 256


def _prefork_program(version: int) -> Any:
    return httpd.make_program(version, server_processes=PREFORK_WORKERS)


def prefork256_roll(it: Iteration, tracer: Tracer, scratch: str) -> None:
    """``updatetime.measure_rolling_at_scale(workers=256)``, step for step.

    No think-time jitter here: the recipe has none, and with it the
    update would no longer reproduce the committed artifact's number.
    """
    kernel = Kernel()
    with tracer.collecting(kernel.clock):
        with tracer.span("runtime.boot"):
            world = boot_server("httpd", kernel=kernel, make_program=_prefork_program)
        workload = ApacheBench(
            SERVER_BENCHES["httpd"]["port"], requests=24, concurrency=4,
            reconnect_stall_ns=100_000_000,
        )
        with tracer.span("kernel.serve"):
            clients = workload(kernel)
            kernel.run(until=lambda: workload.latency.count >= 8, max_steps=4_000_000)
        it.update(
            tracer,
            McrCtl(kernel, world.session),
            _prefork_program(2),
            config=MCRConfig(
                update_mode="rolling", rolling_batch=PREFORK_WORKERS // 4
            ),
        )
        with tracer.span("kernel.serve"):
            _drain(kernel, clients, 6_000_000)
    it.requests(24, workload.completed, "httpd@256")
    it.results["blackout_virtual_ms"] = ns_to_ms(workload.latency.blackout_ns())
    if it.results["update_virtual_ms"] != PREFORK256_UPDATE_VIRTUAL_MS:
        it.problems.append(
            f"update_virtual_ms {it.results['update_virtual_ms']} != "
            f"{PREFORK256_UPDATE_VIRTUAL_MS} (BENCH_scanperf.json, workers=256)"
        )


# -- sessions40_update ---------------------------------------------------------

SESSIONS = 40


def sessions40_update(it: Iteration, tracer: Tracer, scratch: str) -> None:
    """Figure 3's steep end: 40 forked session processes across an update."""
    for name in ("vsftpd", "opensshd"):
        spec = SERVER_BENCHES[name]
        kernel = Kernel()
        with tracer.collecting(kernel.clock):
            with tracer.span("runtime.boot"):
                world = boot_server(name, kernel=kernel)
            workload = spec["workload"]()
            holder = ConnectionHolder(spec["port"], SESSIONS, spec["holder_kind"])
            with tracer.span("kernel.serve"):
                workload.run(kernel)
                holder.establish(kernel)
            it.update(tracer, McrCtl(kernel, world.session), spec["make_program"](2))
            with tracer.span("kernel.serve"):
                holder.finish(kernel)
        # The stock suites count only part of what they send (retrievals,
        # commands) as ``completed``; every exchange stamps the latency
        # log, so that is what is held against the expected count.
        if name == "vsftpd":
            expected = workload.users * (workload.retrievals + 2)
            held = 2 * SESSIONS
        else:
            expected = workload.sessions * (workload.commands + 2)
            held = SESSIONS
        it.requests(expected, workload.latency.count - workload.errors, name)
        it.requests(held, holder.latency.count - holder.errors, f"{name} sessions")
        if holder.ready != SESSIONS:
            it.problems.append(f"{name}: {holder.ready}/{SESSIONS} sessions held")


# -- fleet_failover ------------------------------------------------------------

FLEET_NODES = 16


def _image_cycle(it: Iteration, tracer: Tracer, path: str) -> None:
    """Serve, checkpoint to disk, read back, restore, serve again."""
    with tracer.span("runtime.boot"):
        node = Node.boot("httpd")
    with tracer.span("kernel.serve"):
        node.serve(32)
        node.drain()
        node.settle(SETTLE_NS)
    with tracer.span("checkpoint.capture"):
        image = checkpoint_node(node)
    with tracer.span("checkpoint.write"):
        written = write_image(image, path)
    with tracer.span("checkpoint.read"):
        loaded = read_image(path)
    with tracer.span("checkpoint.restore"):
        restored = restore_image(loaded, node_id=1)
        same = image.fingerprint.diff(restored.fingerprint()) == []
        resume_node(restored)
    with tracer.span("kernel.serve"):
        restored.serve(8)
        restored.drain()
    it.op(same, "restored fingerprint differs from the image's")
    it.requests(32, node.completed, "httpd before checkpoint")
    it.requests(8, restored.completed, "httpd after restore")
    it.results["checkpoint.image_mb"] += written / 1e6
    for each in (node, restored):
        tracer.absorb(each.collector)
        each.teardown()


def fleet_failover(it: Iteration, tracer: Tracer, scratch: str) -> None:
    """The planes above the update: images, drills, a 16-node rollout."""
    for _ in range(2):
        _image_cycle(it, tracer, os.path.join(scratch, "node.img"))

    failover = FailoverDrill(
        "httpd",
        config=MCRConfig(checkpoint_interval_ns=25_000_000),
        checkpoint_path=os.path.join(scratch, "failover.img"),
    )
    with tracer.span("fleet.failover"):
        crashed = failover.run()
    ok = (
        crashed.error is None and crashed.promoted and crashed.rto_ns is not None
        and crashed.requests_lost == 0
    )
    it.op(ok, f"failover drill: {crashed.to_dict()}")
    it.requests(crashed.requests_sent, crashed.requests_completed, "failover drill")
    it.results["rto_virtual_ms"] = ns_to_ms(crashed.rto_ns or 0)
    it.results["checkpoint.deltas_sent"] = crashed.deltas_sent
    it.results["checkpoint.delta_kb_avg"] = (
        crashed.delta_bytes / crashed.deltas_sent / 1e3 if crashed.deltas_sent else 0.0
    )
    if ok:
        tracer.absorb(failover.primary.collector)
        tracer.absorb(failover.standby.node.collector)

    migration = MigrationDrill("httpd", config=MCRConfig())
    with tracer.span("fleet.migrate"):
        moved = migration.run()
    ok = (
        moved.error is None and moved.migrated and moved.brownout_ns is not None
        and moved.requests_lost == 0
    )
    it.op(ok, f"migration drill: {moved.to_dict()}")
    it.requests(moved.requests_sent, moved.requests_completed, "migration drill")
    it.results["brownout_virtual_ms"] = ns_to_ms(moved.brownout_ns or 0)
    it.results["fleet.precopy_rounds"] = moved.precopy_rounds
    if ok:
        tracer.absorb(migration.primary.collector)
        tracer.absorb(migration.target.node.collector)

    with tracer.span("fleet.boot16"):
        fleet = Fleet.boot(FLEET_NODES, "memcache")
    orchestrator = Orchestrator(
        fleet, canary=1, wave_growth=4, requests_per_window=32
    )
    with tracer.span("kernel.serve"):
        orchestrator.serve_windows(2)
    with tracer.span("fleet.rollout"):
        report = orchestrator.rollout(2)
    it.op(
        report.uniform and report.outcome == "updated" and fleet.requests_lost == 0,
        f"rollout: outcome={report.outcome} uniform={report.uniform} "
        f"lost={fleet.requests_lost}",
    )
    it.requests(fleet.requests_sent, fleet.requests_completed, "fleet rollout")
    for node in fleet.nodes:
        for result in node.updates:
            it.note_update(result)
        tracer.absorb(node.collector)
    it.results["fleet.rollout_virtual_ms"] = ns_to_ms(report.end_ns - report.start_ns)
    it.results["fleet.node_blackout_p99_virtual_ms"] = (
        report.blackout_summary_ms()["p99_ms"]
    )
    it.results["fleet.requests_lost"] = (
        crashed.requests_lost + moved.requests_lost + fleet.requests_lost
    )
    fleet.teardown()


WORKLOADS: Dict[str, Callable[[Iteration, Tracer, str], None]] = {
    "serve_midflight": serve_midflight,
    "prefork256_roll": prefork256_roll,
    "sessions40_update": sessions40_update,
    "fleet_failover": fleet_failover,
}


def iterate(name: str, seed: int, tracer: Tracer, scratch: str) -> Iteration:
    """One iteration of ``name`` with its inputs drawn from ``seed``."""
    it = Iteration()
    with rng.scoped(rng.RngRegistry(seed)):
        WORKLOADS[name](it, tracer, scratch)
    return it
