"""Update-time components (paper §8, "Update time").

Four measurements per server:

* **quiescence time** — run the update-time barrier protocol while the
  benchmark workload is in flight; the paper reports convergence in
  < 100 ms, workload-independently.
* **control migration time** — mutable reinitialization (record was
  already paid at v1 startup; replay happens during the update), plus
  the replay-to-startup overhead ratio (paper: record/replay < 50 ms,
  1–45% overhead over original startup).
* **component breakdown** — quiescence / control-migration / transfer
  for one full update.
* **client-perceived downtime** — update the server *mid-flight* under
  its benchmark workload and report what the clients saw: the latency
  distribution, the blackout interval (longest gap in completed
  responses), and the SLO verdict against the downtime budget
  ``DOWNTIME_BUDGET_NS``.  This is the paper's headline claim ("total
  update < 1 s") measured from the outside.

``python -m repro bench updatetime [--smoke]`` exits 1 when a
``verdicts`` entry fails.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.harness import boot_server, update_midflight
from repro.bench.reporting import latency_summary_ms, render_table
from repro.clock import ns_to_ms
from repro.mcr.config import DOWNTIME_BUDGET_NS, MCRConfig
from repro.mcr.ctl import McrCtl
from repro.servers import nginx
from repro.workloads.ab import ApacheBench

SERVERS = ("httpd", "nginx", "vsftpd", "opensshd", "memcache")
# The smoke subset keeps both rolling pools: the verdicts compare rolling
# with whole-tree blackout on each.
SMOKE_SERVERS = ("httpd", "nginx", "memcache")

# Servers with a stable worker pool, where per-worker rolling update is
# meaningful.  The comparison boots nginx with a real multi-worker pool,
# in both modes (the catalogued default stays single-worker); the update
# target is ``world.make_program``'s, so replay fork counts match.
ROLLING_SERVERS = ("httpd", "nginx")
_ROLLING_POOLS = {
    "nginx": lambda version: nginx.make_program(version, worker_processes=2),
}

# Responses completed before a mid-flight update fires.
WARM_REQUESTS = 8


def measure_quiescence_under_load(name: str) -> Dict[str, float]:
    """Quiescence time with the benchmark running vs idle."""
    # Idle quiescence.
    world = boot_server(name)
    session = world.session
    with session.quiescence.held(session.root_process) as idle_ns:
        pass
    world.kernel.run(max_steps=50_000)
    # Under load: launch the workload, then immediately quiesce.
    clients = world.spec.workload()(world.kernel)
    world.kernel.run(max_steps=5_000)  # let requests get in flight
    with session.quiescence.held(session.root_process) as loaded_ns:
        pass
    world.kernel.run(until=lambda: all(c.exited for c in clients), max_steps=5_000_000)
    return {"idle_ms": ns_to_ms(idle_ns), "loaded_ms": ns_to_ms(loaded_ns)}


def measure_update_components(name: str) -> Dict[str, float]:
    world = boot_server(name)
    world.spec.workload().run(world.kernel)
    startup_ns = world.session.startup_duration_ns() or 1
    ctl = McrCtl(world.kernel, world.session)
    result = ctl.live_update(world.make_program(2))
    if not result.committed:
        raise RuntimeError(f"{name}: update failed: {result.error}")
    replay_startup_ns = result.new_session.startup_duration_ns() or 0
    return {
        "quiescence_ms": ns_to_ms(result.quiescence_ns),
        "control_migration_ms": ns_to_ms(result.control_migration_ns),
        "restore_ms": ns_to_ms(result.restore_ns),
        "transfer_ms": ns_to_ms(result.transfer_ns),
        "total_ms": result.total_ms(),
        "v1_startup_ms": ns_to_ms(startup_ns),
        "replay_startup_ms": ns_to_ms(replay_startup_ns),
        "replay_overhead": replay_startup_ns / startup_ns - 1,
    }


def measure_client_perceived(name: str) -> Dict[str, object]:
    """Live-update ``name`` mid-flight and report what the clients saw.

    A fresh world runs the server's benchmark workload; once
    ``WARM_REQUESTS`` responses have completed the update fires, then the
    workload drains to completion.  Every request carries virtual-clock
    send/receive stamps, so the blackout interval — the longest gap in
    completed responses — directly measures client-perceived downtime.
    """
    world = boot_server(name)
    workload = world.spec.workload()
    result, perceived, _wall_s = update_midflight(world, workload, None, WARM_REQUESTS)
    if not result.committed:
        raise RuntimeError(f"{name}: mid-flight update failed: {result.error}")
    row: Dict[str, object] = dict(
        latency_summary_ms(workload.latency.latencies_ns(), prefix="client")
    )
    row["blackout_ms"] = ns_to_ms(perceived.blackout_ns)
    row["downtime_budget_ms"] = ns_to_ms(DOWNTIME_BUDGET_NS)
    row["slo_ok"] = perceived.slo_ok
    row["workload_errors"] = workload.errors
    return row


def measure_rolling_comparison(name: str) -> Dict[str, object]:
    """Whole-tree vs rolling blackout at equal workload.

    Boots two identical fresh worlds from the same program factory, runs
    the same mid-flight workload in each, and updates one whole-tree and
    one rolling.  Reports both blackouts plus the rolling SLO verdict, so
    the comparison isolates the update mode — same program, same worker
    pool, same request stream.
    """
    row: Dict[str, object] = {}
    for mode, prefix in (("whole-tree", "wt"), ("rolling", "rolling")):
        world = boot_server(name, make_program=_ROLLING_POOLS.get(name))
        # Same workload in both modes, with the timeout/retry posture of
        # real AB: a stalled keep-alive connection is abandoned and the
        # request retried over a fresh connect, which a live worker
        # accepts.  Without it every client pinned to the first quiesced
        # worker blocks for the whole update in *both* modes and the
        # comparison measures nothing.
        workload = ApacheBench(
            world.port,
            requests=120,
            concurrency=4,
            reconnect_stall_ns=5_000_000,
        )
        result, perceived, _wall_s = update_midflight(
            world, workload, MCRConfig(update_mode=mode), WARM_REQUESTS
        )
        if not result.committed:
            raise RuntimeError(
                f"{name}: {mode} comparison update failed: {result.error}"
            )
        row[f"{prefix}_blackout_ms"] = ns_to_ms(perceived.blackout_ns)
        row[f"{prefix}_total_ms"] = result.total_ms()
        if mode == "rolling":
            row["rolling_batches"] = result.rolling_batches
            row["rolling_slo_ok"] = perceived.slo_ok
    return row


def run_updatetime(smoke: bool = False) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for name in SMOKE_SERVERS if smoke else SERVERS:
        row = measure_quiescence_under_load(name)
        row.update(measure_update_components(name))
        row.update(measure_client_perceived(name))
        if name in ROLLING_SERVERS:
            row.update(measure_rolling_comparison(name))
        results[name] = row
    return results


def verdicts(results: Dict[str, Dict[str, float]]) -> Dict[str, bool]:
    """§8's bounds (the replay band on the paper's four servers; memcache,
    which starts in ~10 us, must add under 50 us); every server inside its
    SLO with no client error; on both pools the rolling hand-off beats
    whole-tree on blackout, in batches, inside its SLO."""
    rows = results.values()
    rolling = [results[name] for name in ROLLING_SERVERS]
    memcache = results["memcache"]
    return {
        "quiescence_under_100ms": all(row["quiescence_ms"] < 100.0 for row in rows),
        "quiescence_workload_independent": all(
            abs(row["loaded_ms"] - row["idle_ms"]) < 50.0 for row in rows
        ),
        "control_migration_under_50ms": all(row["control_migration_ms"] < 50.0 for row in rows),
        "replay_overhead_in_band": all(
            -0.05 < row["replay_overhead"] < 0.60
            for name, row in results.items()
            if name in ("httpd", "nginx", "vsftpd", "opensshd")
        )
        and memcache["replay_startup_ms"] - memcache["v1_startup_ms"] < 0.05,
        "total_update_subsecond": all(row["total_ms"] < 1000.0 for row in rows),
        "slo_ok": all(row["slo_ok"] is True for row in rows),
        "no_client_errors": all(row["workload_errors"] == 0 for row in rows),
        "rolling_beats_whole_tree": all(
            row["rolling_blackout_ms"] < row["wt_blackout_ms"] for row in rolling
        ),
        "rolling_slo_ok": all(row["rolling_slo_ok"] is True for row in rolling),
        "rolling_batched": all(row["rolling_batches"] >= 2 for row in rolling),
    }


def render(results: Dict[str, Dict[str, float]]) -> str:
    rows = {name: {"server": name, **row} for name, row in results.items()}
    table = render_table(
        "Update time components",
        [
            "server", "idle_ms", "loaded_ms", "quiescence_ms",
            "control_migration_ms", "restore_ms", "transfer_ms", "total_ms",
            "replay_overhead", "client_p50_ms", "client_p99_ms", "blackout_ms",
            "slo_ok",
        ],
        list(rows.values()),
        note=(
            "paper: quiescence < 100 ms (workload-independent); "
            "record/replay < 50 ms, 1-45% over original startup; "
            "total update < 1 s. slo_ok: blackout within the 1 s "
            "downtime budget"
        ),
    )
    return table + "\n\n" + render_table(
        "Rolling vs whole-tree blackout (equal workload)",
        [
            "server", "wt_blackout_ms", "rolling_blackout_ms", "rolling_batches",
            "rolling_slo_ok", "wt_total_ms", "rolling_total_ms",
        ],
        [rows[name] for name in ROLLING_SERVERS],
        note=(
            "rolling: per-worker-batch quiesce/trace/transfer while the "
            "rest of the pool keeps serving; total update time may grow "
            "while client-perceived blackout shrinks"
        ),
    )
