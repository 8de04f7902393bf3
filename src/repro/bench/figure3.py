"""Figure 3: state-transfer time vs number of open connections.

For each server and each connection count N: boot, run a short benchmark
(populating state), open and hold N connections, trigger a live update to
the next release, and record the mutable-tracing state-transfer time from
the update's timing breakdown.

Expected shape (paper): transfer time grows with N for every program;
vsftpd and opensshd grow fastest (each connection is a whole process to
pair and transfer); baselines sit in tens-to-hundreds of ms; dirty-object
tracking keeps the transferred fraction of traced bytes low.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import PRIMARY_SERVERS, boot_server
from repro.bench.reporting import render_table
from repro.clock import ns_to_ms
from repro.mcr.ctl import McrCtl

# The paper's x-axis is 0..100; the simulator's is scaled down (each held
# FTP/SSH connection forks a simulated process).  The full run is the
# table EXPERIMENTS.md documents; --smoke and benchmarks/ stop at 20.
CONNECTIONS = (0, 5, 10, 20, 40)
SMOKE_CONNECTIONS = (0, 5, 10, 20)


def measure_point(server: str, connections: int) -> Dict[str, object]:
    point: Dict[str, object] = {
        "server": server,
        "connections": connections,
        "transfer_ms": 0.0,
        "total_update_ms": 0.0,
        "dirty_reduction": 0.0,
        "committed": False,
        "error": None,
    }
    world = boot_server(server)
    # Populate some post-startup state first (the paper measures "after
    # completing the execution of our benchmarks").
    world.spec.workload().run(world.kernel)
    holder = None
    if connections:
        holder = world.hold(connections)
        holder.establish(world.kernel, max_steps=20_000_000)
        if holder.errors:
            point["error"] = f"{holder.errors} connections failed to establish"
            return point
    ctl = McrCtl(world.kernel, world.session)
    result = ctl.live_update(world.make_program(2))
    point["committed"] = result.committed
    if not result.committed:
        point["error"] = str(result.error)
        return point
    point["transfer_ms"] = ns_to_ms(result.transfer_ns)
    point["total_update_ms"] = result.total_ms()
    if result.transfer_report is not None:
        point["dirty_reduction"] = result.transfer_report.aggregate_reduction()
    if holder is not None:
        holder.finish(world.kernel)
    return point


def run_figure3(smoke: bool = False) -> Dict[str, List[Dict[str, object]]]:
    counts = SMOKE_CONNECTIONS if smoke else CONNECTIONS
    return {
        server: [measure_point(server, n) for n in counts]
        for server in PRIMARY_SERVERS
    }


def render(results: Dict[str, List[Dict[str, object]]]) -> str:
    counts = [p["connections"] for p in next(iter(results.values()))]
    rows = [
        {
            "server": server,
            **{
                f"N={point['connections']}": (
                    f"{point['transfer_ms']:.1f}ms" if point["committed"] else "FAIL"
                )
                for point in points
            },
            "reduction@max": f"{points[-1]['dirty_reduction']:.0%}",
        }
        for server, points in results.items()
    ]
    return render_table(
        "Figure 3: state transfer time vs open connections",
        ["server", *(f"N={n}" for n in counts), "reduction@max"],
        rows,
        note=(
            "Paper: 28-187 ms baselines, +371 ms average at 100 connections, "
            "steepest growth for per-connection-process servers; 68-86% of "
            "traced bytes skipped thanks to dirty tracking."
        ),
    )
