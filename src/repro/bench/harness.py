"""Shared benchmark scaffolding: the §8 subjects, the Table-3 ladder, and
the recipes more than one bench runs.

What a server is and how it is started live in ``repro.servers.catalog``:
``boot_server`` is its ``boot`` and ``SERVER_BENCHES`` its rows with a §8
benchmark (AB for the web servers and the ``nginx_reg`` configuration, the
FTP benchmark for vsftpd, the test suite for sshd, mc-bench for memcache).
``update_midflight`` is the §8 mid-flight update, ``quiesced_traces``
the Table-2 trace walk, and ``run_trials`` the trial loop of the
failover and migrate sweeps.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.fleet.drill import Drill, DrillResult, kb, ms
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.tracing.graph import GraphBuilder
from repro.mcr.tracing.invariants import apply_invariants
from repro.runtime.instrument import BuildConfig
from repro.servers.catalog import CATALOG, ServerSpec, boot
from repro.workloads.client import ClientPerceived

# The names the frozen perfbench (and most tests) import: views, not copies.
boot_server = boot
SERVER_BENCHES: Dict[str, ServerSpec] = {
    name: spec for name, spec in CATALOG.items() if spec.workload is not None
}

# The four real programs (nginx_reg is a build configuration, not a fifth).
PRIMARY_SERVERS = ("httpd", "nginx", "vsftpd", "opensshd")

# Step budgets of a mid-flight update's warm-up and drain.  No measured run
# comes near either, so a phase that stops on one is a broken run, not a
# number to report.
WARM_STEPS = 4_000_000
DRAIN_STEPS = 6_000_000


def build_ladder(instrument_regions: bool = False) -> Dict[str, Callable[[], BuildConfig]]:
    """The Table-3 cumulative configuration ladder."""
    return {
        "baseline": BuildConfig.baseline,
        "Unblock": BuildConfig.unblock,
        "+SInstr": lambda: BuildConfig.sinstr(instrument_regions),
        "+DInstr": lambda: BuildConfig.dinstr(instrument_regions),
        "+QDet": lambda: BuildConfig.qdet(instrument_regions),
    }


def _run_phase(kernel, phase: str, until: Callable[[], bool], max_steps: int) -> None:
    if kernel.run(until=until, max_steps=max_steps) == "max_steps":
        raise RuntimeError(
            f"mid-flight update: {phase} stopped on its {max_steps}-step budget"
        )


def update_midflight(
    world, workload, config: Optional[MCRConfig], warm: int
) -> Tuple[object, ClientPerceived, float]:
    """Live-update ``world`` to version 2 while ``workload``'s clients ride through.

    Starts the clients, runs until ``warm`` responses are in, fires the
    update under ``config`` (``None``: the session's own), then drains the
    clients.  Returns the ``UpdateResult``, what the clients saw against
    the downtime budget, and the host seconds the update took.
    Raises ``RuntimeError`` naming the phase when the warm-up or the drain
    stops on its step budget.
    """
    kernel = world.kernel
    clients = workload(kernel)
    _run_phase(kernel, "warm-up", lambda: workload.latency.count >= warm, WARM_STEPS)
    start = time.perf_counter()
    result = McrCtl(kernel, world.session).live_update(
        world.make_program(2), config=config
    )
    wall_s = time.perf_counter() - start
    _run_phase(kernel, "drain", lambda: all(c.exited for c in clients), DRAIN_STEPS)
    perceived = ClientPerceived.measure(workload.latency)
    return result, perceived, wall_s


def quiesced_traces(world, config: MCRConfig, annotations) -> List:
    """Quiesce ``world``'s tree, trace every process under ``config``, release."""
    session = world.session
    with session.quiescence.held(session.root_process):
        return [
            apply_invariants(
                GraphBuilder(process, config, annotations=annotations).build()
            )
            for process in session.root_process.tree()
        ]


def run_trials(
    drills: Iterable[Drill], headline: str
) -> Tuple[Dict[str, Any], List[DrillResult]]:
    """Run each drill once: what every sweep row reports, and each trial's result.

    ``headline`` names the drills' headline number (``rto`` /
    ``brownout``), reported as the upper median and the worst of the
    trials that produced one — with the one to three trials a sweep row
    runs, nearest-rank p99 *is* the maximum.  ``slo_ok`` holds when
    ``DrillResult.violations`` found nothing in any trial and every trial
    stayed inside its client SLO.
    """
    trials = [drill.run() for drill in drills]
    headlines = (getattr(trial, f"{headline}_ns") for trial in trials)
    samples = sorted(ms(ns) for ns in headlines if ns is not None)
    row = {
        "image_kb": kb(max(trial.image_bytes for trial in trials)),
        f"{headline}_p50_ms": samples[len(samples) // 2] if samples else None,
        f"{headline}_p99_ms": samples[-1] if samples else None,
        "requests_lost": sum(trial.requests_lost for trial in trials),
        "slo_ok": all(
            not trial.violations()
            and (trial.perceived is None or trial.perceived["slo_ok"])
            for trial in trials
        ),
    }
    return row, trials
