"""Table 3: run time normalized against the baseline.

For each server and each cumulative instrumentation configuration
(Unblock, +SInstr, +DInstr, +QDet — plus the ``nginx_reg`` region-
instrumented row), run the server's §8 benchmark and report virtual run
time normalized against the uninstrumented baseline.

Expected shape (paper): unblockification ≈ free; the allocator
instrumentation of +SInstr is the visible cost (worst case httpd ≈ 1.04);
+DInstr/+QDet add little; region instrumentation makes nginx_reg the
outlier (≈ 1.19).
"""

from __future__ import annotations

from typing import Dict

from repro.bench.harness import SERVER_BENCHES, boot_server, build_ladder
from repro.bench.reporting import render_table

PAPER_TABLE3 = {
    "httpd": {"Unblock": 0.977, "+SInstr": 1.040, "+DInstr": 1.043, "+QDet": 1.047},
    "nginx": {"Unblock": 1.000, "+SInstr": 1.000, "+DInstr": 1.000, "+QDet": 1.000},
    "nginx_reg": {"Unblock": 1.000, "+SInstr": 1.175, "+DInstr": 1.192, "+QDet": 1.186},
    "vsftpd": {"Unblock": 1.024, "+SInstr": 1.027, "+DInstr": 1.028, "+QDet": 1.028},
    "opensshd": {"Unblock": 0.999, "+SInstr": 0.999, "+DInstr": 1.001, "+QDet": 1.001},
}


# The cumulative configurations, each normalized against "baseline".
CONFIGS = ("Unblock", "+SInstr", "+DInstr", "+QDet")


def measure_runtime_ns(server: str, config_name: str) -> int:
    """Run one server under one configuration; return workload duration.

    A warmup pass runs first: the paper measures 100k-request runs, where
    one-time costs (first-touch soft-dirty faults after startup, allocator
    pool growth) are fully amortized; our scaled-down run reproduces that
    steady state by warming up before the timed window.
    """
    ladder = build_ladder(SERVER_BENCHES[server].instrument_regions)
    world = boot_server(server, build=ladder[config_name]())
    world.spec.workload().run(world.kernel)
    return world.spec.workload().run(world.kernel)


def run_table3() -> Dict[str, Dict[str, float]]:
    """Normalized run times, keyed by server then configuration."""
    results: Dict[str, Dict[str, float]] = {}
    for server in PAPER_TABLE3:
        base_ns = measure_runtime_ns(server, "baseline")
        row: Dict[str, float] = {}
        for config in CONFIGS:
            row[config] = measure_runtime_ns(server, config) / base_ns
        results[server] = row
    return results


def verdicts(results: Dict[str, Dict[str, float]]) -> Dict[str, bool]:
    """The paper's Table-3 shape, read off the normalized ladder rows."""
    httpd, reg = results["httpd"], results["nginx_reg"]["+QDet"]
    paper_servers = ("httpd", "nginx", "vsftpd", "opensshd")
    return {
        "unblockification_nearly_free": all(row["Unblock"] < 1.04 for row in results.values()),
        "allocator_instrumentation_visible": 1.02 < httpd["+SInstr"] < 1.10
        and httpd["+SInstr"] - httpd["Unblock"] > httpd["+QDet"] - httpd["+DInstr"],
        "nginx_flat": all(ratio < 1.03 for ratio in results["nginx"].values()),
        "nginx_reg_outlier": 1.10 < reg < 1.35
        and all(results[name]["+QDet"] < reg for name in paper_servers),
        "full_mcr_under_10pct": all(results[name]["+QDet"] < 1.10 for name in paper_servers),
        "ladder_cumulative": all(
            row["+SInstr"] >= row["Unblock"] - 0.02 and row["+DInstr"] >= row["+SInstr"] - 0.02
            for row in results.values()
        ),
    }


def render(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        {
            "server": server,
            **row,
            **{f"paper:{c}": PAPER_TABLE3.get(server, {}).get(c) for c in CONFIGS},
        }
        for server, row in results.items()
    ]
    return render_table(
        "Table 3: run time normalized against the baseline",
        ["server", *CONFIGS, *(f"paper:{c}" for c in CONFIGS)],
        rows,
        note="Measured in deterministic virtual time; compare shapes, not digits.",
    )
