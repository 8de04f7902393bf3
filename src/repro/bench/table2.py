"""Table 2: mutable tracing statistics after the benchmarks.

For each program (plus the ``nginx_reg`` region-instrumented build), run
its benchmark workload with some connections left open, quiesce, run the
hybrid traversal over every process, and aggregate precise/likely pointer
counts by source and target memory region.

Expected shape (paper): uninstrumented custom allocators dominate the
likely-pointer counts (httpd ≫ nginx); instrumenting nginx's region
allocator (nginx_reg) converts likely pointers into precise ones; fully
instrumented programs (vsftpd, opensshd) are almost entirely precise with
a residual handful of likely pointers from type-unsafe idioms; opensshd
shows program pointers into shared-library state.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.harness import boot_server, quiesced_traces
from repro.bench.reporting import render_table

PAPER_TABLE2 = {
    "httpd": {"precise_ptr": 2_373, "likely_ptr": 16_252, "likely_targ_static": 2_050,
              "likely_targ_dynamic": 14_201, "likely_targ_lib": 1},
    "nginx": {"precise_ptr": 1_242, "likely_ptr": 4_049, "likely_targ_static": 293,
              "likely_targ_dynamic": 3_755, "likely_targ_lib": 1},
    "nginx_reg": {"precise_ptr": 2_049, "likely_ptr": 3_522, "likely_targ_static": 149,
                  "likely_targ_dynamic": 3_372, "likely_targ_lib": 1},
    "vsftpd": {"precise_ptr": 149, "likely_ptr": 6, "likely_targ_static": 0,
               "likely_targ_dynamic": 6, "likely_targ_lib": 0},
    "opensshd": {"precise_ptr": 237, "likely_ptr": 56, "likely_targ_static": 16,
                 "likely_targ_dynamic": 32, "likely_targ_lib": 8},
}

# Connections left open across the trace, so each server's tree holds
# live per-connection state.
HELD_CONNECTIONS = 4


def trace_statistics(server: str) -> Dict[str, Dict[str, int]]:
    """Run the §8 benchmark, quiesce, trace, aggregate Table-2 counts."""
    world = boot_server(server)
    world.spec.workload().run(world.kernel)
    holder = world.hold(HELD_CONNECTIONS)
    holder.establish(world.kernel)
    keys = (
        "ptr", "src_static", "src_dynamic", "src_lib",
        "targ_static", "targ_dynamic", "targ_lib",
    )
    totals = {"precise": {k: 0 for k in keys}, "likely": {k: 0 for k in keys}}
    for trace in quiesced_traces(
        world, world.session.config, world.program.annotations
    ):
        row = trace.table2_row()
        for kind in ("precise", "likely"):
            for key in keys:
                totals[kind][key] += row[kind][key]
    holder.finish(world.kernel)
    return totals


def run_table2() -> Dict[str, Dict[str, Dict[str, int]]]:
    return {server: trace_statistics(server) for server in PAPER_TABLE2}


def verdicts(results: Dict[str, Dict[str, Dict[str, int]]]) -> Dict[str, bool]:
    """The paper's Table-2 conclusions, read off the traced totals."""
    likely = {server: totals["likely"]["ptr"] for server, totals in results.items()}
    precise = {server: totals["precise"]["ptr"] for server, totals in results.items()}
    sshd, httpd = results["opensshd"], results["httpd"]["likely"]
    return {
        "likely_pointers_present": sum(likely.values()) > 0,
        "uninstrumented_allocators_dominate": likely["httpd"] > likely["nginx"]
        > max(likely["vsftpd"], likely["opensshd"]),
        "regions_mitigate_not_eliminate": precise["nginx_reg"] > precise["nginx"]
        and likely["nginx"] > likely["nginx_reg"] > 0,
        "instrumented_keep_residual_likely": likely["vsftpd"] >= 1
        and precise["opensshd"] > likely["opensshd"] >= 1,
        "opensshd_points_into_libraries": sshd["precise"]["targ_lib"]
        + sshd["likely"]["targ_lib"] >= 1,
        "likely_targets_static_and_dynamic": httpd["targ_static"] > 0
        and httpd["targ_dynamic"] > 0,
    }


def render(results: Dict[str, Dict[str, Dict[str, int]]]) -> str:
    def regions(kind: str, end: str):
        return lambda row: "/".join(
            str(row[kind][f"{end}_{region}"]) for region in ("static", "dynamic", "lib")
        )

    rows = [
        {"server": server, **totals, "paper": PAPER_TABLE2.get(server, {})}
        for server, totals in results.items()
    ]
    return render_table(
        "Table 2: mutable tracing statistics (aggregated after benchmarks)",
        [
            "server",
            ("P:ptr", lambda row: row["precise"]["ptr"]),
            ("P:src(S/D/L)", regions("precise", "src")),
            ("P:targ(S/D/L)", regions("precise", "targ")),
            ("L:ptr", lambda row: row["likely"]["ptr"]),
            ("L:src(S/D/L)", regions("likely", "src")),
            ("L:targ(S/D/L)", regions("likely", "targ")),
            ("paper P:ptr", lambda row: row["paper"].get("precise_ptr")),
            ("paper L:ptr", lambda row: row["paper"].get("likely_ptr")),
        ],
        rows,
        note="P=precise, L=likely; regions S=static D=dynamic L=lib. Scaled workloads: compare orderings, not magnitudes.",
    )
