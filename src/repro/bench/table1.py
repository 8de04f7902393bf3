"""Table 1: programs, updates, and engineering effort.

Three column groups:

* **Quiescence profiling** — run the §8 profiling scripts through the
  quiescence profiler and report short-/long-lived thread classes,
  quiescent points, and their persistent/volatile split.
* **Updates / Changes** — the update series (count, patch LOC, changed
  functions/variables from the series specs; changed types computed
  structurally from the version type registries).
* **Engineering effort** — annotation LOC from the programs' actual
  annotation registries; state-transfer LOC from the updates that needed
  semantic handlers.

Patch-size numbers describe our simulated series; the paper's row is
printed alongside (it describes the real upstream releases, which cannot
be regenerated from a simulation).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.reporting import render_table
from repro.runtime.build import profile_program
from repro.servers.catalog import lookup
from repro.servers.updates import ALL_SERIES, UpdateSeries

PAPER_PROFILING = {
    "httpd": {"SL": 2, "LL": 8, "QP": 8, "Per": 5, "Vol": 3},
    "nginx": {"SL": 1, "LL": 2, "QP": 2, "Per": 2, "Vol": 0},
    "vsftpd": {"SL": 0, "LL": 5, "QP": 5, "Per": 1, "Vol": 4},
    "opensshd": {"SL": 3, "LL": 3, "QP": 3, "Per": 1, "Vol": 2},
}

def profile_server(name: str) -> Dict[str, int]:
    """Run the quiescence profiler for one server; Table-1 counters."""
    spec = lookup(name)
    report = profile_program(spec.make_program, spec.module.setup_world, spec.profile)
    return report.summary()


def effort_row(name: str) -> Dict[str, int]:
    """The Updates/Changes/Effort columns for one server."""
    series: UpdateSeries = ALL_SERIES[name]
    return {
        "Num": series.num_updates(),
        "LOC": series.total_loc(),
        "Fun": series.total_functions(),
        "Var": series.total_variables(),
        "Type": series.total_types(),
        "Ann": series.annotation_loc(),
        "ST": series.st_loc(),
    }


def run_table1(servers: Sequence[str] = ("httpd", "nginx", "vsftpd", "opensshd")) -> Dict[str, Dict[str, int]]:
    results: Dict[str, Dict[str, int]] = {}
    for name in servers:
        row: Dict[str, int] = {}
        row.update(profile_server(name))
        row.update(effort_row(name))
        results[name] = row
    return results


def render(results: Dict[str, Dict[str, int]]) -> str:
    keys = ["SL", "LL", "QP", "Per", "Vol", "Num", "LOC", "Fun", "Var", "Type", "Ann", "ST"]
    headers = ["server"] + keys
    rows: List[List] = []
    for name, row in results.items():
        rows.append([name] + [row.get(k, "-") for k in keys])
        paper = dict(PAPER_PROFILING.get(name, {}))
        paper.update(ALL_SERIES[name].paper_row)
        rows.append([f"  (paper)"] + [paper.get(k, "-") for k in keys])
    return render_table(
        "Table 1: programs, updates, and engineering effort",
        headers,
        rows,
        note=(
            "Profiling columns measured by the quiescence profiler on the "
            "simulated servers; Updates/Changes describe our simulated "
            "patch series (Type computed structurally); paper rows refer "
            "to the real upstream releases."
        ),
    )
