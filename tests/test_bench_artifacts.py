"""Golden artifacts: the smoke benches reproduce the committed files byte for byte.

Everything these benches report is stamped by the virtual clock, so the
committed ``BENCH_failover.json`` / ``BENCH_migrate.json`` /
``BENCH_updatetime.json`` / ``BENCH_faultmatrix.json`` (and the fault
matrix's black boxes and replay trace) are an executable spec of the
drills, the update's phases and client-perceived columns, the
controller's transaction envelope and the black-box writer: any
refactor of those must leave every byte where it was.  Each bench runs through the CLI
entry point in a scratch working directory, exactly as CI runs it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

ARTIFACTS = {
    "failover": ("BENCH_failover.json",),
    "migrate": ("BENCH_migrate.json",),
    "updatetime": ("BENCH_updatetime.json",),
    "faultmatrix": (
        "BENCH_faultmatrix.json",
        "BENCH_faultmatrix_blackbox.json",
        "BENCH_faultmatrix_blackbox.trace.json",
        "BENCH_faultmatrix_blackbox_failover.json",
        "BENCH_faultmatrix_blackbox_migration.json",
    ),
}


@pytest.mark.parametrize("experiment", sorted(ARTIFACTS))
def test_smoke_bench_reproduces_committed_artifacts(
    experiment, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", experiment, "--smoke", "--json"]) == 0
    capsys.readouterr()  # the rendered tables are not under test here
    for name in ARTIFACTS[experiment]:
        produced = (tmp_path / name).read_bytes()
        committed = (REPO_ROOT / name).read_bytes()
        assert produced == committed, f"{name} drifted from the committed artifact"


def test_committed_drill_artifacts_carry_the_verdicts_ci_demanded():
    """What ``ci.yml``'s failover / migrate heredocs asserted, of the committed files.

    The smoke benches reproduce these files byte for byte (above), so
    holding the committed copies to the verdicts holds every run to them.
    """
    failover = json.loads((REPO_ROOT / "BENCH_failover.json").read_text())["results"]
    migrate = json.loads((REPO_ROOT / "BENCH_migrate.json").read_text())["results"]
    for results in (failover, migrate):
        assert results["sweep"] and results["drills"]
        for row in results["sweep"]:
            assert row["requests_lost"] == 0 and row["slo_ok"], row
        for cell in results["drills"]:
            assert cell["fired"] and cell["converged"], cell
            assert cell["requests_lost"] == 0, cell
        assert results["summary"]["clean_zero_loss"]
        assert results["summary"]["all_drills_converged"]
    budget_ms = failover["summary"]["downtime_budget_ms"]
    assert all(row["rto_p99_ms"] < budget_ms for row in failover["sweep"])
    assert failover["summary"]["rto_all_within_budget"]
    budget_ms = migrate["summary"]["downtime_budget_ms"]
    for row in migrate["sweep"]:
        assert row["migrated"] and row["brownout_p99_ms"] < budget_ms, row
    assert migrate["head_to_head"]
    assert all(row["comparable"] for row in migrate["head_to_head"])
    assert migrate["summary"]["brownout_within_budget"]
    assert migrate["summary"]["brownout_at_most_comparable"]


def test_committed_updatetime_artifact_carries_the_verdicts_ci_demanded():
    """What ``ci.yml``'s update-time heredoc asserted, of the committed file."""
    results = json.loads((REPO_ROOT / "BENCH_updatetime.json").read_text())["results"]
    assert results
    for server, row in results.items():
        for key in ("client_p50_ms", "client_p95_ms", "client_p99_ms",
                    "client_sum_ms", "blackout_ms", "slo_ok"):
            assert key in row, f"{server}: missing {key}"
        assert row["slo_ok"] is True, f"{server}: SLO verdict violated"
        assert row["workload_errors"] == 0, f"{server}: client errors"
    # The rolling hand-off strictly beats whole-tree on client-perceived
    # blackout at equal workload, on both pools.
    for server in ("httpd", "nginx"):
        row = results[server]
        assert row["rolling_blackout_ms"] < row["wt_blackout_ms"], (server, row)
        assert row["rolling_slo_ok"] is True, f"{server}: rolling SLO"
        assert row["rolling_batches"] >= 2, f"{server}: no batching"


def test_committed_faultmatrix_artifacts_carry_the_verdicts_ci_demanded():
    """What ``ci.yml``'s fault-matrix heredoc asserted, of the committed files."""
    results = json.loads((REPO_ROOT / "BENCH_faultmatrix.json").read_text())["results"]
    assert not results["any_raised"], "a fault escaped run_update"
    assert results["rolling_cells"] > 0 and results["rolling_all_survived"]
    for cell in results["cells"]:
        assert cell["survived"] and cell["old_version_intact"], cell
        if cell["rolled_back"]:
            assert cell["blackbox_matches_site"], cell
    assert results["all_blackbox_match"]
    # The black box left behind is the post-mortem of the last injected
    # fault: it names that fault's site and references its replay trace.
    blackbox = json.loads((REPO_ROOT / "BENCH_faultmatrix_blackbox.json").read_text())
    last = [cell for cell in results["cells"] if cell["rolled_back"]][-1]
    assert blackbox["last_fault"]["payload"]["site"] == last["fired_sites"][-1]
    assert blackbox["trace"]["format"] == "repro-trace-v1"
    assert blackbox["trace"]["path"] == "BENCH_faultmatrix_blackbox.trace.json"
