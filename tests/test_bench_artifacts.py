"""Golden artifacts: the benches reproduce the committed files byte for byte.

Everything these benches report is stamped by the virtual clock, so the
committed ``BENCH_failover.json`` / ``BENCH_migrate.json`` /
``BENCH_updatetime.json`` / ``BENCH_faultmatrix.json`` (and the fault
matrix's black boxes and replay trace) / ``BENCH_fleetroll.json`` are an
executable spec of the drills, the update's phases and client-perceived
columns, the controller's transaction envelope, the black-box writer and
the rollout orchestrator: any refactor of those must leave every byte
where it was.  Each bench runs through the CLI entry point in a scratch
working directory, exactly as CI runs it: the smoke run, except
fleetroll, whose committed file is the full run (about 2 s).

Every bench with verdicts judges its own results: ``python -m repro bench
X`` prints them on one ``verdicts:`` line and exits 1 when one fails, and
the committed artifacts pass them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import failover, faultmatrix, fleetroll, fuzz, migrate, scanperf, updatetime
from repro.bench.reporting import verdict_line
from repro.cli import main
from repro.fleet import Orchestrator
from repro.fleet.drill import Drill

REPO_ROOT = Path(__file__).resolve().parent.parent

# Bench -> the files it writes.
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
    "fleetroll": ("BENCH_fleetroll.json",),
}
# The benches whose committed artifact is the full run.
FULL_SIZE = ("fleetroll",)


@pytest.mark.parametrize("experiment", sorted(ARTIFACTS))
def test_smoke_bench_reproduces_committed_artifacts(
    experiment, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    size = [] if experiment in FULL_SIZE else ["--smoke"]
    assert main(["bench", experiment, *size, "--json"]) == 0
    for name in ARTIFACTS[experiment]:
        produced = (tmp_path / name).read_bytes()
        committed = (REPO_ROOT / name).read_bytes()
        assert produced == committed, f"{name} drifted from the committed artifact"
    # Under the tables, one line names every verdict, each one passed.
    module = VERDICT_BENCHES[experiment][0]
    keys = module.verdicts(_committed(experiment))
    stdout = capsys.readouterr().out.splitlines()
    assert [line for line in stdout if line.startswith("verdicts:")] == [
        verdict_line(dict.fromkeys(keys, True))
    ]


def _committed(bench):
    return json.loads((REPO_ROOT / f"BENCH_{bench}.json").read_text())["results"]


def _fuzz_soak():
    """``bench fuzz`` has no committed artifact: a one-scenario soak stands in."""
    return fuzz.run_fuzz(smoke=True, iterations=1)


# Bench -> (its module, its run function, good results, a damage that fails
# one verdict).  A damage edits a row, never a stored summary flag: the
# verdicts are computed from the rows.
VERDICT_BENCHES = {
    "failover": (failover, "run_failover", lambda: _committed("failover"),
                 lambda r: r["sweep"][0].update(requests_lost=1)),
    "migrate": (migrate, "run_migrate", lambda: _committed("migrate"),
                lambda r: r["head_to_head"][0].update(comparable=False)),
    "updatetime": (updatetime, "run_updatetime", lambda: _committed("updatetime"),
                   lambda r: r["nginx"].update(rolling_blackout_ms=1e9)),
    "faultmatrix": (faultmatrix, "run_faultmatrix", lambda: _committed("faultmatrix"),
                    lambda r: r["migration_cells"][0].update(converged=False)),
    "fleetroll": (fleetroll, "run_fleetroll", lambda: _committed("fleetroll"),
                  lambda r: r["faults"][0].update(converged=False)),
    "scanperf": (scanperf, "run_scanperf", lambda: _committed("scanperf"),
                 lambda r: r["scaling_curve"][-1].update(slo_ok=False)),
    "fuzz": (fuzz, "run_fuzz", _fuzz_soak,
             lambda r: r["runs"][0].update(ok=False)),
}


def _lose_one(result):
    result.requests_lost += 1


def _fire_unarmed(result):
    result.fired_sites.append("checkpoint.capture")


# Damage -> (the drill kind, the grid cell it damages, what it does to the
# drill's result): a drill cell that lost a request, a clean (unarmed)
# one that fired.  The damaged cell is rebuilt by ``Drill.cell``, so its
# ``converged`` is the one judge's, ``DrillResult.violations``.
DRILL_DAMAGES = {
    "failover-lost": ("failover", 1, _lose_one),
    "migration-lost": ("migration", 2, _lose_one),
    "failover-clean-fired": ("failover", 0, _fire_unarmed),
    "migration-clean-fired": ("migration", 0, _fire_unarmed),
}


@pytest.mark.parametrize("damage", sorted(DRILL_DAMAGES))
def test_faultmatrix_exits_1_on_a_drill_that_lost_or_fired_unarmed(
    damage, tmp_path, monkeypatch, capsys
):
    results = _committed("faultmatrix")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(faultmatrix, "run_faultmatrix", lambda **options: results)
    assert main(["bench", "faultmatrix", "--smoke"]) == 0
    capsys.readouterr()
    kind, index, damaged = DRILL_DAMAGES[damage]
    drill, clean, sites, double, settings = faultmatrix.DRILL_GRIDS[kind]
    site = (None, *sites, double)[index]
    run = Drill.run

    def damaged_run(self):
        result = run(self)
        damaged(result)
        return result

    monkeypatch.setattr(Drill, "run", damaged_run)
    cell = drill.cell(results["servers"][0], site, **settings)
    assert cell["converged"] is False and cell["raised"] is False
    results[f"{kind}_cells"][index] = dict(cell, site=site or clean)
    assert main(["bench", "faultmatrix", "--smoke"]) == 1
    assert capsys.readouterr().err == (
        f"bench faultmatrix: failed verdicts: {kind}_all_converged\n"
    )


def _probe_answers(first):
    """Node 0's protocol probe answers ``first`` instead of what it serves."""
    def damage(report):
        probe = report.fleet.served_versions
        report.fleet.served_versions = lambda: [first, *probe()[1:]]
    return damage


def _unverify(report):
    faulted = [o for o in report.outcomes if o.node_id == fleetroll.FAULTED_NODE]
    faulted[0].result.rollback_verified = False


def _lose_three(report):
    report.fleet.requests_shed += 3


# Damage -> (the grid, the cell it rebuilds, what it does to the report
# ``Orchestrator.rollout`` returns, what the rebuilt row then reads): a
# clean rollout that reverted or whose probe disagreed, a faulted one whose
# rollback went unverified or that lost requests.  Only ``converged``, the
# judge's column, fails each one.
ROLLOUT_DAMAGES = {
    "clean-reverted": (
        "waves", 3, lambda report: setattr(report, "outcome", "reverted"),
        lambda row: row["outcome"] == "reverted"),
    "clean-served-mixed": (
        "waves", 3, _probe_answers(1), lambda row: row["served_uniform"] is False),
    "clean-served-unknown": (
        "waves", 3, _probe_answers(None), lambda row: row["served_uniform"] is None),
    "fault-unverified-rollback": (
        "faults", 0, _unverify,
        lambda row: fleetroll._faulted(row)["rollback_verified"] is False),
    "fault-lost-requests": (
        "faults", 0, _lose_three, lambda row: row["requests_lost"] == 3),
}


@pytest.mark.parametrize("damage", sorted(ROLLOUT_DAMAGES))
def test_fleetroll_exits_1_on_a_rollout_that_broke_its_contract(
    damage, tmp_path, monkeypatch, capsys
):
    results = _committed("fleetroll")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fleetroll, "run_fleetroll", lambda **options: results)
    assert main(["bench", "fleetroll"]) == 0
    capsys.readouterr()
    grid, index, damaged, reads = ROLLOUT_DAMAGES[damage]
    cell = (fleetroll.WAVE_SWEEP if grid == "waves" else fleetroll.FAULT_GRID)[index]
    rollout = Orchestrator.rollout

    def damaged_rollout(self, *args, **kwargs):
        report = rollout(self, *args, **kwargs)
        damaged(report)
        return report

    monkeypatch.setattr(Orchestrator, "rollout", damaged_rollout)
    row = fleetroll.rollout_cell(**cell)
    assert reads(row) and row["converged"] is False
    results[grid][index] = row
    assert main(["bench", "fleetroll"]) == 1
    verdict = "clean_all_converged" if grid == "waves" else "faults_all_converged"
    assert capsys.readouterr().err == f"bench fleetroll: failed verdicts: {verdict}\n"


def test_failover_exits_1_on_a_sweep_trial_with_two_end_states(
    tmp_path, monkeypatch, capsys
):
    """A clean sweep's trials are judged by ``DrillResult.violations``."""
    results = _committed("failover")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(failover, "run_failover", lambda **options: results)
    assert main(["bench", "failover", "--smoke"]) == 0
    capsys.readouterr()
    run = Drill.run

    def two_end_states(self):
        result = run(self)
        result.primary_survived = True  # beside the promoted standby
        return result

    monkeypatch.setattr(Drill, "run", two_end_states)
    row = results["sweep"][0]
    rebuilt = failover._sweep_row(row["server"], row["cadence_ms"], row["trials"])
    assert rebuilt["slo_ok"] is False and rebuilt["requests_lost"] == 0
    results["sweep"][0] = rebuilt
    assert main(["bench", "failover", "--smoke"]) == 1
    assert capsys.readouterr().err == "bench failover: failed verdicts: sweep_slo_ok\n"


@pytest.mark.parametrize("bench", sorted(
    bench for bench in VERDICT_BENCHES if (REPO_ROOT / f"BENCH_{bench}.json").exists()
))
def test_no_committed_artifact_stores_a_copy_of_its_verdicts(bench):
    """A bench's verdicts are computed from its rows, never read back: no
    committed results (or their ``summary``) hold a key ``verdicts`` returns."""
    module = VERDICT_BENCHES[bench][0]
    results = _committed(bench)
    stored = set(results) | set(results.get("summary", {}))
    assert not stored & set(module.verdicts(results))


@pytest.mark.parametrize("bench", sorted(VERDICT_BENCHES))
def test_bench_exits_0_on_good_results_and_1_when_a_verdict_fails(
    bench, tmp_path, monkeypatch, capsys
):
    """The committed artifact passes the bench's own verdicts; one damaged row fails it."""
    module, run, good, damage = VERDICT_BENCHES[bench]
    results = good()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, run, lambda **options: results)
    assert main(["bench", bench, "--smoke"]) == 0
    assert capsys.readouterr().err == ""
    damage(results)
    assert main(["bench", bench, "--smoke"]) == 1
    assert f"bench {bench}: failed verdicts: " in capsys.readouterr().err


# Bench -> the title of every table its render prints.
TABLE_TITLES = {
    "failover": ("Failover: checkpoint cadence vs RTO",),
    "migrate": (
        "Planned migration: pre-copy cadence x convergence threshold",
        "Head to head: planned brownout vs crash RTO",
    ),
    "faultmatrix": (
        "Fault matrix: injected failure sites x servers",
        "Failover drills: checkpoint-plane sites x crash recovery",
        "Migration drills: planned-migration sites x cutover",
    ),
    "fleetroll": (
        "Fleet rollout: wave size sweep (clean v1 -> v2)",
        "Fleet rollout: mid-wave fault x policy",
    ),
    "updatetime": (
        "Update time components",
        "Rolling vs whole-tree blackout (equal workload)",
    ),
    "scanperf": (
        "run_update per server",
        "httpd prefork scaling curve (rolling run_update)",
    ),
}


@pytest.mark.parametrize("bench", sorted(TABLE_TITLES))
def test_committed_artifact_renders_every_table(bench):
    """Each committed artifact renders: a column naming a key its rows lack
    raises, so this catches a mistyped key even in tables only a full run
    fills (``BENCH_scanperf.json``'s 1000-worker curve point)."""
    module = VERDICT_BENCHES[bench][0]
    text = module.render(_committed(bench))
    for title in TABLE_TITLES[bench]:
        assert f"{title}\n{'=' * len(title)}\n" in text, title
    if bench == "scanperf":  # the one line outside a table: a bool reads yes/NO
        assert "identical=yes," in text


def test_committed_drill_artifacts_carry_the_verdicts_ci_demanded():
    """The smoke benches reproduce these files byte for byte (above), so
    holding the committed copies to the verdicts holds every run to them.
    Their drill fault cells live in the fault matrix's artifact."""
    for module, bench in ((failover, "failover"), (migrate, "migrate")):
        results = _committed(bench)
        assert results["sweep"] and "drills" not in results
        assert all(module.verdicts(results).values()), bench
    results = _committed("faultmatrix")
    assert results["failover_cells"] and results["migration_cells"]
    assert all(faultmatrix.verdicts(results).values())


def test_committed_updatetime_artifact_carries_the_verdicts_ci_demanded():
    results = _committed("updatetime")
    assert results
    for server, row in results.items():
        for key in ("client_p50_ms", "client_p95_ms", "client_p99_ms",
                    "client_sum_ms", "blackout_ms", "slo_ok"):
            assert key in row, f"{server}: missing {key}"
    assert all(updatetime.verdicts(results).values())


def test_committed_faultmatrix_artifacts_carry_the_verdicts_ci_demanded():
    results = _committed("faultmatrix")
    assert all(faultmatrix.verdicts(results).values())
    # The black box left behind is the post-mortem of the last injected
    # fault: it names that fault's site and references its replay trace.
    blackbox = json.loads((REPO_ROOT / "BENCH_faultmatrix_blackbox.json").read_text())
    last = [cell for cell in results["cells"] if cell["rolled_back"]][-1]
    assert blackbox["last_fault"]["payload"]["site"] == last["fired_sites"][-1]
    assert blackbox["trace"]["format"] == "repro-trace-v1"
    assert blackbox["trace"]["path"] == "BENCH_faultmatrix_blackbox.trace.json"
