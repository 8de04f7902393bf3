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
                  lambda r: r["faults"][0].update(outcome="updated")),
    "scanperf": (scanperf, "run_scanperf", lambda: _committed("scanperf"),
                 lambda r: r["scaling_curve"][-1].update(slo_ok=False)),
    "fuzz": (fuzz, "run_fuzz", _fuzz_soak,
             lambda r: r["runs"][0].update(ok=False)),
}


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
    "failover": ("Failover: checkpoint cadence vs RTO", "Failover fault drills"),
    "migrate": (
        "Planned migration: pre-copy cadence x convergence threshold",
        "Head to head: planned brownout vs crash RTO",
        "Migration fault drills",
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


def test_committed_drill_artifacts_carry_the_verdicts_ci_demanded():
    """The smoke benches reproduce these files byte for byte (above), so
    holding the committed copies to the verdicts holds every run to them."""
    for module, bench in ((failover, "failover"), (migrate, "migrate")):
        results = _committed(bench)
        assert results["sweep"] and results["drills"]
        assert all(module.verdicts(results).values()), bench


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
