"""The update fuzzer: scenario drawing, invariants, seed shrinking."""

from __future__ import annotations

import copy

from repro.bench import fuzz
from repro.replay.rng import RngStream, derive_seed
from repro.replay.scenario import default_spec
from repro.servers.catalog import CATALOG


def _master(seed=0):
    return RngStream("fuzz.master", derive_seed(seed, "fuzz.master"))


# -- drawing ------------------------------------------------------------------


def test_draw_spec_is_deterministic_per_seed():
    first = [fuzz.draw_spec(_master(5)) for _ in range(1)]
    second = [fuzz.draw_spec(_master(5)) for _ in range(1)]
    assert first == second
    # A different master seed changes the drawn scenario stream.
    a = [fuzz.draw_spec(m) for m in [_master(1)] for _ in range(4)]
    b = [fuzz.draw_spec(m) for m in [_master(2)] for _ in range(4)]
    assert a != b


def test_draw_spec_respects_server_capabilities():
    master = _master(9)
    for _ in range(30):
        spec = fuzz.draw_spec(master)
        assert spec["server"] in CATALOG
        if spec["mode"] == "rolling":
            assert spec["server"] in ("httpd", "nginx")
        if CATALOG[spec["server"]].holder_kind is None:
            assert not spec.get("holders")
        for arm in spec["faults"]:
            assert ("probability" in arm) != ("nth" in arm)


def test_draw_spec_rollback_fault_carries_a_primary():
    """A bare ``rollback`` arm never fires (the rollback path is only
    reached after a primary fault), so the fuzzer must pair it."""
    master = _master(0)
    saw_rollback = False
    for _ in range(200):
        spec = fuzz.draw_spec(master)
        sites = [arm["site"] for arm in spec["faults"]]
        if "rollback" in sites:
            saw_rollback = True
            assert "transfer.memory" in sites
    assert saw_rollback, "200 draws never armed rollback; check the weights"


# -- the oracle ---------------------------------------------------------------


def test_check_spec_passes_on_a_clean_update():
    verdict = fuzz.check_spec(default_spec("simple"))
    assert verdict["ok"], verdict["problems"]
    assert verdict["committed"] is True
    assert verdict["failure_site"] is None


def test_check_spec_passes_on_a_faulted_update():
    verdict = fuzz.check_spec(
        default_spec("simple", faults=[{"site": "transfer.memory", "nth": 1}])
    )
    assert verdict["ok"], verdict["problems"]
    assert verdict["committed"] is False
    assert verdict["failure_site"] == "transfer.memory"


# -- shrinking ----------------------------------------------------------------


def test_shrink_ladder_steps_simplify_one_axis_each():
    spec = default_spec(
        "httpd",
        mode="rolling",
        faults=[{"site": "transfer.memory", "probability": 0.5, "seed": 3}],
        workload={"requests": 30, "concurrency": 3, "jitter_ns": 50_000},
        holders=2,
    )
    assert fuzz._drop_jitter(spec)["workload"].get("jitter_ns") is None
    assert fuzz._drop_holders(spec)["holders"] == 0
    assert fuzz._single_client(spec)["workload"]["concurrency"] == 1
    assert fuzz._minimal_requests(spec)["workload"]["requests"] == 2
    assert fuzz._whole_tree(spec)["mode"] == "whole-tree"
    det = fuzz._deterministic_fault(spec)["faults"][0]
    assert det == {"site": "transfer.memory", "nth": 1, "times": 1}
    assert fuzz._no_fault(spec)["faults"] == []
    # Every step returns None once its axis is already minimal.
    minimal = default_spec("simple", workload={"clients": 1}, holders=0)
    for _name, step in fuzz.SHRINK_LADDER:
        assert step(minimal) is None
    # And none of them mutate their input.
    assert spec["workload"]["jitter_ns"] == 50_000
    assert spec["mode"] == "rolling"


def test_shrink_spec_greedily_minimizes_while_failure_reproduces(monkeypatch):
    spec = default_spec(
        "httpd",
        mode="rolling",
        faults=[{"site": "transfer.memory", "probability": 0.5, "seed": 3}],
        workload={"requests": 30, "concurrency": 3, "jitter_ns": 50_000},
        holders=2,
    )
    # Synthetic failure: reproduces iff the fault plan is non-empty, so
    # every simplification except ``no-fault`` should be kept.
    checks = []

    def fake_check(candidate, **_kwargs):
        checks.append(copy.deepcopy(candidate))
        return {"ok": not candidate["faults"], "problems": [], "spec": candidate}

    monkeypatch.setattr(fuzz, "check_spec", fake_check)
    minimal, applied, spent = fuzz.shrink_spec(spec)
    assert minimal["workload"] == {"requests": 2, "concurrency": 1}
    assert minimal["mode"] == "whole-tree"
    assert minimal["holders"] == 0
    assert minimal["faults"] == [
        {"site": "transfer.memory", "nth": 1, "times": 1}
    ]
    assert "no-fault" not in applied
    assert spent == len(checks) <= 16
    assert spec["workload"]["requests"] == 30  # input untouched


def test_shrink_spec_keeps_the_original_when_nothing_reproduces(monkeypatch):
    spec = default_spec(
        "httpd", faults=[{"site": "transfer.memory", "nth": 1}]
    )
    monkeypatch.setattr(
        fuzz, "check_spec", lambda candidate, **_: {"ok": True, "problems": []}
    )
    minimal, applied, _spent = fuzz.shrink_spec(spec)
    assert minimal == spec
    assert applied == []


# -- the soak -----------------------------------------------------------------


def test_run_fuzz_smoke_is_all_ok():
    results = fuzz.run_fuzz(seed=0, iterations=3)
    assert results["all_ok"], results["failures"]
    assert len(results["runs"]) == 3
    for row in results["runs"]:
        assert row["ok"], row["problems"]
    text = fuzz.render(results)
    assert "all_ok=yes" in text


def test_run_fuzz_shrinks_and_reports_a_failure(monkeypatch, tmp_path):
    """Force one iteration to fail its invariants and check the failure
    is minimized, re-verified, and reported with its reproducer."""
    real_check = fuzz.check_spec

    def broken_check(spec, **kwargs):
        verdict = real_check(spec, **kwargs)
        if spec.get("holders"):
            verdict = dict(verdict)
            verdict["ok"] = False
            verdict["problems"] = list(verdict["problems"]) + [
                "synthetic: holders leak"
            ]
        return verdict

    monkeypatch.setattr(fuzz, "check_spec", broken_check)
    monkeypatch.chdir(tmp_path)
    # Seed 3's smoke draws include holder-bearing specs (httpd iteration
    # 0 draws holders>0); scan a few iterations to be robust to weights.
    results = fuzz.run_fuzz(seed=3, iterations=6, artifact_prefix="FUZZTEST")
    assert not results["all_ok"]
    assert results["failures"]
    failure = results["failures"][0]
    # The shrinker drops every axis the synthetic bug doesn't depend on,
    # but holders must survive minimization (dropping them "fixes" it).
    assert failure["minimal_spec"]["holders"]
    assert failure["still_fails_minimized"]
    assert "drop-holders" not in failure["shrink_steps"]
    text = fuzz.render(results)
    assert "FAILURE at iteration" in text
    assert "python -m repro replay" in text
