"""Tests of the benchmark itself (not collected by tier-1: testpaths = tests).

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

The smoke tests run every workload once per mode through the real
command, so the whole file takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
from layers import COUNTED, SHIMS, Tracer, _owner  # noqa: E402

SPEC = run.load_spec()


# -- the shim stack ---------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_excludes_child_frames():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 5
        return 7

    inner = tracer.timed("leaf", leaf, work=lambda result: result)

    def parent():
        clock.now += 10
        inner()
        clock.now += 1
        inner()
        return None

    outer = tracer.timed("parent", parent)
    tracer.active = True  # as after install(): driver spans record
    with tracer.span("driver"):
        clock.now += 100
        outer()
        clock.now += 3
    assert tracer.self_ns == {"leaf": 10, "parent": 11, "driver": 103}
    assert tracer.calls == {"leaf": 2, "parent": 1, "driver": 1}
    assert tracer.work == {"leaf": 14}
    # Self times add up to the wall time, nothing counted twice.
    assert sum(tracer.self_ns.values()) == clock.now == 124
    assert tracer._stack == []


def test_frame_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 2
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.timed("boom", boom)()
    assert tracer.self_ns == {"boom": 2} and tracer._stack == []


def test_spans_are_free_until_installed():
    tracer = Tracer()
    with tracer.span("anything"):
        pass
    with tracer.collecting(None):  # would fail on a real collector
        pass
    assert not tracer.self_ns and not tracer.calls and not tracer.counters


def test_install_and_uninstall_restore_function_identity():
    targets = [(path, attr) for path, attr, *_ in SHIMS + COUNTED]
    before = [vars(_owner(path))[attr] for path, attr in targets]
    tracer = Tracer()
    tracer.install()
    try:
        during = [vars(_owner(path))[attr] for path, attr in targets]
        assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = [vars(_owner(path))[attr] for path, attr in targets]
    assert all(a is b for a, b in zip(after, before))
    assert not tracer.active


# -- compare.py -------------------------------------------------------------------

HOST = {"name": "iter_host_s", "unit": "s", "better": "lower", "bound": 0.10}
EXACT = {"name": "update_virtual_ms", "unit": "virt_ms", "better": "lower"}
LAYER = {"name": "mem.clone_host_ms", "unit": "ms", "better": "lower"}


@pytest.mark.parametrize(
    "metric, base, change, single_spread, expected",
    [
        (HOST, [1.00], [1.11], 0.02, "worse"),
        (HOST, [1.00], [1.05], 0.02, "same"),
        (HOST, [1.00], [1.05], 0.30, "unresolved"),
        (HOST, [1.00], [0.80], 0.02, "better"),
        (HOST, [1.00], [0.99], 0.02, "same"),                  # inside the spread
        (HOST, [1.00], [0.80], 0, "same"),                     # one run, spread unknown
        (HOST, [1.0, 1.01, 0.99, 1.0], [0.8, 0.8, 0.81, 0.79], 0, "better"),
        (HOST, [1.0, 1.3, 0.7, 1.0], [0.95, 1.2, 0.8, 1.0], 0, "unresolved"),
        (HOST, [1.0, 1.3, 0.7, 1.0], [0.5, 0.6, 0.5, 0.6], 0, "better"),  # clear of base
        (LAYER, [10.0], [20.0], 0, "info"),
    ],
)
def test_verdicts(metric, base, change, single_spread, expected):
    assert compare.verdict(metric, base, change, single_spread)[0] == expected


@pytest.mark.parametrize(
    "base, change, expected",  # runs as (seed, value)
    [
        ([(1, 854.441022)], [(1, 854.441022)], "same"),
        ([(1, 854.441022)], [(1, 854.441023)], "worse"),
        ([(1, 854.441022)], [(1, 800.0)], "better"),
        ([(1, 1.0), (2, 2.0)], [(2, 2.0), (1, 1.0)], "same"),   # seeds differ, sides agree
        ([(1, 1.0), (2, 2.0)], [(1, 1.0), (2, 2.5)], "worse"),
        ([(1, 1.0), (2, 2.0)], [(1, 0.5), (2, 2.5)], "worse"),  # one seed worse is worse
        ([(1, 1.0), (1, 1.0)], [(1, 1.0), (1, 1.000001)], "worse"),  # not repeating
        ([(1, 1.0)], [(2, 1.0)], "unresolved"),                 # no seed in common
    ],
)
def test_exact_verdicts_go_seed_by_seed(base, change, expected):
    assert compare.exact_verdict(EXACT, base, change)[0] == expected


def _envelope(iter_host_s, update_ms, failed=0, seed=0):
    return {"seed": seed, "workloads": {"prefork256_roll": {
        "attempted": 25, "failed": failed,
        "metrics": {
            "iter_host_s": {"value": iter_host_s, "unit": "s"},
            "peak_rss_mb": {"value": 2300.0, "unit": "MiB"},
            "setup_s": {"value": 9.0, "unit": "s"},
        },
        "report": {
            "results": {"update_virtual_ms": update_ms},
            "iter_host_s_quartiles": [iter_host_s, iter_host_s * 1.01, iter_host_s * 1.02],
        },
    }}}


def test_compare_flags_regressions_and_failed_operations():
    base = [_envelope(2.5, 854.441022)]
    rows, regressed = compare.compare(base, [_envelope(2.55, 854.441022)], SPEC)
    assert not regressed
    assert {r[1]: r[2] for r in rows} == {
        "ops_failed_share": "same", "iter_host_s": "same", "peak_rss_mb": "same",
        "setup_s": "same", "update_virtual_ms": "same",
    }
    for change in (
        _envelope(3.2, 854.441022),            # host time beyond its bound
        _envelope(2.5, 854.5),                 # virtual time moved
        _envelope(2.5, 854.441022, failed=1),  # an operation failed
    ):
        assert compare.compare(base, [change], SPEC)[1]


def test_two_sets_over_two_seeds_agree():
    """The ten-pair recipe gives each pair its own seed, and seeds move virtual results."""
    base = [_envelope(2.5, 854.4, seed=200), _envelope(2.6, 861.2, seed=201)]
    change = [_envelope(2.6, 854.4, seed=200), _envelope(2.5, 861.2, seed=201)]
    rows, regressed = compare.compare(base, change, SPEC)
    assert not regressed and {r[1]: r[2] for r in rows}["update_virtual_ms"] == "same"
    change[1] = _envelope(2.5, 861.3, seed=201)
    assert compare.compare(base, change, SPEC)[1]


# -- seeds ------------------------------------------------------------------------


def test_seed_reaches_the_think_times_and_nothing_else(tmp_path):
    from repro.replay import rng

    import workloads

    def think_times(seed):
        with rng.scoped(rng.RngRegistry(seed)):
            stream = rng.stream("workload.ab.jitter")
            return [stream.randint(0, workloads.JITTER_NS) for _ in range(64)]

    assert think_times(1) != think_times(2)
    assert think_times(1) == think_times(1)

    tracer = Tracer()
    tracer.install()  # counters are only collected in a traced pass
    try:
        seen = []
        for seed in (1, 2, 1):
            tracer.reset()
            it = workloads.iterate("serve_midflight", seed, tracer, str(tmp_path))
            assert it.failed == 0 and not it.problems
            seen.append((dict(it.results), dict(tracer.counters)))
    finally:
        tracer.uninstall()
    assert seen[0] == seen[2]          # same seed: identical virtual metrics + counters
    assert seen[0][0] != seen[1][0]    # another seed: another (valid) run


# -- the command, end to end ------------------------------------------------------


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_declared_metric(workload, trace):
    done = _run("--workload", workload, "--iters", "1", "--trace", str(trace), "--seed", "5")
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        cell = result["metrics"][m["name"]]
        assert cell["unit"] == m["unit"] and isinstance(cell["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.attributed_share"]["value"] >= 0.8
    else:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())
    if workload == "prefork256_roll" and trace:
        assert result["metrics"]["update_virtual_ms"]["value"] == 854.441022


def test_envelope_is_stamped_and_nothing_is_left_behind(tmp_path):
    out = tmp_path / "envelope.json"
    before = set(os.listdir(ROOT)), set(os.listdir(os.path.join(HERE, "out")))
    done = _run("--workload", "serve_midflight", "--iters", "1", "--seed", "9",
                "--out", str(out))
    assert done.returncode == 0
    envelope = json.loads(out.read_text())
    for key in ("commit", "python", "scan_backend", "nproc", "seed", "host_wall_s"):
        assert envelope[key] not in (None, ""), key
    assert envelope["seed"] == 9
    assert envelope["workloads"]["serve_midflight"]["n"] == 1
    # No BENCH_*/blackbox* files, and the scratch directory is gone again.
    assert (set(os.listdir(ROOT)), set(os.listdir(os.path.join(HERE, "out")))) == before


def test_problems_reach_stderr_and_fail_the_command(monkeypatch, capsys):
    report = {
        "problems": ["update_virtual_ms 1.0 != 854.441022"], "attempted": 25, "failed": 0,
        "iters": 2, "scan_backend": "stdlib",
        "iter_host_s": 2.5, "peak_rss_mb": 2300.0, "setup_s": 4.0,
    }
    monkeypatch.setattr(run, "measure", lambda args: dict(report))
    assert run.main(["--workload", "prefork256_roll"]) == 1
    captured = capsys.readouterr()
    assert "PROBLEM: update_virtual_ms 1.0 != 854.441022" in captured.err
    assert json.loads(captured.out.splitlines()[-1])["correct"] is False


def test_a_child_that_overruns_is_reported_without_a_traceback(monkeypatch):
    def overrun(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(run.subprocess, "run", overrun)
    args = argparse.Namespace(workload="serve_midflight", seed=1, seconds=1.0)
    with pytest.raises(SystemExit) as stopped:
        run._spawn(args, "unused", deadline=0.0, iters=None, trace=0)
    assert "serve_midflight: not done within" in str(stopped.value.code)


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/ has nothing to measure."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_midflight",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
