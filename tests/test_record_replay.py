"""Record/replay: RNG streams, trace equivalence, replay-to-failure.

The determinism story this PR banks on: the cooperative kernel plus the
virtual clock make a scenario a pure function of (spec, master seed), so
a recorded run must replay **bit-identically** — every RNG draw, the
scheduler pick checkpoints, the final virtual clock, the span-tree CRC,
and the tree-fingerprint CRC.  These tests pin that property across all
five scenario servers, both update modes, with and without faults, and
check that the replayer *detects* divergence when a trace is tampered
with (a diverging replay that reported EQUIVALENT would be worse than no
replayer at all).
"""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replay import (
    Divergence,
    Replayer,
    RngRegistry,
    RngStream,
    TraceLog,
    default_spec,
    replay_path,
    run_scenario,
)
from repro.replay.rng import derive_seed
from repro.replay.trace import tracing

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


# -- RngStream / RngRegistry units -------------------------------------------


def test_stream_matches_stdlib_sequence():
    """Explicit seed => the exact random.Random(seed) sequence.

    This is what made rerouting FaultArm._rng and scanperf's pointer
    field through the registry a no-op for their recorded outputs.
    """
    stream = RngStream("t", 1234)
    reference = random.Random(1234)
    assert [stream.random() for _ in range(5)] == [
        reference.random() for _ in range(5)
    ]
    stream = RngStream("t", 1234)
    reference = random.Random(1234)
    assert stream.randint(1, 100) == reference.randint(1, 100)
    assert stream.getrandbits(48) == reference.getrandbits(48)
    seq = ["a", "b", "c", "d"]
    assert stream.choice(seq) == reference.choice(seq)


def test_stream_indices_count_draws():
    stream = RngStream("t", 0)
    assert stream.index == 0
    stream.random()
    stream.randint(0, 9)
    assert stream.index == 2


def test_derive_seed_is_stable_and_name_sensitive():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")


def test_registry_memoizes_streams():
    registry = RngRegistry(7)
    first = registry.stream("faults.x")
    assert registry.stream("faults.x") is first
    assert registry.stream("faults.y") is not first
    # Same master seed, fresh registry => identical sequences.
    again = RngRegistry(7).stream("faults.x")
    twice = RngRegistry(7).stream("faults.x")
    assert [again.random() for _ in range(3)] == [
        twice.random() for _ in range(3)
    ]


def test_registry_rejects_conflicting_explicit_seed():
    registry = RngRegistry(0)
    registry.stream("s", seed=1)
    assert registry.stream("s", seed=1).seed == 1
    with pytest.raises(ValueError):
        registry.stream("s", seed=2)


def test_choice_draw_is_logged_as_index():
    """Trace draws must be JSON-exact; choice logs the int index."""
    trace = TraceLog.record(default_spec("simple"))
    with tracing(trace):
        stream = RngStream("t", 99)
        picked = stream.choice(["p", "q", "r"])
    assert len(trace.draws) == 1
    name, index, value = trace.draws[0]
    assert (name, index) == ("t", 0)
    assert isinstance(value, int)
    assert ["p", "q", "r"][value] == picked


# -- record -> replay equivalence across the matrix --------------------------

SCENARIOS = [
    default_spec("simple"),
    default_spec("memcache", faults=[{"site": "restart.fd_handoff", "nth": 1}]),
    default_spec(
        "httpd",
        mode="rolling",
        faults=[{"site": "transfer.memory", "probability": 0.4, "seed": 7}],
        workload={"requests": 12, "concurrency": 2, "jitter_ns": 50_000},
    ),
    default_spec(
        "nginx",
        workload={"requests": 10, "jitter_ns": 25_000},
        holders=1,
    ),
    default_spec("vsftpd", faults=[{"site": "commit.critical", "nth": 1}]),
]


@pytest.mark.parametrize(
    "spec", SCENARIOS, ids=[f"{s['server']}-{s['mode']}" for s in SCENARIOS]
)
def test_record_then_replay_is_equivalent(spec):
    recorded = TraceLog.record(spec)
    run_scenario(spec, trace=recorded)
    assert recorded.final["clock_ns"] > 0
    replay = TraceLog.replay_of(recorded)
    outcome = run_scenario(spec, trace=replay)
    assert replay.equivalent, [str(d) for d in replay.divergences]
    assert outcome.raised is None
    # The digest covers the whole tree: virtual clock, span tree,
    # surviving fingerprint, and the update outcome fields.
    assert replay.final == recorded.final
    assert replay.checkpoints == recorded.checkpoints
    assert replay.draws == recorded.draws


def test_replay_to_failure_stops_at_the_fault_site():
    spec = default_spec("simple", faults=[{"site": "transfer.memory", "nth": 1}])
    recorded = TraceLog.record(spec)
    full = run_scenario(spec, trace=recorded)
    assert full.result is not None and full.result.rolled_back
    replay = TraceLog.replay_of(recorded)
    partial = run_scenario(spec, trace=replay, until_failure=True)
    assert replay.equivalent, [str(d) for d in replay.divergences]
    assert partial.result.failure_site == "transfer.memory"
    # Partial run: probe never ran, so fewer steps than the recording.
    assert partial.kernel.steps_executed < full.kernel.steps_executed


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    probability=st.floats(min_value=0.05, max_value=0.95),
    jitter_ns=st.sampled_from([0, 25_000, 100_000]),
)
def test_property_replay_bit_identical(seed, probability, jitter_ns):
    """Any seed x fault probability x jitter replays bit-identically."""
    spec = default_spec(
        "httpd",
        seed=seed,
        faults=[
            {
                "site": "transfer.memory",
                "probability": round(probability, 3),
                "seed": seed % 1000,
            }
        ],
        workload={"requests": 6, "concurrency": 1, "jitter_ns": jitter_ns},
        holders=0,
    )
    recorded = TraceLog.record(spec)
    run_scenario(spec, trace=recorded)
    replay = TraceLog.replay_of(recorded)
    run_scenario(spec, trace=replay)
    assert replay.equivalent, [str(d) for d in replay.divergences]


# -- divergence detection -----------------------------------------------------


def _recorded_httpd_trace():
    spec = default_spec(
        "httpd",
        faults=[{"site": "transfer.memory", "probability": 0.5, "seed": 3}],
        workload={"requests": 8, "concurrency": 1, "jitter_ns": 40_000},
        holders=0,
    )
    trace = TraceLog.record(spec)
    run_scenario(spec, trace=trace)
    assert trace.draws, "fixture needs at least one RNG draw to tamper with"
    return spec, trace


def test_tampered_draw_is_reported_as_divergence():
    spec, recorded = _recorded_httpd_trace()
    doctored = TraceLog.from_dict(recorded.to_dict())
    doctored.draws[0][2] = 0.123456789  # not what the stream will produce
    replay = TraceLog.replay_of(doctored)
    run_scenario(spec, trace=replay)
    assert not replay.equivalent
    assert any(d.kind == "rng" for d in replay.divergences)


def test_tampered_final_clock_is_reported_as_divergence():
    spec, recorded = _recorded_httpd_trace()
    doctored = TraceLog.from_dict(recorded.to_dict())
    doctored.final["clock_ns"] += 1
    replay = TraceLog.replay_of(doctored)
    run_scenario(spec, trace=replay)
    assert not replay.equivalent
    assert any(d.kind == "final" and "clock_ns" in d.where
               for d in replay.divergences)


def test_scheduler_checkpoints_fire_and_catch_a_flipped_crc(tmp_path):
    """No recorded scenario reaches ``DEFAULT_CHECKPOINT_INTERVAL`` picks,
    so the scheduler checkpoints are exercised on a short interval: they
    replay equal, and one flipped CRC bit is exactly one divergence, at
    that checkpoint, in the exported report too."""
    spec = default_spec("simple")
    recorded = TraceLog(spec, checkpoint_interval=16)
    run_scenario(spec, trace=recorded)
    assert len(recorded.checkpoints) == 5  # 81 picks
    replay = TraceLog.replay_of(recorded)
    run_scenario(spec, trace=replay)
    assert replay.equivalent, [str(d) for d in replay.divergences]
    assert replay.checkpoints == recorded.checkpoints

    honest = list(recorded.checkpoints[1])
    recorded.checkpoints[1][3] ^= 1
    recorded.save(str(tmp_path / "flipped.trace.json"))
    report = replay_path(recorded.path, export=str(tmp_path / "replayed"))
    expected = [
        {"kind": "sched", "where": "checkpoint[1]",
         "expected": recorded.checkpoints[1], "actual": honest},
    ]
    assert not report.equivalent and report.divergences == expected
    exported = json.loads((tmp_path / "replayed.report.json").read_text())
    assert exported["divergences"] == expected


def test_divergences_never_raise_out_of_the_update():
    """Replay mismatches are collected, not raised: the safety property
    under test (live_update never throws) must hold during replay too."""
    spec, recorded = _recorded_httpd_trace()
    doctored = TraceLog.from_dict(recorded.to_dict())
    for draw in doctored.draws:
        draw[2] = 0.5
    replay = TraceLog.replay_of(doctored)
    outcome = run_scenario(spec, trace=replay)  # must not raise
    assert outcome.raised is None
    assert not replay.equivalent


# -- trace files, blackbox pairing, the CLI ----------------------------------


def test_trace_save_load_round_trip(tmp_path):
    spec = default_spec("simple")
    recorded = TraceLog.record(spec)
    run_scenario(spec, trace=recorded)
    path = tmp_path / "run.trace.json"
    recorded.save(str(path))
    loaded = TraceLog.load(str(path))
    assert loaded.to_dict() == recorded.to_dict()
    # Canonical JSON: saving the loaded trace is byte-identical.
    second = tmp_path / "again.trace.json"
    loaded.save(str(second))
    assert path.read_bytes() == second.read_bytes()


def test_blackbox_embeds_trace_reference_and_replays(tmp_path):
    from repro.bench.faultmatrix import run_cell

    blackbox = tmp_path / "cell_blackbox.json"
    trace_path = tmp_path / "cell_blackbox.trace.json"
    cell = run_cell(
        "simple",
        "transfer.memory",
        blackbox_path=str(blackbox),
        trace_path=str(trace_path),
    )
    assert cell["blackbox"] and blackbox.exists() and trace_path.exists()
    payload = json.loads(blackbox.read_text())
    assert payload["trace"]["format"] == "repro-trace-v1"
    assert payload["trace"]["path"] == str(trace_path)
    report = replay_path(str(blackbox), to_failure=True)
    assert report.equivalent
    assert report.failure_site_recorded == "transfer.memory"
    assert report.failure_site_replayed == "transfer.memory"
    assert report.open_spans  # the span stack parked at the failure


def test_blackbox_without_trace_reference_is_rejected(tmp_path):
    bogus = tmp_path / "plain_blackbox.json"
    bogus.write_text(json.dumps({"reason": "rollback", "entries": []}))
    with pytest.raises(ValueError):
        Replayer(str(bogus))


def test_replayer_falls_back_to_inline_scenario(tmp_path):
    """If the trace file vanished, the embedded spec still re-executes
    (degraded outcome-identity mode, keyed on the failure site)."""
    from repro.bench.faultmatrix import run_cell

    blackbox = tmp_path / "bb.json"
    trace_path = tmp_path / "bb.trace.json"
    run_cell(
        "simple",
        "transfer.memory",
        blackbox_path=str(blackbox),
        trace_path=str(trace_path),
    )
    os.unlink(trace_path)
    report = replay_path(str(blackbox))
    assert report.mode == "scenario"
    assert report.equivalent
    assert report.failure_site_replayed == "transfer.memory"


def test_replay_export_writes_chrome_trace_and_report(tmp_path):
    spec = default_spec("simple", faults=[{"site": "commit.prepare", "nth": 1}])
    recorded = TraceLog.record(spec)
    run_scenario(spec, trace=recorded, trace_path=str(tmp_path / "t.trace.json"))
    recorded.save(recorded.path)
    base = tmp_path / "export"
    report = replay_path(recorded.path, export=str(base))
    assert report.equivalent
    chrome = json.loads((tmp_path / "export.chrome.json").read_text())
    assert chrome["traceEvents"]
    summary = json.loads((tmp_path / "export.report.json").read_text())
    assert summary["equivalent"] is True


def test_cli_replay_cross_process(tmp_path):
    """The acceptance path: a recorded trace replays bit-identically to
    the same failure site in a *fresh interpreter*."""
    spec = default_spec("simple", faults=[{"site": "transfer.memory", "nth": 1}])
    recorded = TraceLog.record(spec)
    run_scenario(spec, trace=recorded, trace_path=str(tmp_path / "x.trace.json"))
    recorded.save(recorded.path)
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "replay", recorded.path, "--to-failure"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "replay EQUIVALENT" in proc.stdout
    assert "recorded=transfer.memory replayed=transfer.memory" in proc.stdout


# -- the randomness lint ------------------------------------------------------

# The only module allowed to import the stdlib ``random``: the choke
# point itself.  Everything else must draw through a named RngStream so
# record/replay sees it.
_RANDOM_IMPORT_ALLOWLIST = {Path("repro") / "replay" / "rng.py"}


def _imports_of(tree: ast.AST, module: str):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == module:
                    yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == module:
                yield node.lineno


def test_lint_no_adhoc_random_outside_the_choke_point():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        if relative in _RANDOM_IMPORT_ALLOWLIST:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders.extend(f"{relative}:{line}" for line in _imports_of(tree, "random"))
    assert not offenders, (
        "ad-hoc `import random` outside repro.replay.rng breaks "
        f"record/replay; route draws through RngStream: {offenders}"
    )


# -- the one-scan-engine lint ---------------------------------------------------

# Names of the removed scan-path selectors: the engine has no options.
_REMOVED_SCAN_KNOBS = ("fast_scan", "incremental_scan", "REPRO_SCAN_BACKEND")


def test_lint_scan_engine_has_no_selectors():
    sources = {
        path.relative_to(SRC_ROOT): path.read_text()
        for path in sorted(SRC_ROOT.rglob("*.py"))
    }
    offenders = [
        f"{relative}: {knob}"
        for relative, text in sources.items()
        for knob in _REMOVED_SCAN_KNOBS
        if knob in text
    ]
    assert not offenders, f"scan-path selectors are back: {offenders}"
    # There is one classifier; nothing in the environment reaches it.
    backend = SRC_ROOT / "repro" / "mem" / "scan_backend.py"
    tree = ast.parse(backend.read_text(), filename=str(backend))
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not list(_imports_of(tree, "os")) and not names & {"environ", "getenv"}


_IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
importlib.import_module("repro.cli")
from repro.mem import scan_backend
print("numpy" in sys.modules, scan_backend.ACTIVE.name)
"""


def test_no_module_loads_numpy():
    # Every process pays for what any repro module imports; the scan
    # classifier is the standard library's whether or not numpy is installed.
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_ROOT)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "stdlib"]


def test_divergence_renders_its_context():
    d = Divergence("draw", "faults.transfer.memory[0]", 0.25, 0.75)
    text = str(d)
    assert "faults.transfer.memory[0]" in text
    assert "0.25" in text and "0.75" in text
