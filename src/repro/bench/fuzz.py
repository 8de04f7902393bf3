"""Randomized update fuzzing with replay-equivalence as the oracle.

Each iteration draws a random scenario — server × update mode × fault
plan × workload shape (request counts, concurrency, client think-time
jitter, held connections) — from a seeded master stream, **records** the
run, and checks it two ways:

* **invariants** — the paper's safety property as
  ``ScenarioOutcome.violations`` judges it for the fault matrix too: the
  update never raises, ends in exactly one of {committed, rolled back}, a
  rollback is fingerprint-verified and leaves a black box, and the
  surviving version answers a probe with zero errors;
* **replay equivalence** — the recorded trace re-executes bit-
  identically (every draw, scheduler checkpoints, virtual clock, span
  tree, fingerprint).  A mismatch means hidden nondeterminism leaked
  into the tree — exactly the class of bug this harness exists to catch.

Any failing iteration is **shrunk**: a fixed ladder of simplifying
transformations (drop jitter, drop holders, single client, minimal
request count, whole-tree instead of rolling, deterministic instead of
probabilistic fault, no fault) is applied greedily, keeping each change
only while the failure reproduces.  The minimal scenario is then
re-verified by a fresh record+replay pair and reported with its seed and
trace so ``python -m repro replay`` reproduces it from the artifact
alone.

Wired into the CLI as ``python -m repro bench fuzz [--smoke] [--seed N]
[--json]``, which exits 1 when a ``verdicts`` entry fails; CI runs the
smoke soak and uploads any minimized failure.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.reporting import render_table
from repro.mcr.controller import arm
from repro.mcr.faults import UPDATE_SITES, FaultPlan
from repro.replay.rng import RngStream, derive_seed
from repro.replay.trace import TraceLog
from repro.scenario import default_spec, run_scenario
from repro.servers.catalog import CATALOG

FULL_ITERATIONS = 24
SMOKE_ITERATIONS = 6

# Update-pipeline sites the fuzzer arms (the checkpoint plane has its
# own failover drills), each armed through ``arm``.
_FUZZ_SITES = tuple(UPDATE_SITES)

# An explicit tuple, not ``tuple(CATALOG)``: ``master.choice`` indexes it,
# so its length and order are part of what every seed means.
_FUZZ_SERVERS = ("simple", "httpd", "nginx", "vsftpd", "memcache")

# Rolling mode only means something for the multi-worker pools.
_ROLLING_SERVERS = ("httpd", "nginx")


def draw_spec(master: RngStream) -> Dict[str, Any]:
    """One random scenario spec, fully determined by the master stream."""
    server = master.choice(_FUZZ_SERVERS)
    mode = "whole-tree"
    if server in _ROLLING_SERVERS and master.random() < 0.5:
        mode = "rolling"
    # Fault plan: 1/4 clean update, else one site as ``arm`` plans it.
    faults: List[Dict[str, Any]] = []
    if master.random() < 0.75:
        site = master.choice(_FUZZ_SITES)
        faults = arm(site).to_spec()
        if faults == FaultPlan().at(site).to_spec():
            # Armed plainly: draw its trigger, deterministic or probabilistic.
            if master.random() < 0.3:
                faults = [
                    {
                        "site": site,
                        "probability": round(0.3 + 0.6 * master.random(), 3),
                        "seed": master.randint(0, 2**16),
                    }
                ]
            else:
                faults = [{"site": site, "nth": master.randint(1, 2), "times": 1}]
    workload: Dict[str, Any] = {}
    if server in ("httpd", "nginx"):
        workload["requests"] = master.randint(8, 40)
        workload["concurrency"] = master.randint(1, 3)
        if master.random() < 0.5:
            workload["jitter_ns"] = master.randint(1, 8) * 25_000
    elif server == "vsftpd":
        workload["users"] = master.randint(1, 4)
        workload["retrievals"] = master.randint(1, 2)
    else:
        workload["clients"] = master.randint(1, 3)
    holders = None
    if CATALOG[server].holder_kind is not None:
        holders = master.randint(0, 3)
    return default_spec(
        server,
        mode=mode,
        seed=master.randint(0, 2**31),
        faults=faults,
        workload=workload,
        holders=holders,
    )


def check_spec(
    spec: Dict[str, Any],
    trace_path: Optional[str] = None,
    blackbox_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Record ``spec``, replay it, and evaluate every invariant.

    Returns a verdict dict; ``ok`` is True only when all invariants hold
    *and* the replay is bit-identical.  Never raises for in-scenario
    failures — an unexpected exception is itself an invariant violation.
    """
    verdict: Dict[str, Any] = {"spec": spec, "ok": False, "problems": []}
    problems: List[str] = verdict["problems"]
    recorded = TraceLog.record(spec)
    try:
        outcome = run_scenario(
            spec,
            trace=recorded,
            trace_path=trace_path,
            blackbox_path=blackbox_path,
        )
    except Exception as error:
        problems.append(f"run_scenario raised {error!r}")
        return verdict
    problems.extend(outcome.violations())
    verdict.update(outcome.update._asdict())
    verdict["fired"] = [s for s, _hit in outcome.plan.injected]
    verdict["clock_ns"] = recorded.final.get("clock_ns")
    verdict["draws"] = len(recorded.draws)
    # The replay-equivalence oracle.
    replay = TraceLog.replay_of(recorded)
    try:
        run_scenario(spec, trace=replay)
    except Exception as error:
        problems.append(f"replay raised {error!r}")
    else:
        if not replay.equivalent:
            problems.append(
                "replay diverged: "
                + "; ".join(str(d) for d in replay.divergences[:3])
            )
            verdict["divergences"] = [d.to_dict() for d in replay.divergences]
    verdict["ok"] = not problems
    return verdict


# Each shrink step maps a spec to a strictly simpler candidate (or None
# when it no longer applies).  Applied greedily, re-verified every time.
def _drop_jitter(spec):
    if spec["workload"].get("jitter_ns"):
        out = copy.deepcopy(spec)
        out["workload"].pop("jitter_ns")
        return out
    return None


def _drop_holders(spec):
    if spec.get("holders"):
        out = copy.deepcopy(spec)
        out["holders"] = 0
        return out
    return None


def _single_client(spec):
    wl = spec["workload"]
    for key in ("concurrency", "clients", "users"):
        if wl.get(key, 1) > 1:
            out = copy.deepcopy(spec)
            out["workload"][key] = 1
            return out
    return None


def _minimal_requests(spec):
    wl = spec["workload"]
    for key, floor in (("requests", 2), ("operations", 2), ("retrievals", 1)):
        if wl.get(key, floor) > floor:
            out = copy.deepcopy(spec)
            out["workload"][key] = floor
            return out
    return None


def _whole_tree(spec):
    if spec.get("mode") == "rolling":
        out = copy.deepcopy(spec)
        out["mode"] = "whole-tree"
        return out
    return None


def _deterministic_fault(spec):
    if any("probability" in arm for arm in spec.get("faults", ())):
        out = copy.deepcopy(spec)
        out["faults"] = [
            {"site": arm["site"], "nth": 1, "times": 1}
            if "probability" in arm
            else arm
            for arm in out["faults"]
        ]
        return out
    return None


def _no_fault(spec):
    if spec.get("faults"):
        out = copy.deepcopy(spec)
        out["faults"] = []
        return out
    return None


SHRINK_LADDER = (
    ("drop-jitter", _drop_jitter),
    ("drop-holders", _drop_holders),
    ("single-client", _single_client),
    ("minimal-requests", _minimal_requests),
    ("whole-tree", _whole_tree),
    ("deterministic-fault", _deterministic_fault),
    ("no-fault", _no_fault),
)
# Record+replay checks one shrink may spend before it stops.
SHRINK_MAX_CHECKS = 16


def shrink_spec(spec: Dict[str, Any]) -> Tuple[Dict[str, Any], List[str], int]:
    """Greedily minimize a failing spec; the failure must keep reproducing.

    Returns ``(minimal_spec, applied_step_names, checks_spent)``.  Each
    candidate is re-verified with a full record+replay check; a step is
    kept only if the simplified spec still fails.
    """
    current = spec
    applied: List[str] = []
    checks = 0
    progress = True
    while progress and checks < SHRINK_MAX_CHECKS:
        progress = False
        for name, step in SHRINK_LADDER:
            if checks >= SHRINK_MAX_CHECKS:
                break
            candidate = step(current)
            if candidate is None:
                continue
            checks += 1
            if not check_spec(candidate)["ok"]:
                current = candidate
                applied.append(name)
                progress = True
    return current, applied, checks


def run_fuzz(
    smoke: bool = False,
    seed: int = 0,
    iterations: Optional[int] = None,
    artifact_prefix: str = "FUZZ",
) -> Dict[str, Any]:
    """The soak: draw, record, verify; shrink and re-verify any failure."""
    count = iterations if iterations is not None else (
        SMOKE_ITERATIONS if smoke else FULL_ITERATIONS
    )
    master = RngStream("fuzz.master", derive_seed(seed, "fuzz.master"))
    runs: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    for index in range(count):
        spec = draw_spec(master)
        verdict = check_spec(spec)
        run_row = {
            "iteration": index,
            "server": spec["server"],
            "mode": spec["mode"],
            "sites": [arm["site"] for arm in spec["faults"]],
            "seed": spec["seed"],
            "ok": verdict["ok"],
            "committed": verdict.get("committed"),
            "failure_site": verdict.get("failure_site"),
            "draws": verdict.get("draws"),
            "problems": verdict["problems"],
        }
        runs.append(run_row)
        if verdict["ok"]:
            continue
        minimal, applied, checks = shrink_spec(spec)
        # Re-verify the minimized spec with its artifacts on disk so the
        # failure is reproducible from the uploaded files alone.
        final = check_spec(
            minimal,
            trace_path=f"{artifact_prefix}_minimal_{index}.trace.json",
            blackbox_path=f"{artifact_prefix}_minimal_{index}_blackbox.json",
        )
        failures.append(
            {
                "iteration": index,
                "original_spec": spec,
                "minimal_spec": minimal,
                "shrink_steps": applied,
                "shrink_checks": checks,
                "still_fails_minimized": not final["ok"],
                "problems": final["problems"] or verdict["problems"],
                "trace": f"{artifact_prefix}_minimal_{index}.trace.json",
            }
        )
    results = {
        "smoke": smoke,
        "seed": seed,
        "iterations": count,
        "runs": runs,
        "failures": failures,
    }
    results["all_ok"] = verdicts(results)["all_ok"]
    return results


def verdicts(results: Dict[str, Any]) -> Dict[str, bool]:
    """The soak ran, and every scenario held every invariant and replayed
    bit-identically."""
    return {
        "ran": bool(results["runs"]),
        "all_ok": all(row["ok"] for row in results["runs"]),
    }


def render(results: Dict[str, Any]) -> str:
    parts = [
        render_table(
            "Update fuzzing: random server x mode x fault x workload, "
            "replay-verified",
            [
                ("iter", "iteration"), "server", "mode",
                ("sites", lambda row: "+".join(row["sites"]) or None),
                "seed", "draws", ("failure", "failure_site"),
                "ok",
            ],
            results["runs"],
            note=(
                f"seed={results['seed']}; "
                "ok = every invariant held AND the recorded trace replayed "
                "bit-identically"
            ),
        )
    ]
    for failure in results["failures"]:
        parts.append("")
        parts.append(
            f"FAILURE at iteration {failure['iteration']}: "
            f"{'; '.join(failure['problems'][:3])}"
        )
        parts.append(
            f"  minimized via {', '.join(failure['shrink_steps']) or '(nothing)'}"
            f" -> {failure['minimal_spec']}"
        )
        parts.append(
            f"  reproduce: python -m repro replay {failure['trace']}"
        )
    return "\n".join(parts)
