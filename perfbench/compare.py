"""Compare two sets of perfbench runs: same / better / worse / unresolved.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result envelopes written by ``run.py --out`` (or by
``run.py`` with all workloads), or directories holding one envelope per
run.  For every workload and metric present on both sides:

* metrics on the virtual clock, counts and sizes must repeat exactly for
  the same seed: they are compared seed by seed (the seed shapes the
  inputs, so two seeds may well differ), any difference between the sides
  is ``better`` or ``worse`` by the metric's direction, two runs of one
  side that share a seed and differ are ``worse``, and with no seed on
  both sides the metric is ``unresolved``;
* end-to-end host metrics are held to their bound in BENCHMARK.json:
  worse by more than the bound is ``worse``; every run of the change
  ahead of every run of the base is ``better``; otherwise a difference is
  ``unresolved`` when the base's own spread is wider than the bound,
  ``better`` when the change improved by more than that spread (a known,
  non-zero one) and won at least nine tenths of the pairs, else ``same``;
* per-layer host metrics have no bound and are listed as ``info``.

The base's spread is the interquartile range of the metric over the
base's runs; with a single run it is the quartiles of that run's
iterations (``iter_host_s`` only).  Exit code 1 on any ``worse`` or a
higher share of failed operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from run import load_spec

# Units of metrics that repeat exactly (virtual clock, counts, sizes):
# held to equality; every other unit is host-clock and held to a bound.
EXACT_UNITS = frozenset({"virt_ms", "count", "ratio", "MB", "KB"})
WIN_SHARE = 0.9


def load_side(path: str) -> List[Dict[str, Any]]:
    paths = (
        sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
        if os.path.isdir(path) else [path]
    )
    if not paths:
        raise SystemExit(f"{path}: no envelopes")
    sides = []
    for each in paths:
        with open(each, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    return sides


def values_of(run: Dict[str, Any]) -> Dict[str, float]:
    """Every number one workload's run reported, by metric name."""
    flat = dict(run["report"].get("results", {}))
    flat.update({name: cell["value"] for name, cell in run["metrics"].items()})
    return flat


def _iqr_share(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q[2] - q[0]) / middle if middle else 0.0


def _worsening(metric: Dict[str, Any], base: List[float], change: List[float]) -> float:
    """How much worse the change's median is, as a share of the base's."""
    a, b = statistics.median(base), statistics.median(change)
    sign = 1 if metric["better"] == "lower" else -1
    return sign * (b - a) / a if a else (0.0 if b == a else sign * float("inf"))


def _by_seed(runs: List[Tuple[int, float]]) -> Dict[int, List[float]]:
    grouped: Dict[int, List[float]] = {}
    for seed, value in runs:
        grouped.setdefault(seed, []).append(value)
    return grouped


def exact_verdict(
    metric: Dict[str, Any],
    base: List[Tuple[int, float]],
    change: List[Tuple[int, float]],
) -> Tuple[str, float]:
    """Verdict for a metric that repeats exactly; sides are (seed, value) runs.

    The seed shapes the inputs, so only runs of the same seed are held
    to equality, within a side and across the two.
    """
    a, b = _by_seed(base), _by_seed(change)
    common = sorted(set(a) & set(b))
    if not common:
        return "unresolved", 0.0  # nothing ran the same inputs on both sides
    worsening = _worsening(
        metric, [a[seed][0] for seed in common], [b[seed][0] for seed in common]
    )
    if any(len(set(values)) > 1 for values in (*a.values(), *b.values())):
        return "worse", worsening  # one seed, one side, two values: not repeating
    sign = 1 if metric["better"] == "lower" else -1
    moves = [sign * (b[seed][0] - a[seed][0]) for seed in common]
    if any(move > 0 for move in moves):
        return "worse", worsening
    return ("better" if any(move < 0 for move in moves) else "same"), worsening


def verdict(
    metric: Dict[str, Any],
    base: List[float],
    change: List[float],
    single_run_spread: float = 0.0,
) -> Tuple[str, float]:
    """(verdict, worsening as a share of the base median) for a host-clock metric."""
    worsening = _worsening(metric, base, change)
    sign = 1 if metric["better"] == "lower" else -1
    bound = metric.get("bound")
    if bound is None:
        return "info", worsening
    if worsening > bound:
        return "worse", worsening
    spread = _iqr_share(base) if len(base) > 1 else single_run_spread
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if len(base) > 1 and all(sign * (y - x) < 0 for x in base for y in change):
        return "better", worsening  # every run of the change beats every base run
    if spread > bound:
        return "unresolved", worsening
    if not spread:
        return "same", worsening  # one run, no spread known: no gain can be claimed
    if worsening < 0 and -worsening > spread and wins >= WIN_SHARE * len(pairs):
        return "better", worsening
    return "same", worsening


def _runs_of(
    side: List[Dict[str, Any]], workload: str
) -> Tuple[List[Dict[str, Any]], List[int]]:
    """One side's runs of ``workload`` and the seed of each."""
    having = [e for e in side if workload in e["workloads"]]
    return [e["workloads"][workload] for e in having], [e["seed"] for e in having]


def compare(
    base: List[Dict[str, Any]], change: List[Dict[str, Any]], spec: Dict[str, Any]
) -> Tuple[List[Tuple[str, str, str, float, float, float]], bool]:
    """Rows of (workload, metric, verdict, base, change, worsening); failed?"""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, a_seeds = _runs_of(base, workload)
        b_runs, b_seeds = _runs_of(change, workload)
        if not a_runs or not b_runs:
            continue
        a_share = sum(r["failed"] for r in a_runs) / sum(r["attempted"] for r in a_runs)
        b_share = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        failing = "worse" if b_share > a_share else "same"
        rows.append((workload, "ops_failed_share", failing, a_share, b_share, b_share - a_share))
        regressed |= failing == "worse"
        a_values = [values_of(r) for r in a_runs]
        b_values = [values_of(r) for r in b_runs]
        for name, metric in declared.items():
            if not all(name in v for v in a_values + b_values):
                continue
            single = 0.0
            if name == "iter_host_s" and len(a_runs) == 1:
                p25, p50, p75 = a_runs[0]["report"]["iter_host_s_quartiles"]
                single = (p75 - p25) / p50
            a_column = [v[name] for v in a_values]
            b_column = [v[name] for v in b_values]
            if metric["unit"] in EXACT_UNITS:
                outcome, worsening = exact_verdict(
                    metric, list(zip(a_seeds, a_column)), list(zip(b_seeds, b_column))
                )
            else:
                outcome, worsening = verdict(metric, a_column, b_column, single)
            rows.append((
                workload, name, outcome,
                statistics.median(v[name] for v in a_values),
                statistics.median(v[name] for v in b_values),
                worsening,
            ))
            regressed |= outcome == "worse"
    return rows, regressed


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows, regressed = compare(load_side(argv[0]), load_side(argv[1]), load_spec())
    for workload, name, outcome, a, b, worsening in rows:
        flag = "" if outcome in ("same", "info") else "  <--"
        print(f"{workload:18s} {name:40s} {outcome:10s} "
              f"{a:16.6f} -> {b:16.6f}  ({worsening:+.2%} worse){flag}")
    print("REGRESSED" if regressed else "OK")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
