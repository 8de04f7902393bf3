"""Re-execute a recorded run and assert bit-identical equivalence.

The ``Replayer`` takes either artifact a failed (or healthy) run leaves
behind:

* a **trace file** (``TraceLog.save`` output) — the full recording:
  scenario spec, every RNG draw, scheduler checkpoints, final
  observables; replay verifies all of them as the run re-executes.
* a **blackbox.json** (the controller's post-mortem dump) — it embeds a
  trace *reference*: the scenario spec inline plus the path of the trace
  file written next to it.  When the trace file is still there the full
  recording is used; when it is gone, the run is re-executed from the
  spec alone and the verdict degrades to outcome-identity (same
  ``failure_site``) — stated as such in the report, never silently.

``run(to_failure=True)`` stops right after the update attempt: no probe,
no teardown — the world halts in the state the failing fault site left
it, with the open span stack and the last flight-recorder entries
describing the failure.  ``export`` dumps the re-executed run's Chrome
trace (and the at-failure span stack) next to the given prefix for
Perfetto.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.export import chrome_trace, write_json
from repro.replay.trace import TraceLog
from repro.scenario import run_scenario


class ReplayReport:
    """The verdict of one replay: equivalent or diverged, and where."""

    def __init__(
        self,
        source: str,
        mode: str,
        scenario: Dict[str, Any],
    ) -> None:
        self.source = source
        # "trace" = full recording verified; "scenario" = trace file was
        # unavailable, outcome-identity only.
        self.mode = mode
        self.scenario = scenario
        self.equivalent = False
        self.divergences: List[Dict[str, Any]] = []
        self.to_failure = False
        self.failure_site_recorded: Optional[str] = None
        self.failure_site_replayed: Optional[str] = None
        self.clock_ns = 0
        self.picks = 0
        self.draws = 0
        self.open_spans: List[str] = []
        self.exports: List[str] = []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "mode": self.mode,
            "equivalent": self.equivalent,
            "to_failure": self.to_failure,
            "failure_site_recorded": self.failure_site_recorded,
            "failure_site_replayed": self.failure_site_replayed,
            "clock_ns": self.clock_ns,
            "picks": self.picks,
            "draws": self.draws,
            "divergences": self.divergences,
            "open_spans": self.open_spans,
            "exports": self.exports,
            "scenario": self.scenario,
        }

    def render(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "DIVERGED"
        spec = self.scenario
        lines = [
            f"replay {verdict}: {spec.get('server')} x {spec.get('mode')} "
            f"seed={spec.get('seed')} "
            f"({self.mode} verification{', to-failure' if self.to_failure else ''})",
            f"  virtual clock {self.clock_ns} ns, {self.picks} scheduler picks, "
            f"{self.draws} rng draws",
        ]
        if self.failure_site_recorded or self.failure_site_replayed:
            lines.append(
                f"  failure site: recorded={self.failure_site_recorded} "
                f"replayed={self.failure_site_replayed}"
            )
        if self.open_spans:
            lines.append(f"  open spans at failure: {' > '.join(self.open_spans)}")
        for entry in self.divergences:
            lines.append(
                f"  divergence [{entry['kind']}] {entry['where']}: "
                f"expected {entry['expected']!r}, got {entry['actual']!r}"
            )
        for path in self.exports:
            lines.append(f"  exported {path}")
        return "\n".join(lines)


def _looks_like_blackbox(payload: Dict[str, Any]) -> bool:
    return "entries" in payload or "reason" in payload


class Replayer:
    """Load a recorded run (trace file or blackbox.json) and re-execute it."""

    def __init__(self, source_path: str) -> None:
        self.source_path = str(source_path)
        with open(source_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        self.recorded: Optional[TraceLog] = None
        self.scenario: Dict[str, Any]
        self.blackbox: Optional[Dict[str, Any]] = None
        if _looks_like_blackbox(payload):
            self.blackbox = payload
            reference = payload.get("trace")
            if not reference:
                raise ValueError(
                    f"{source_path} has no embedded trace reference — "
                    "recorded runs require the update to run under a TraceLog"
                )
            self.scenario = dict(reference["scenario"])
            trace_path = reference.get("path")
            if trace_path and not os.path.isabs(trace_path):
                trace_path = os.path.join(
                    os.path.dirname(os.path.abspath(source_path)), trace_path
                )
            if trace_path and os.path.exists(trace_path):
                self.recorded = TraceLog.load(trace_path)
        else:
            self.recorded = TraceLog.from_dict(payload)
            self.recorded.path = self.source_path
            self.scenario = dict(self.recorded.scenario)

    # -- execution ------------------------------------------------------------

    def run(
        self,
        to_failure: bool = False,
        export: Optional[str] = None,
    ) -> ReplayReport:
        mode = "trace" if self.recorded is not None else "scenario"
        report = ReplayReport(self.source_path, mode, self.scenario)
        report.to_failure = to_failure
        if self.recorded is not None:
            trace = TraceLog.replay_of(self.recorded)
            report.failure_site_recorded = self.recorded.final.get("failure_site")
        else:
            # Trace file gone: re-record from the embedded spec and compare
            # the one outcome the black box itself asserts.
            trace = TraceLog.record(self.scenario)
            report.failure_site_recorded = (
                self.blackbox.get("failure_site") if self.blackbox else None
            )
        outcome = run_scenario(
            self.scenario, trace=trace, until_failure=to_failure
        )
        result = outcome.result
        report.failure_site_replayed = result.failure_site if result else None
        report.clock_ns = outcome.kernel.clock.now_ns
        report.picks = trace._picks
        report.draws = len(trace.draws)
        if trace.mode == "replay":
            report.divergences = [d.to_dict() for d in trace.divergences]
            report.equivalent = trace.equivalent
        else:
            report.equivalent = (
                outcome.raised is None
                and report.failure_site_replayed == report.failure_site_recorded
            )
            if not report.equivalent:
                report.divergences = [
                    {
                        "kind": "final",
                        "where": "failure_site",
                        "expected": report.failure_site_recorded,
                        "actual": report.failure_site_replayed,
                    }
                ]
        # The open span stack at the point of failure (the controller
        # records it into the black box it dumps on any failed attempt).
        if result is not None and result.blackbox is not None:
            report.open_spans = list(result.blackbox.get("open_spans", ()))
        if export:
            base = export
            if base.endswith(".json"):
                base = base[: -len(".json")]
            trace_out = write_json(
                f"{base}.chrome.json",
                chrome_trace(
                    outcome.collector,
                    process_name=f"replay:{self.scenario.get('server')}",
                ),
            )
            report.exports.append(trace_out)
            report.exports.append(
                write_json(f"{base}.report.json", report.to_dict())
            )
        return report


def replay_path(
    source_path: str,
    to_failure: bool = False,
    export: Optional[str] = None,
) -> ReplayReport:
    """One-call convenience: load ``source_path`` and re-execute it."""
    return Replayer(source_path).run(to_failure=to_failure, export=export)
