"""Exports: plain JSON and Chrome ``trace_event`` format.

``chrome_trace`` renders one collector's span tree as Chrome
``trace_event`` *complete* events plus instant events and final counter
samples, so one update attempt opens as a timeline in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

All output is rendered with ``to_json`` (sorted keys, fixed indent), so
deterministic inputs — and everything stamped by the virtual clock is
deterministic — produce byte-for-byte identical files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.obs.spans import Span

# trace_event timestamps are microseconds; virtual stamps are integer ns.
_NS_PER_US = 1000.0


def spans_to_trace_events(roots: Iterable[Span]) -> List[Dict[str, Any]]:
    """Flatten span trees into Chrome 'X' (complete) events."""
    events: List[Dict[str, Any]] = []
    for root in roots:
        for span in root.walk():
            events.append(
                {
                    "name": span.name,
                    "cat": "mcr",
                    "ph": "X",
                    "ts": span.start_ns / _NS_PER_US,
                    "dur": span.duration_ns / _NS_PER_US,
                    "pid": 1,
                    "tid": 1,
                    "args": dict(span.attrs, status=span.status),
                }
            )
    return events


def chrome_trace(collector, process_name: str = "repro") -> Dict[str, Any]:
    """One collector as a Chrome trace_event JSON document."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    events.extend(spans_to_trace_events(collector.spans.roots))
    for event in collector.events:
        events.append(
            {
                "name": event.name,
                "cat": "events",
                "ph": "i",
                "s": "g",
                "ts": event.ts_ns / _NS_PER_US,
                "pid": 1,
                "tid": 1,
                "args": dict(event.payload, severity=event.severity),
            }
        )
    # Flight-recorder gauge samples become counter tracks *over time*, so
    # runnable threads / heap occupancy / dirty faults render as series
    # right under the span timeline.
    recorder = getattr(collector, "recorder", None)
    if recorder is not None:
        for entry in recorder.entries():
            if entry.kind != "sample":
                continue
            events.append(
                {
                    "name": f"flight.{entry.name}",
                    "cat": "counters",
                    "ph": "C",
                    "ts": entry.ts_ns / _NS_PER_US,
                    "pid": 1,
                    "tid": 1,
                    "args": dict(sorted(entry.payload.items())),
                }
            )
    now_us = collector.clock.now_ns / _NS_PER_US
    for name, value in collector.counters.snapshot().items():
        events.append(
            {
                "name": name,
                "cat": "counters",
                "ph": "C",
                "ts": now_us,
                "pid": 1,
                "tid": 1,
                "args": {"value": value},
            }
        )
    # Histogram summaries sample once at end-of-trace: count + percentiles.
    metrics = getattr(collector, "metrics", None)
    if metrics is not None:
        for name in metrics.names():
            summary = metrics.get(name).summary()
            events.append(
                {
                    "name": f"hist.{name}",
                    "cat": "metrics",
                    "ph": "C",
                    "ts": now_us,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "count": summary["count"],
                        "p50": summary["p50"],
                        "p95": summary["p95"],
                        "p99": summary["p99"],
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def to_json(payload: Any) -> str:
    """Canonical JSON text: sorted keys, stable indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"


def write_json(path: str, payload: Any) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(payload))
    return path
