"""``repro.obs`` — the unified observability spine.

One ``Collector`` bundles the three recording surfaces over *virtual*
time:

* ``spans``    — nested phase timings (``repro.obs.spans``),
* ``counters`` — named monotonic counters/gauges (``repro.obs.counters``),
* ``events``   — a bounded ring-buffer event log (``repro.obs.events``),

with exporters in ``repro.obs.export`` (plain JSON and Chrome
``trace_event`` for Perfetto).

Instrumentation is **always on but cheap**: hot paths (syscall dispatch,
allocator operations, scheduler decisions) read the module-level
``ACTIVE`` slot and do nothing when it is ``None``, which is the default.
Nothing in this package ever advances the virtual clock, so enabling a
collector changes no measured ratio — observability is free in virtual
time by construction.

``ACTIVE`` is the top of a **scope stack**, not a bare global: activating
a collector (``scoped``/``collecting``) pushes an entry, and
leaving a scope removes *that entry* wherever it sits in the stack.  That
makes activation safe for interleaved lifetimes — a fleet harness that
multiplexes many kernels in one process enters and exits per-node scopes
in arbitrary order, and each exit restores exactly the collector that
should be visible, never a stale snapshot of "whatever was active when I
started".

A live update always activates a collector — its black box and timing
breakdown are recorded through one: the caller's, an ambient one on the
same clock, else one of its own from ``Collector.private``.  Nothing
can read a private collector after the update, so it keeps only what
the update reads (spans, flight recorder); explicit and ambient ones
keep all.

Usage::

    with obs.collecting(kernel.clock) as collector:
        result = ctl.live_update(new_program)
    export.write_json(path, export.chrome_trace(collector))

    node_collector = obs.Collector(node.kernel.clock)
    with obs.scoped(node_collector):   # re-enterable, per-node
        node.kernel.run_for(window_ns)
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.clock import VirtualClock
from repro.obs.counters import CounterSet, DiscardingCounters
from repro.obs.events import DEFAULT_CAPACITY, BlackBoxLog, EventLog
from repro.obs.metrics import DiscardingMetrics, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "ACTIVE",
    "Collector",
    "Span",
    "SpanRecorder",
    "collecting",
    "emit",
    "gauge",
    "incr",
    "observe",
    "recorder_for",
    "scoped",
    "span",
]


class Collector:
    """Spans + counters + events + metrics recorded against one virtual clock.

    The event log hands every emitted event to the flight recorder, so
    its ring mirrors the event stream; the kernel scheduler additionally
    feeds it periodic gauge samples through ``FlightRecorder.tick``.
    """

    def __init__(self, clock: VirtualClock, max_events: int = DEFAULT_CAPACITY) -> None:
        self.clock = clock
        self.spans = SpanRecorder(clock)
        self.counters = CounterSet()
        self.events = EventLog(clock, capacity=max_events)
        self.metrics = MetricsRegistry()
        self.recorder = self.events.recorder = FlightRecorder(clock)

    @classmethod
    def private(cls, clock: VirtualClock) -> "Collector":
        """Spans and flight recorder as a full collector's; counters,
        metrics and event log that keep nothing.  For a collector whose
        only readers are its ``blackbox`` dump and span tree."""
        collector = cls(clock)
        collector.counters = DiscardingCounters()
        collector.metrics = DiscardingMetrics()
        collector.events = BlackBoxLog(clock, capacity=1)  # it keeps no ring
        collector.events.recorder = collector.recorder
        return collector

    def blackbox(
        self, reason: str, path: Optional[str] = None, **fields: Any
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        """Dump the flight recorder as a post-mortem, optionally to ``path``.

        The one black-box writer: failed updates, failed restores,
        refused promotions and aborted migrations all come through here.
        Returns the document and the path it reached (``None`` without a
        path or when the write failed).  The dump must never make a
        failure worse, so a write failure is one ``blackbox.write_failed``
        warn event, never an exception.
        """
        document = self.recorder.dump(reason, **fields)
        if not path:
            return document, None
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
        except (OSError, TypeError, ValueError) as error:
            self.events.emit(
                "blackbox.write_failed",
                severity="warn",
                path=str(path),
                error=repr(error),
            )
            return document, None
        return document, str(path)


# The active collector, or None (the no-op fast path).  Hot paths read
# this attribute directly: ``if obs.ACTIVE is not None: ...``.  It is
# always the collector of the top entry of ``_SCOPES`` (see below) and is
# only ever written by ``_sync_active``.
ACTIVE: Optional[Collector] = None


class _Scope:
    """One scope-stack entry.  Identity (not the collector) is the token:
    the same collector can be activated recursively, and each activation
    removes exactly its own entry on exit."""

    __slots__ = ("collector",)

    def __init__(self, collector: Collector) -> None:
        self.collector = collector


_SCOPES: List[_Scope] = []


def _sync_active() -> None:
    global ACTIVE
    ACTIVE = _SCOPES[-1].collector if _SCOPES else None


@contextmanager
def scoped(collector: Collector) -> Iterator[Collector]:
    """Activate ``collector`` for the duration of the block.

    Exits remove this activation's own stack entry rather than restoring
    a remembered predecessor, so interleaved (non-LIFO) scope lifetimes
    resolve correctly: closing an outer scope while an inner one is still
    open leaves the inner collector active, and closing the inner one
    then reveals whatever sits below it.
    """
    entry = _Scope(collector)
    _SCOPES.append(entry)
    _sync_active()
    try:
        yield collector
    finally:
        _SCOPES.remove(entry)
        _sync_active()


@contextmanager
def collecting(clock: VirtualClock, max_events: int = DEFAULT_CAPACITY) -> Iterator[Collector]:
    """Activate a fresh collector for the duration of the block."""
    with scoped(Collector(clock, max_events=max_events)) as collector:
        yield collector


def recorder_for(clock: VirtualClock) -> SpanRecorder:
    """The active collector's span recorder, or a standalone one.

    Span producers that must *always* record (the update controller
    derives its timing breakdown from spans) use this: when a collector
    is installed for the same clock they feed it, otherwise they get a
    private recorder whose tree still reaches the caller.
    """
    collector = ACTIVE
    if collector is not None and collector.clock is clock:
        return collector.spans
    return SpanRecorder(clock)


# -- no-op-when-disabled conveniences (for non-hot call sites) ----------------


def incr(name: str, delta: int = 1) -> None:
    collector = ACTIVE
    if collector is not None:
        collector.counters.incr(name, delta)


def gauge(name: str, value: Any) -> None:
    collector = ACTIVE
    if collector is not None:
        collector.counters.gauge(name, value)


def observe(name: str, value: Any) -> None:
    """Record one histogram observation on the active collector (or drop it)."""
    collector = ACTIVE
    if collector is not None:
        collector.metrics.observe(name, value)


def emit(name: str, severity: str = "info", **payload: Any) -> None:
    collector = ACTIVE
    if collector is not None:
        collector.events.emit(name, severity=severity, **payload)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[None]:
    """Record a span on the active collector for the duration of the block.

    The no-op-when-disabled convenience for phase producers that do not
    need the ``Span`` object itself (the checkpoint/restore pipeline):
    with no collector active the body runs untouched; with one active the
    span closes with error status if the block raises.
    """
    collector = ACTIVE
    if collector is None:
        yield
        return
    opened = collector.spans.begin(name, **attrs)
    try:
        yield
    except BaseException:
        collector.spans.end(opened, status="error")
        raise
    collector.spans.end(opened)
