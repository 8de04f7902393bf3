"""A bounded ring-buffer event log with severities and payloads.

Events are discrete occurrences — a scheduler decision, a rollback, the
end of startup — stamped with virtual time.  The buffer is a fixed-size
ring: emitting beyond capacity silently evicts the oldest events and
counts them in ``dropped``, so an always-on emitter can never grow the
log without bound.

The scheduler's per-step events come through ``emit_raw``: the ring keeps
the strings and ints the emitter holds plus the function that renders
them, and the payload dict is built only when the log is read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, Optional, Tuple

from repro.clock import VirtualClock
from repro.obs.recorder import FlightRecorder

SEVERITIES = ("debug", "info", "warn", "error")
DEFAULT_CAPACITY = 1024


class Event:
    """One structured occurrence at a point in virtual time."""

    __slots__ = ("ts_ns", "severity", "name", "payload")

    def __init__(self, ts_ns: int, severity: str, name: str, payload: Dict[str, Any]) -> None:
        self.ts_ns = ts_ns
        self.severity = severity
        self.name = name
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.severity} {self.name} @{self.ts_ns}>"


class EventLog:
    """Fixed-capacity ring of events stamped with one virtual clock."""

    def __init__(self, clock: VirtualClock, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"event log capacity must be positive, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        # ``Event``s, and raw ``(ts_ns, name, render, fields)`` tuples from
        # ``emit_raw`` that iteration renders.
        self._ring: Deque[Any] = deque(maxlen=capacity)
        # The flight recorder mirroring this log (``obs.Collector`` wires
        # its own): one direct call per event, no second event object.
        self.recorder: Optional[FlightRecorder] = None
        self.emitted = 0

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._ring)

    def emit(self, name: str, severity: str = "info", **payload: Any) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}; choose from {SEVERITIES}")
        now = self.clock.now_ns
        self._ring.append(Event(now, severity, name, payload))
        self.emitted += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.record("event", name, payload, now)

    def emit_raw(
        self, name: str, render: Callable[..., Dict[str, Any]], fields: Tuple, width: int
    ) -> None:
        """Emit a debug event whose payload is ``render(*fields)``, built
        only when something reads it; ``width`` bounds the payload's text
        (``FlightRecorder.record_raw``)."""
        now = self.clock.now_ns
        self._ring.append((now, name, render, fields))
        self.emitted += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.record_raw(now, "event", name, render, fields, width)

    def skip(self, count: int) -> None:
        """Count ``count`` debug events that later ones evict unread, and
        the recorder's, without making them (``FlightRecorder.skip``)."""
        self.emitted += count
        if self.recorder is not None:
            self.recorder.skip(count, 0)

    def __iter__(self) -> Iterator[Event]:
        for item in self._ring:
            if item.__class__ is not Event:
                ts_ns, name, render, fields = item
                item = Event(ts_ns, "debug", name, render(*fields))
            yield item

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventLog {len(self._ring)}/{self.capacity} ({self.dropped} dropped)>"


class BlackBoxLog(EventLog):
    """A black-box collector's log: every event goes to the wired flight
    recorder only, and no ``Event`` is built for a ring nobody reads."""

    def emit(self, name: str, severity: str = "info", **payload: Any) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}; choose from {SEVERITIES}")
        self.recorder.record("event", name, payload)

    def emit_raw(
        self, name: str, render: Callable[..., Dict[str, Any]], fields: Tuple, width: int
    ) -> None:
        self.recorder.record_raw(self.clock.now_ns, "event", name, render, fields, width)

    def skip(self, count: int) -> None:
        self.recorder.skip(count, 0)
