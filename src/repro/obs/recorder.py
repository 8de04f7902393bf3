"""The black-box flight recorder (`repro.obs.recorder`).

An always-on, strictly bounded ring of the most recent observability
traffic — every event the collector sees plus periodic gauge samples of
the world (runnable threads, allocator occupancy, dirty-page faults, fd
counts) taken from the kernel scheduler's step hook.  Like an aircraft
black box, it costs almost nothing while things go well and is dumped
*after* something goes wrong: ``LiveUpdateController._rollback`` (and
fault containment past the point of no return) serialize the recording
to a structured ``blackbox.json`` post-mortem artifact.

Two budgets bound the recorder, and both are hard limits: ``max_entries``
(ring length) and ``max_bytes`` (the sum of per-entry cost estimates).
An entry that alone exceeds the byte budget is dropped, never stored —
the recorder can *never* grow past its budgets, which the property tests
flood-check.  The ring is always the longest suffix of the stream of
non-oversized entries within both budgets, so ``record_raw`` (scheduler
events, gauge samples) can keep only the entry budget on append and leave
payloads, costs and the byte budget to the next read.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.clock import VirtualClock

DEFAULT_MAX_ENTRIES = 512
DEFAULT_MAX_BYTES = 64_000
DEFAULT_SAMPLE_INTERVAL_STEPS = 2_048

# Fixed per-entry overhead charged on top of the payload text estimate.
_ENTRY_BASE_COST = 24
# Below this byte budget raw entries are costed on append: a raw record
# (process, thread, function and wait names) cannot alone exceed it, so a
# lazily costed one never takes an entry slot it would have been denied.
_RAW_MIN_BYTES = 4_096


def _cost(kind: str, name: str, payload: Dict[str, Any]) -> int:
    cost = _ENTRY_BASE_COST + len(kind) + len(name)
    for key, value in payload.items():
        cost += len(str(key)) + len(str(value))
    return cost


class FlightEntry(namedtuple("_FlightEntry", "ts_ns kind name payload cost")):
    """One recorded moment: an obs event or a gauge sample.  Written once,
    like ``Chunk``: ``record`` builds it with ``tuple.__new__`` and its
    cost already summed, so an append runs no constructor frame."""

    __slots__ = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ts_ns": self.ts_ns,
            "kind": self.kind,
            "name": self.name,
            "payload": dict(self.payload),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlightEntry {self.kind}:{self.name} @{self.ts_ns}>"


class FlightRecorder:
    """Bounded ring of events + gauge samples, dumpable as a post-mortem."""

    def __init__(
        self,
        clock: VirtualClock,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        sample_interval_steps: int = DEFAULT_SAMPLE_INTERVAL_STEPS,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"flight recorder needs a positive entry budget, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"flight recorder needs a positive byte budget, got {max_bytes}")
        if sample_interval_steps <= 0:
            raise ValueError(
                f"sample interval must be positive, got {sample_interval_steps}"
            )
        self.clock = clock
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.sample_interval_steps = sample_interval_steps
        # ``FlightEntry``s and, while ``_raw``, unsettled ``(ts_ns, kind,
        # name, render, fields)`` tuples; ``_bytes`` is then stale.
        self._ring: Deque[Any] = deque()
        self._raw = False
        self._bytes = 0
        self._ticks = 0
        # Per-process gauge cache keyed by global id: (stamp, fds,
        # live_bytes, live_chunks, free_bytes, dirty_faults).  Recomputed
        # only for processes whose ``gauge_stamp`` moved since the last
        # sample, so sampling a mostly-idle 1000-worker tree is O(ran)
        # rather than O(total heap chunks).
        self._gauge_cache: Dict[int, tuple] = {}
        # Drops by the byte budget among raw entries count when settled.
        self.recorded = 0
        self.dropped = 0
        self.samples_taken = 0

    # -- recording ------------------------------------------------------------

    def record(
        self,
        kind: str,
        name: str,
        payload: Dict[str, Any],
        ts_ns: Optional[int] = None,
    ) -> None:
        """Append one entry stamped ``ts_ns`` (default: now); what
        ``EventLog.emit`` calls directly for every event."""
        if ts_ns is None:
            ts_ns = self.clock.now_ns
        if self._raw:
            self._settle()
        cost = _cost(kind, name, payload)
        if cost > self.max_bytes:
            # A single over-budget entry is dropped outright: storing it
            # would violate the byte bound no matter what we evict.
            self.dropped += 1
            return
        ring = self._ring
        ring.append(tuple.__new__(FlightEntry, (ts_ns, kind, name, payload, cost)))
        self._bytes += cost
        self.recorded += 1
        while len(ring) > self.max_entries or self._bytes > self.max_bytes:
            self._bytes -= ring.popleft()[4]  # the evicted entry's cost
            self.dropped += 1

    def record_raw(
        self,
        ts_ns: int,
        kind: str,
        name: str,
        render: Callable[..., Dict[str, Any]],
        fields: Tuple,
    ) -> None:
        """Append one entry whose payload is ``render(*fields)``, costed
        when settled: what ``EventLog.emit_raw`` calls, and each sample."""
        if self.max_bytes < _RAW_MIN_BYTES:
            self.record(kind, name, render(*fields), ts_ns)
            return
        ring = self._ring
        ring.append((ts_ns, kind, name, render, fields))
        self._raw = True
        self.recorded += 1
        if len(ring) > self.max_entries:
            ring.popleft()
            self.dropped += 1

    def _settle(self) -> None:
        """Render and cost the raw entries, then keep the longest suffix
        within the byte budget: the ring eager costing would have kept."""
        if not self._raw:
            return
        kept: List[FlightEntry] = []
        total = 0
        max_bytes = self.max_bytes
        for entry in reversed(self._ring):
            if entry.__class__ is not FlightEntry:
                ts_ns, kind, name, render, fields = entry
                payload = render(*fields)
                entry = tuple.__new__(
                    FlightEntry, (ts_ns, kind, name, payload, _cost(kind, name, payload))
                )
            if total + entry[4] > max_bytes:
                break
            total += entry[4]
            kept.append(entry)
        self.dropped += len(self._ring) - len(kept)
        kept.reverse()
        self._ring = deque(kept)
        self._bytes = total
        self._raw = False

    # -- periodic world sampling (kernel scheduler tick hook) ------------------

    def tick(self, kernel) -> None:
        """Called once per scheduler step; samples every N-th tick."""
        self._ticks += 1
        if self._ticks % self.sample_interval_steps:
            return
        self.sample(kernel)

    def sample(self, kernel) -> None:
        """Record one gauge sample of the world's vital signs.

        Per-process gauges are cached: a process that has not executed a
        step since the previous sample (its ``gauge_stamp`` is unchanged)
        reuses its cached tuple instead of re-walking its heap and fd
        table.  Processes mutated outside the scheduler (MCR state
        transfer writing into a quiesced image between runs) may lag one
        sample; the next step they take refreshes them.
        """
        processes = kernel.live_processes()
        self.samples_taken += 1
        cache = self._gauge_cache
        # Only the processes sampled now are kept: a dead one never comes
        # back, so the cache stays as large as the live world.
        self._gauge_cache = kept = {}
        fds = live_bytes = live_chunks = free_bytes = dirty_faults = 0
        for process in processes:
            stamp = process.gauge_stamp
            entry = cache.get(process.global_id)
            if entry is None or entry[0] != stamp:
                entry = (
                    stamp,
                    len(process.fdtable),
                    process.heap.live_bytes(),
                    process.heap.live_chunk_count(),
                    process.heap._free.total_free(),
                    process.space.soft_dirty_faults,
                )
            kept[process.global_id] = entry
            fds += entry[1]
            live_bytes += entry[2]
            live_chunks += entry[3]
            free_bytes += entry[4]
            dirty_faults += entry[5]
        payload = {
            "runnable": len(kernel._run_queue),
            "blocked": len(kernel._blocked),
            "processes": len(processes),
            "fds": fds,
            "heap_live_bytes": live_bytes,
            "heap_live_chunks": live_chunks,
            "heap_free_bytes": free_bytes,
            "dirty_faults": dirty_faults,
        }
        self.record_raw(self.clock.now_ns, "sample", "gauges", dict, (payload,))

    # -- reading ---------------------------------------------------------------

    @property
    def bytes_used(self) -> int:
        self._settle()
        return self._bytes

    def entries(self) -> List[FlightEntry]:
        self._settle()
        return list(self._ring)

    def to_list(self) -> List[Dict[str, Any]]:
        self._settle()
        return [entry.to_dict() for entry in self._ring]

    def last_event(self, name: str) -> Optional[Dict[str, Any]]:
        """The most recent recorded event with the given name, if any."""
        self._settle()
        for entry in reversed(self._ring):
            if entry.kind == "event" and entry.name == name:
                return entry.to_dict()
        return None

    def dump(
        self,
        reason: str,
        failure_site: Optional[str] = None,
        open_spans: Optional[List[str]] = None,
        fingerprint: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> Dict[str, Any]:
        """The structured black-box document (``blackbox.json`` content)."""
        self._settle()
        return {
            "reason": reason,
            "ts_ns": self.clock.now_ns,
            "failure_site": failure_site,
            "last_fault": self.last_event("fault.injected"),
            "open_spans": list(open_spans or []),
            "fingerprint": fingerprint,
            "entries": self.to_list(),
            "entries_recorded": self.recorded,
            "entries_dropped": self.dropped,
            "bytes_used": self._bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "samples_taken": self.samples_taken,
            **extra,
        }

    def __len__(self) -> int:
        self._settle()
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {len(self._ring)}/{self.max_entries} entries, "
            f"{self._bytes}/{self.max_bytes} bytes>"
        )
