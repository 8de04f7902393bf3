"""Shared test utilities: craft small programs/processes for unit tests."""

from __future__ import annotations

import bisect
import struct
from typing import Dict, List, Optional

from repro.kernel.kernel import Kernel
from repro.kernel.process import sim_function
from repro.mcr.libmcr import MCRSession
from repro.mem.scan_backend import PreparedScanIndex
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import GlobalVar, Program, load_program
from repro.types.descriptors import TypeDesc


def event_dicts(log) -> List[Dict]:
    """An event log's ring as plain data, oldest first."""
    return [
        {"ts_ns": e.ts_ns, "severity": e.severity, "name": e.name, "payload": dict(e.payload)}
        for e in log
    ]


def collector_to_dict(collector) -> Dict:
    """Everything one collector recorded, as plain data: what the
    determinism tests compare run against run."""
    recorder = collector.recorder
    return {
        "clock_ns": collector.clock.now_ns,
        "counters": collector.counters.snapshot(),
        "events": event_dicts(collector.events),
        "events_dropped": collector.events.dropped,
        "spans": [root.to_dict() for root in collector.spans.roots],
        "metrics": collector.metrics.snapshot(),
        "flight": {
            "entries": recorder.to_list(),
            "recorded": recorder.recorded,
            "dropped": recorder.dropped,
            "bytes_used": recorder.bytes_used,
            "samples_taken": recorder.samples_taken,
        },
    }


def unmap(space, base: int) -> None:
    """Drop the mapping at ``base``, as a munmap would.  The product maps
    and never unmaps (a dead process releases its whole space); cache
    tests use this to put a fresh mapping where an old one was."""
    index = bisect.bisect_left(space._bases, base)
    assert space._bases[index] == base, f"no mapping at 0x{base:x}"
    del space._mappings[index]
    del space._bases[index]
    space._hit = None


@sim_function
def idle_main(sys):
    """A program body that parks forever (its QP is the nanosleep)."""
    while True:
        sys.loop_iter("idle")
        yield from sys.nanosleep(10_000_000)


def make_test_program(
    globals_: List[GlobalVar],
    types: Optional[Dict[str, TypeDesc]] = None,
    main=None,
    name: str = "testprog",
    version: str = "1",
) -> Program:
    return Program(
        name=name,
        version=version,
        globals_=globals_,
        main=main or idle_main,
        types=types or {},
        quiescent_points={("idle_main", "nanosleep")},
    )


def boot_test_program(
    program: Program,
    kernel: Optional[Kernel] = None,
    build: Optional[BuildConfig] = None,
):
    """Load + run until startup completes; returns (kernel, session, proc)."""
    kernel = kernel or Kernel()
    build = build or BuildConfig.full()
    session = MCRSession(kernel, program, build) if build.mcr_enabled else None
    process = load_program(kernel, program, build=build, session=session)
    if session is not None:
        kernel.run(until=lambda: session.startup_complete, max_steps=100_000)
    else:
        kernel.run(max_steps=1_000)
    return kernel, session, process


class ReferenceScanIndex(PreparedScanIndex):
    """The scan index with the per-word reference classifier: one bisect
    per in-bounds word, no word skipped before the bounds test, the
    alignment read straight from the payloads."""

    __slots__ = ()
    name = "reference"

    def classify(self, window):
        words = [w for (w,) in struct.iter_unpack("<Q", window)]
        positions, values, targets, candidates = [], [], [], 0
        for position, value in enumerate(words):
            if value < self.lo or value >= self.hi:
                continue
            candidates += 1
            i = bisect.bisect_right(self.starts, value) - 1
            if i < 0 or value >= self.ends[i]:
                continue
            base, _size, align = self.payloads[i][:3]
            if (value - base) % (align or 1):
                continue
            positions.append(position)
            values.append(value)
            targets.append(base)
        return positions, values, targets, candidates


# The scan index and its reference: tests that trace through
# ``snapshot_index`` run under both, so what they assert about the memo
# holds for any classifier that gives the reference's answers.
INDEX_CLASSES = [PreparedScanIndex, ReferenceScanIndex]


def scan_index_of(objects):
    """A scan index over synthetic ``(base, size, align-or-None)`` objects
    (sorted, disjoint)."""
    return PreparedScanIndex(
        [base for base, _, _ in objects],
        [base + size for base, size, _ in objects],
        objects,
    )


class CallCounter:
    """Count calls to ``owner.attr`` through monkeypatch, leaving it working."""

    def __init__(self, monkeypatch, owner, attr: str) -> None:
        self.calls = 0
        original = getattr(owner, attr)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
