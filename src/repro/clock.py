"""Deterministic virtual clock used by the simulated machine.

The paper reports run-time overheads as *ratios* against an uninstrumented
baseline (Table 3).  Measuring wall-clock time of a Python simulator would
drown those ratios in interpreter noise, so the kernel charges every
simulated operation a deterministic cost through this clock.  The cost model
lives with the syscall table (``repro.kernel.syscalls``); the clock itself
only accumulates.

Costs are expressed in nanoseconds of simulated time.  Instrumented builds
charge extra cost per intercepted operation (allocator tagging, dirty-page
faults, unblockification timeouts), which is what produces Table-3-shaped
ratios deterministically.
"""

from __future__ import annotations

NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def ns_to_ms(ns: int) -> float:
    """Canonical ns -> ms conversion (the one place, not ad-hoc ``/ 1e6``)."""
    return ns / NS_PER_MS


def fmt_ms(ns: int) -> str:
    """Render a nanosecond duration as ``'12.34 ms'``."""
    return f"{ns / NS_PER_MS:.2f} ms"


class VirtualClock:
    """Monotonic, manually-advanced nanosecond clock."""

    def __init__(self) -> None:
        # A plain attribute: it is read several times per kernel step.
        # ``advance`` is the checked writer; the only code that adds to it
        # directly is ``Kernel._step``, whose costs are non-negative
        # constants (the syscall table's are validated when a kernel is
        # built).
        self.now_ns = 0

    def advance(self, delta_ns: int) -> int:
        """Advance the clock by ``delta_ns`` and return the new time."""
        if delta_ns < 0:
            raise ValueError(f"clock cannot go backwards: {delta_ns}")
        self.now_ns += delta_ns
        return self.now_ns
