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


def fmt_ms(ns: int, digits: int = 2) -> str:
    """Render a nanosecond duration as ``'12.34 ms'``."""
    return f"{ns / NS_PER_MS:.{digits}f} ms"


def fmt_value(value) -> str:
    """Format one table/report cell: floats to 3 decimals, rest verbatim."""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


class VirtualClock:
    """Monotonic, manually-advanced nanosecond clock."""

    def __init__(self, start_ns: int = 0) -> None:
        # A plain attribute: it is read several times per kernel step.
        # ``advance`` is the checked writer; the only code that adds to it
        # directly is ``Kernel._step``, with costs validated non-negative
        # when the kernel was built.
        self.now_ns = start_ns

    @property
    def now_ms(self) -> float:
        return ns_to_ms(self.now_ns)

    def advance(self, delta_ns: int) -> int:
        """Advance the clock by ``delta_ns`` and return the new time."""
        if delta_ns < 0:
            raise ValueError(f"clock cannot go backwards: {delta_ns}")
        self.now_ns += delta_ns
        return self.now_ns

    def elapsed_since(self, t0_ns: int) -> int:
        return self.now_ns - t0_ns


class StopWatch:
    """Measures an interval of virtual time.

    Usage::

        watch = StopWatch(clock)
        ... run simulated work ...
        duration_ns = watch.elapsed_ns()
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._start_ns = clock.now_ns

    def elapsed_ns(self) -> int:
        return self._clock.elapsed_since(self._start_ns)

    def elapsed_ms(self) -> float:
        return ns_to_ms(self.elapsed_ns())

    def restart(self) -> None:
        self._start_ns = self._clock.now_ns
