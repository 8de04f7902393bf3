"""Named monotonic counters and gauges.

The hot-path contract is ``incr()``: one dict update, no timestamps, no
allocation beyond the key string.  Kernel syscall dispatch and allocator
operations call it on every operation when a collector is installed, so
it must stay this small.

Counters are *virtual-time free*: incrementing never touches the clock,
which is what keeps the Table-3 overhead ratios identical with and
without observability enabled.
"""

from __future__ import annotations

from typing import Dict, Union

Number = Union[int, float]


class CounterSet:
    """A flat namespace of counters (monotonic) and gauges (last-write)."""

    def __init__(self) -> None:
        self._values: Dict[str, Number] = {}

    def incr(self, name: str, delta: Number = 1) -> None:
        values = self._values
        values[name] = values.get(name, 0) + delta

    def gauge(self, name: str, value: Number) -> None:
        self._values[name] = value

    def get(self, name: str, default: Number = 0) -> Number:
        return self._values.get(name, default)

    def snapshot(self) -> Dict[str, Number]:
        """Name-sorted copy (the deterministic export order)."""
        return dict(sorted(self._values.items()))

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterSet {len(self._values)} series>"


class DiscardingCounters(CounterSet):
    """A counter set that keeps nothing: a black-box collector's.  The hot
    sites' one ``incr`` call lands here and costs a frame, no dict update."""

    def incr(self, name: str, delta: Number = 1) -> None:
        pass

    gauge = incr
