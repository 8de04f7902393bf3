"""Histograms and the metrics registry (`repro.obs.metrics`).

The span/counter spine records *what the controller did*; this module
records *distributions* — most importantly the client-perceived request
latencies around a live update (the paper's headline evaluation metric).

Two types:

* ``Histogram`` — fixed-boundary or log-bucketed buckets with count /
  sum / min / max and bucket-resolved percentiles.  Observation is O(log
  buckets) (one bisect + three updates) and never touches the virtual
  clock, so recording latencies cannot change any measured ratio.
* ``MetricsRegistry`` — a flat namespace of histograms that lives next
  to ``CounterSet`` on the ``obs.Collector``; ``observe()`` is the
  get-or-create hot path.

Both expose deterministic snapshots (name-sorted, plain data) and a
Prometheus text exposition (``prometheus_text``) so the same registry
serves ``BENCH_*.json`` files, the ``repro metrics`` CLI, and a scrape
endpoint shape.

Percentiles are bucket-resolved: ``percentile(q)`` returns the upper
boundary of the bucket holding the nearest-rank value, clamped to the
observed max.  The error is therefore bounded by one bucket width — the
property the test suite checks against an exact reference.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import ceil
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.clock import ns_to_ms

Number = Union[int, float]

# Default latency buckets: log-spaced from 1 us to ~134 s in virtual ns.
# Factor-2 spacing bounds the percentile error at 2x, which is plenty for
# SLO verdicts over latencies spanning five orders of magnitude.
DEFAULT_LATENCY_BOUNDARIES_NS: List[int] = [1_000 * (1 << k) for k in range(28)]


def log_boundaries(lo: Number, hi: Number, factor: float = 2.0) -> List[Number]:
    """Log-spaced bucket upper bounds from ``lo`` until one covers ``hi``."""
    if lo <= 0:
        raise ValueError(f"log buckets need a positive start, got {lo}")
    if factor <= 1.0:
        raise ValueError(f"log bucket factor must exceed 1, got {factor}")
    bounds: List[Number] = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return bounds


class Histogram:
    """Bucketed distribution: count, sum, min/max, bucket-resolved percentiles."""

    __slots__ = ("name", "unit", "boundaries", "bucket_counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        boundaries: Optional[Sequence[Number]] = None,
        unit: str = "ns",
    ) -> None:
        bounds = list(boundaries) if boundaries is not None else list(DEFAULT_LATENCY_BOUNDARIES_NS)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must strictly increase: {bounds}")
        self.name = name
        self.unit = unit
        self.boundaries = bounds
        # One bucket per boundary (value <= boundary) plus the overflow bucket.
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    @classmethod
    def log_buckets(cls, name: str, lo: Number, hi: Number) -> "Histogram":
        return cls(name, boundaries=log_boundaries(lo, hi))

    @classmethod
    def from_values(
        cls,
        name: str,
        values: Iterable[Number],
        boundaries: Optional[Sequence[Number]] = None,
    ) -> "Histogram":
        histogram = cls(name, boundaries=boundaries)
        for value in values:
            histogram.observe(value)
        return histogram

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, q: float) -> Number:
        """The q-th percentile (0..100), resolved to a bucket upper bound.

        Returns the upper boundary of the bucket containing the
        nearest-rank value, clamped to the observed max — so the result
        is always >= the exact percentile and lands in the same bucket.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0
        if q == 0:
            # The 0th percentile is the smallest observation; the bucket
            # upper bound would overstate it by up to one bucket width.
            return self.min
        rank = max(1, ceil(q / 100.0 * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index < len(self.boundaries):
                    return min(self.boundaries[index], self.max)
                return self.max
        return self.max  # pragma: no cover - count>0 guarantees an earlier return

    def summary(self) -> Dict[str, Number]:
        """count/sum/min/max plus the SLO percentiles, in native units."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def summary_ms(self) -> Dict[str, float]:
        """The summary converted ns -> ms (the one shared formatting path)."""
        if self.unit != "ns":
            raise ValueError(f"summary_ms needs an ns histogram, not {self.unit!r}")
        native = self.summary()
        out: Dict[str, float] = {"count": native["count"]}
        for key in ("sum", "min", "max", "p50", "p95", "p99"):
            out[f"{key}_ms"] = ns_to_ms(native[key])
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (same boundaries required).

        Used to combine per-tree collectors (old/new version) into one
        cross-update distribution.
        """
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries "
                f"({self.name} vs {other.name})"
            )
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            **self.summary(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named histograms, next to ``CounterSet`` on the collector."""

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}

    def histogram(
        self,
        name: str,
        boundaries: Optional[Sequence[Number]] = None,
    ) -> Histogram:
        """Get-or-create; an existing histogram keeps its boundaries."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, boundaries=boundaries)
            self._histograms[name] = histogram
        return histogram

    def observe(
        self,
        name: str,
        value: Number,
        boundaries: Optional[Sequence[Number]] = None,
    ) -> None:
        self.histogram(name, boundaries=boundaries).observe(value)

    def get(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def names(self) -> List[str]:
        return sorted(self._histograms)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Name-sorted plain-data copy (the deterministic export order)."""
        return {name: self._histograms[name].to_dict() for name in self.names()}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (combining old/new-tree collectors)."""
        for name in other.names():
            theirs = other._histograms[name]
            mine = self._histograms.get(name)
            if mine is None:
                mine = Histogram(name, boundaries=theirs.boundaries, unit=theirs.unit)
                self._histograms[name] = mine
            mine.merge(theirs)

    def __len__(self) -> int:
        return len(self._histograms)

    def __contains__(self, name: str) -> bool:
        return name in self._histograms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._histograms)} histograms>"


class DiscardingMetrics(MetricsRegistry):
    """A registry that keeps no observation: a black-box collector's."""

    def observe(self, name: str, value: Number, boundaries=None) -> None:
        pass


# -- Prometheus text exposition ------------------------------------------------

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_SANITIZE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _prom_number(value: Number) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def prometheus_text(counters=None, metrics: Optional[MetricsRegistry] = None) -> str:
    """Render counters (as gauges) and histograms in Prometheus text format.

    Deterministic: series are name-sorted and numbers rendered canonically,
    so identical runs produce byte-identical exposition.
    """
    lines: List[str] = []
    if counters is not None:
        for name, value in counters.snapshot().items():
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_number(value)}")
    if metrics is not None:
        for name in metrics.names():
            histogram = metrics.get(name)
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for boundary, bucket_count in zip(
                histogram.boundaries, histogram.bucket_counts
            ):
                cumulative += bucket_count
                lines.append(
                    f'{prom}_bucket{{le="{_prom_number(boundary)}"}} {cumulative}'
                )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{prom}_sum {_prom_number(histogram.sum)}")
            lines.append(f"{prom}_count {histogram.count}")
    return "\n".join(lines) + "\n"
