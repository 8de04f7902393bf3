"""Plain-text table rendering and latency summarization for benchmarks.

Every benchmark that reports a latency distribution goes through
``latency_summary_ms`` — one shared path onto ``repro.obs.metrics``'s
histogram type, so percentile semantics (nearest-rank, bucket-resolved)
and ms formatting are identical everywhere instead of re-derived ad hoc
per benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.clock import fmt_value as _fmt
from repro.obs.metrics import Histogram


def fmt_cell(value: Any) -> str:
    """The one shared table-cell formatter for benchmark rows.

    Booleans render as the eye-catching ``yes``/``NO`` pair (failures
    should jump out of a table), ``None`` as ``-``, floats at two
    decimals.  Every bench's render() goes through this instead of a
    private local ``fmt`` so cells read identically across reports.
    """
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def write_bench_json(name: str, results: Any, path: Optional[str] = None) -> str:
    """Write the canonical ``BENCH_<name>.json`` envelope; returns the path.

    Every benchmark artifact CI uploads goes through here, so the
    envelope shape (``{"experiment": ..., "results": ...}``) is defined
    in exactly one place.
    """
    from repro.obs.export import write_json

    path = path or f"BENCH_{name}.json"
    write_json(path, {"experiment": name, "results": results})
    return path


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    note: str = "",
) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def latency_summary_ms(
    latencies_ns: Sequence[int], prefix: str = "client"
) -> Dict[str, Any]:
    """Histogram-backed ms summary of a latency sample, keys prefixed.

    Returns ``{"<prefix>_requests", "<prefix>_p50_ms", "<prefix>_p95_ms",
    "<prefix>_p99_ms", "<prefix>_max_ms", "<prefix>_sum_ms"}``.
    """
    summary = Histogram.from_values(f"{prefix}.latency_ns", latencies_ns).summary_ms()
    return {
        f"{prefix}_requests": summary["count"],
        f"{prefix}_p50_ms": summary["p50_ms"],
        f"{prefix}_p95_ms": summary["p95_ms"],
        f"{prefix}_p99_ms": summary["p99_ms"],
        f"{prefix}_max_ms": summary["max_ms"],
        f"{prefix}_sum_ms": summary["sum_ms"],
    }
