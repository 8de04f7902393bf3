"""Plain-text tables, verdict lines and latency summaries for benchmarks.

Every bench table is declared once: a title, a column list and rows that
are mappings, rendered by ``render_table``.  A column is a row key (the
header is the key itself) or a ``(header, key)`` pair whose key may be a
function of the row; every cell then goes through ``fmt_cell``.

Every benchmark that reports a latency distribution goes through
``latency_summary_ms`` — one shared path onto ``repro.obs.metrics``'s
histogram type, so percentile semantics (nearest-rank, bucket-resolved)
and ms formatting are identical everywhere instead of re-derived ad hoc
per benchmark.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.metrics import Histogram

Row = Mapping[str, Any]
# A row key, or (header, row key or function of the row).
Column = Union[str, Tuple[str, Union[str, Callable[[Row], Any]]]]


def fmt_cell(value: Any) -> str:
    """The one table-cell formatter: every cell of every bench table.

    Booleans render as the eye-catching ``yes``/``NO`` pair (failures
    should jump out of a table), ``None`` as ``-``, floats at three
    decimals, anything else as ``str``.  A cell that wants another shape
    (``"4/2/0"``, ``"+12.3%"``) is a string its column builds.
    """
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def verdict_line(verdicts: Mapping[str, bool]) -> str:
    """``verdicts: k=yes k2=NO ...``: every verdict of a bench, in order."""
    return "verdicts: " + " ".join(
        f"{key}={fmt_cell(ok)}" for key, ok in verdicts.items()
    )


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
    columns: Sequence[Column],
    rows: Sequence[Row],
    note: str = "",
) -> str:
    """Render mapping rows as an aligned plain-text table.

    A column naming a key its row lacks raises ``KeyError`` rather than
    printing ``-``: a missing value is an explicit ``None`` in the row.
    """
    pairs = [(c, c) if isinstance(c, str) else c for c in columns]
    cells = [[header for header, _key in pairs]] + [
        [fmt_cell(key(row) if callable(key) else row[key]) for _header, key in pairs]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(pairs))]
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
