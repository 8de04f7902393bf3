"""Memory usage: binary-size and resident-set overhead of MCR.

The paper reports a binary-size overhead of 118.7–235.2% and a run-time
RSS overhead of 110.0–483.6% (average 288.5%, the abstract's "3.9x"),
attributing it to mutable-tracing metadata (the deliberately
space-inefficient tags), process-hierarchy metadata, the in-memory
startup log, and the MCR libraries themselves.

We account the same inventory:

* baseline "binary size": the program's code+static footprint model;
* instrumented binary: + static tags + the linked ``libmcr.a``;
* baseline RSS: logical footprint of all mappings after the benchmark;
* MCR RSS: + ``MCRSession.metadata_bytes()`` (tags, startup log,
  hierarchy metadata, preloaded ``libmcr.so``).
"""

from __future__ import annotations

from typing import Dict

from repro.bench.harness import boot_server
from repro.bench.reporting import render_table
from repro.mem.tags import TAG_OVERHEAD_BYTES
from repro.runtime.instrument import BuildConfig

PAPER_NOTE = (
    "paper: binary size +118.7%-235.2%; RSS +110.0%-483.6% (avg 288.5%)"
)

# Binary-size model: a code byte per simulated-program "LOC unit" plus the
# static libraries.  Only ratios matter.
BASE_BINARY_BYTES = {
    "httpd": 600_000,
    "nginx": 450_000,
    "vsftpd": 120_000,
    "opensshd": 250_000,
}
# Static lib + pass-injected stubs, after linker dead-code stripping.
LIBMCR_A_BYTES = 150_000
PER_STATIC_TAG_BINARY_BYTES = 96       # tag tables embedded in the binary
INSTRUMENTATION_CODE_FACTOR = 0.9      # wrappers/unblockification stubs


def measure_server(name: str) -> Dict[str, float]:
    # Baseline RSS: run the benchmark uninstrumented, sum mapping sizes.
    base_world = boot_server(name, build=BuildConfig.baseline())
    base_world.spec.workload().run(base_world.kernel)
    base_rss = sum(
        p.space.resident_bytes() for p in base_world.root.tree()
    )
    # Instrumented RSS: same run under the full MCR build.
    mcr_world = boot_server(name)
    mcr_world.spec.workload().run(mcr_world.kernel)
    session = mcr_world.session
    mcr_rss = sum(
        p.space.resident_bytes() for p in session.root_process.tree()
    )
    mcr_rss += session.metadata_bytes()
    # Binary size model.
    base_binary = BASE_BINARY_BYTES[name]
    static_tags = sum(
        1 for p in session.root_process.tree() for _ in p.tags.tags(origin="static")
    )
    mcr_binary = (
        base_binary * (1 + INSTRUMENTATION_CODE_FACTOR)
        + LIBMCR_A_BYTES
        + static_tags * PER_STATIC_TAG_BINARY_BYTES
    )
    return {
        "base_binary": base_binary,
        "mcr_binary": mcr_binary,
        "binary_overhead": mcr_binary / base_binary - 1,
        "base_rss": base_rss,
        "mcr_rss": mcr_rss,
        "rss_overhead": mcr_rss / base_rss - 1,
    }


def run_memusage() -> Dict[str, Dict[str, float]]:
    return {name: measure_server(name) for name in BASE_BINARY_BYTES}


def average_rss_overhead(results: Dict[str, Dict[str, float]]) -> float:
    return sum(r["rss_overhead"] for r in results.values()) / len(results)


def verdicts(results: Dict[str, Dict[str, float]]) -> Dict[str, bool]:
    """The paper's memory bands, read off every server's row."""
    return {
        "binary_overhead_in_band": all(0.9 < r["binary_overhead"] < 3.0 for r in results.values()),
        "rss_overhead_small_multiple": all(0.8 < r["rss_overhead"] < 6.0 for r in results.values()),
        "average_rss_in_band": 1.0 < average_rss_overhead(results) < 5.0,
        "small_binaries_pay_more": results["vsftpd"]["binary_overhead"]
        > results["httpd"]["binary_overhead"],
    }


def render(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        {
            "server": name,
            "bin(base)": f"{r['base_binary'] // 1024}K",
            "bin(MCR)": f"{r['mcr_binary'] / 1024:.0f}K",
            "bin ovh": f"+{r['binary_overhead'] * 100:.1f}%",
            "RSS(base)": f"{r['base_rss'] // 1024}K",
            "RSS(MCR)": f"{r['mcr_rss'] // 1024}K",
            "RSS ovh": f"+{r['rss_overhead'] * 100:.1f}%",
        }
        for name, r in results.items()
    ]
    columns = list(rows[0])
    rows.append({
        **dict.fromkeys(columns, ""),
        "server": "average",
        "RSS ovh": f"+{average_rss_overhead(results) * 100:.1f}%",
    })
    return render_table(
        "Memory usage: MCR metadata overhead",
        columns,
        rows,
        note=PAPER_NOTE,
    )
