"""Fast-path scanning performance (this repo's experiment, not a paper table).

Quantifies the memory-engine fast path on two axes:

* **Microbenchmark** — conservative-scan throughput (words/sec) over a
  booted server's data + heap mappings, three engines deep: the
  reference per-word scanner, the PR 2 bulk kernel (bounds prefilter +
  interval index), and the v2 vectorized backend
  (``repro.mem.scan_backend`` — numpy when installed, the stdlib
  fallback otherwise).  Asserts all three produce *identical*
  likely-pointer lists and ``words_scanned`` counts (the Table 2/3
  invariance guarantee), and reports how many resolve calls the
  prefilter avoided.
* **End-to-end** — host wall time of one full ``run_update`` per server,
  fast path on vs off (``MCRConfig.fast_scan``/``incremental_scan``).
  The *virtual* update time is asserted identical in both modes: the
  fast path changes how fast the host sweeps memory, never what the
  simulation measures.
* **Scaling curve** — worker count vs sweep throughput, rolling
  ``run_update`` wall time and memory (simulated mapped/resident bytes,
  host ``ru_maxrss``) on scaled-up httpd prefork trees (8 .. 1000
  server processes), the v2 scheduler's headline workload.

Wired into the CLI as ``python -m repro bench scanperf [--json]``; the
JSON lands in ``BENCH_scanperf.json`` and is uploaded as a CI artifact so
the perf trajectory is tracked PR over PR.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.bench.reporting import fmt_cell, render_table
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.tracing import conservative
from repro.mcr.tracing.graph import AddressResolver
from repro.mem import scan_backend
from repro.replay.rng import RngStream
from repro.types.descriptors import WORD_SIZE

# Prefork pool sizes swept by the scaling curve; --smoke trims the sweep
# so CI stays fast while the committed artifact covers the full range.
SCALING_WORKER_COUNTS = (8, 64, 256, 1000)
SMOKE_WORKER_COUNTS = (8, 64)


def _scan_targets(process) -> List[Tuple[int, int]]:
    """The opaque areas the microbenchmark sweeps: data + heap mappings."""
    return [
        (m.base, m.size)
        for m in process.space.mappings()
        if m.kind in ("data", "heap")
    ]


def _pointers_key(found) -> List[Tuple[int, int, int, bool]]:
    return [(p.slot_address, p.value, p.target_base, p.interior) for p in found]


def _seed_pointer_field(process, size: int = 256 * 1024) -> None:
    """Fill a scratch data mapping with a pointer-rich word mix.

    A freshly booted server's data mappings are mostly zero, which makes
    the microbenchmark degenerate (every word short-circuits before
    resolution).  Seed a deterministic blend of heap base pointers,
    interior pointers, non-pointer integers, and zero words so the sweep
    exercises the whole kernel: decode, prefilter, resolve, alignment
    rejection.
    """
    # Explicit seed => RngStream reproduces random.Random(0xC0FFEE)'s
    # exact sequence, so the seeded pointer field is unchanged.
    rng = RngStream("bench.scanperf.seed", 0xC0FFEE)
    chunks = [
        process.heap.malloc(rng.choice((24, 48, 96, 160))) for _ in range(192)
    ]
    scratch = process.space.map(size, name="scanperf_scratch", kind="data")
    write_word = process.space.write_word
    for slot in range(scratch.base, scratch.end, WORD_SIZE):
        roll = rng.random()
        if roll < 0.25:
            value = rng.choice(chunks)  # base pointer
        elif roll < 0.40:
            value = rng.choice(chunks) + rng.randrange(1, 24)  # interior
        elif roll < 0.55:
            value = rng.getrandbits(48) | 1  # non-pointer junk
        else:
            continue  # zero word
        write_word(slot, value)


def run_scan_micro(server: str = "httpd", repeats: int = 3) -> Dict[str, object]:
    """Bulk vs reference scanner over one booted server's memory image."""
    world = boot_server(server)
    SERVER_BENCHES[server]["workload"]().run(world.kernel)
    process = world.root
    _seed_pointer_field(process)
    targets = _scan_targets(process)
    resolver = AddressResolver(process)

    def sweep_ref() -> Tuple[List, int]:
        found: List = []
        words = 0
        for base, size in targets:
            got, scanned = conservative.scan_range_ref(
                process.space, base, size, resolver.resolve_for_scan
            )
            found.extend(got)
            words += scanned
        return found, words

    def sweep_fast() -> Tuple[List, int]:
        found: List = []
        words = 0
        bounds = resolver.scan_bounds()
        for base, size in targets:
            got, scanned = conservative.scan_range(
                process.space, base, size, resolver.resolve_for_scan, bounds=bounds
            )
            found.extend(got)
            words += scanned
        return found, words

    def sweep_vector() -> Tuple[List, int]:
        found: List = []
        words = 0
        bounds = resolver.scan_bounds()
        index = resolver.scan_index()
        for base, size in targets:
            got, scanned = conservative.scan_range(
                process.space, base, size, resolver.resolve_for_scan,
                bounds=bounds, index=index,
            )
            found.extend(got)
            words += scanned
        return found, words

    # Correctness first: identical outputs, and count resolve traffic.
    with obs.collecting(world.kernel.clock) as collector:
        ref_found, ref_words = sweep_ref()
    calls_ref = collector.counters.snapshot().get("scan.resolve_calls", 0)
    resolver.build_index()
    with obs.collecting(world.kernel.clock) as collector:
        fast_found, fast_words = sweep_fast()
    calls_fast = collector.counters.snapshot().get("scan.resolve_calls", 0)
    with obs.collecting(world.kernel.clock) as collector:
        vector_found, vector_words = sweep_vector()
    calls_vector = collector.counters.snapshot().get("scan.resolve_calls", 0)
    identical = (
        _pointers_key(ref_found) == _pointers_key(fast_found)
        and _pointers_key(ref_found) == _pointers_key(vector_found)
        and ref_words == fast_words == vector_words
        and calls_fast == calls_vector
    )
    # Then timing (no collector installed: the publish hook is a no-op).
    ref_s = min(
        _timed(sweep_ref) for _ in range(repeats)
    )
    fast_s = min(
        _timed(sweep_fast) for _ in range(repeats)
    )
    vector_s = min(
        _timed(sweep_vector) for _ in range(repeats)
    )
    resolver.drop_index()
    return {
        "server": server,
        "backend": scan_backend.ACTIVE.name,
        "ranges": len(targets),
        "words": ref_words,
        "likely_pointers": len(ref_found),
        "identical": identical,
        "ref_words_per_sec": ref_words / ref_s if ref_s else 0.0,
        "fast_words_per_sec": fast_words / fast_s if fast_s else 0.0,
        "vector_words_per_sec": vector_words / vector_s if vector_s else 0.0,
        "speedup": ref_s / fast_s if fast_s else 0.0,
        "vector_speedup": ref_s / vector_s if vector_s else 0.0,
        "resolve_calls_ref": calls_ref,
        "resolve_calls_fast": calls_fast,
        "resolve_calls_vector": calls_vector,
        "resolve_calls_avoided": calls_ref - calls_fast,
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _measure_update(name: str, fast: bool) -> Dict[str, object]:
    """One full live update with the fast path on or off (host wall time)."""
    spec = SERVER_BENCHES[name]
    world = boot_server(name)
    spec["workload"]().run(world.kernel)
    ctl = McrCtl(world.kernel, world.session)
    config = MCRConfig(fast_scan=fast, incremental_scan=fast)
    with obs.collecting(world.kernel.clock) as collector:
        start = time.perf_counter()
        result = ctl.live_update(spec["make_program"](2), config=config)
        wall_s = time.perf_counter() - start
    if not result.committed:
        raise RuntimeError(f"{name}: update failed: {result.error}")
    counters = collector.counters.snapshot()
    return {
        "wall_ms": wall_s * 1000.0,
        "virtual_total_ms": result.total_ms(),
        "scan_words": counters.get("scan.words", 0),
        "resolve_calls": counters.get("scan.resolve_calls", 0),
        "cache_hits": counters.get("scan.cache_hits", 0),
        "words_from_cache": counters.get("scan.words_from_cache", 0),
        "likely_pointers": sum(
            len(r.likely_pointers)
            for r in result.transfer_report.trace_results.values()
        ),
        "words_scanned_accounted": sum(
            s.words_scanned for s in result.transfer_report.per_process
        ),
    }


def run_scaling_curve(
    worker_counts: Sequence[int] = SCALING_WORKER_COUNTS,
    warm_responses: int = 8,
) -> List[Dict[str, object]]:
    """Sweep throughput and rolling-update wall time vs prefork pool size.

    Boots httpd with ``server_processes`` overridden per point, serves a
    few keep-alive requests, then rolls the whole pool through one
    rolling ``run_update`` (batch = a quarter of the pool).  The client
    reconnect stall is 100 ms: at 1000 workers a connection event wakes
    the whole epoll herd and each woken quiescent-point entry advances
    the global virtual clock, so per-request latency genuinely grows
    with the pool — an aggressive few-ms stall would starve itself.
    """
    from repro.kernel.kernel import Kernel
    from repro.servers import httpd
    from repro.workloads.ab import ApacheBench

    rows: List[Dict[str, object]] = []
    for workers in worker_counts:
        def factory(version=1, mcr_prepared=True, _n=workers):
            return httpd.make_program(version, mcr_prepared, server_processes=_n)

        kernel = Kernel()
        start = time.perf_counter()
        world = boot_server("httpd", 1, None, kernel, factory)
        boot_s = time.perf_counter() - start
        process = world.root
        processes = len(process.tree())
        _seed_pointer_field(process)
        targets = _scan_targets(process)
        resolver = AddressResolver(process)
        resolver.build_index()
        bounds = resolver.scan_bounds()
        index = resolver.scan_index()

        def sweep() -> int:
            words = 0
            for base, size in targets:
                _got, scanned = conservative.scan_range(
                    process.space, base, size, resolver.resolve_for_scan,
                    bounds=bounds, index=index,
                )
                words += scanned
            return words

        words = sweep()
        sweep_s = min(_timed(sweep) for _ in range(2))
        resolver.drop_index()
        workload = ApacheBench(
            80, requests=24, concurrency=4, reconnect_stall_ns=100_000_000
        )
        workload(kernel)
        kernel.run(
            until=lambda: workload.latency.count >= warm_responses,
            max_steps=4_000_000,
        )
        ctl = McrCtl(kernel, world.session)
        config = MCRConfig(
            update_mode="rolling", rolling_batch=max(1, workers // 4)
        )
        spaces = [p.space for p in process.tree()]
        mapped = sum(space.mapped_bytes() for space in spaces)
        resident = sum(space.resident_bytes() for space in spaces)
        start = time.perf_counter()
        result = ctl.live_update(factory(2), config=config)
        update_s = time.perf_counter() - start
        if not result.committed:
            raise RuntimeError(
                f"scaling curve @{workers} workers: update failed: {result.error}"
            )
        rows.append(
            {
                "workers": workers,
                "processes": processes,
                "boot_wall_ms": boot_s * 1000.0,
                "sweep_words": words,
                "sweep_words_per_sec": words / sweep_s if sweep_s else 0.0,
                "update_wall_ms": update_s * 1000.0,
                "virtual_total_ms": result.total_ms(),
                "rolling_batches": result.rolling_batches,
                "warm_responses": workload.latency.count,
                "committed": result.committed,
                "mapped_mb": mapped / 1e6,
                "resident_mb": resident / 1e6,
                # Process high-water mark: monotonic across points.
                "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    return rows


def run_scanperf(
    servers: Sequence[str] = ("httpd", "vsftpd"),
    micro_server: str = "httpd",
    repeats: int = 3,
    worker_counts: Sequence[int] = SCALING_WORKER_COUNTS,
) -> Dict[str, object]:
    results: Dict[str, object] = {"microbench": run_scan_micro(micro_server, repeats)}
    per_server: Dict[str, Dict[str, object]] = {}
    for name in servers:
        slow = _measure_update(name, fast=False)
        fast = _measure_update(name, fast=True)
        per_server[name] = {
            "slow_wall_ms": slow["wall_ms"],
            "fast_wall_ms": fast["wall_ms"],
            "wall_speedup": slow["wall_ms"] / fast["wall_ms"] if fast["wall_ms"] else 0.0,
            # The fast path must not perturb the simulation: virtual
            # update time and every scan statistic are mode-invariant.
            "virtual_total_ms_slow": slow["virtual_total_ms"],
            "virtual_total_ms_fast": fast["virtual_total_ms"],
            "virtual_identical": slow["virtual_total_ms"] == fast["virtual_total_ms"],
            "accounting_identical": (
                slow["words_scanned_accounted"] == fast["words_scanned_accounted"]
                and slow["likely_pointers"] == fast["likely_pointers"]
            ),
            "words_scanned": fast["words_scanned_accounted"],
            "likely_pointers": fast["likely_pointers"],
            "resolve_calls_slow": slow["resolve_calls"],
            "resolve_calls_fast": fast["resolve_calls"],
            "resolve_calls_avoided": slow["resolve_calls"] - fast["resolve_calls"],
            "cache_hits": fast["cache_hits"],
            "words_from_cache": fast["words_from_cache"],
        }
    results["servers"] = per_server
    results["scaling_curve"] = run_scaling_curve(worker_counts)
    return results


def render(results: Dict[str, object]) -> str:
    micro = results["microbench"]
    lines = [
        "Scan fast-path microbenchmark "
        f"({micro['server']}: {micro['words']} words, "
        f"{micro['likely_pointers']} likely pointers, "
        f"identical={micro['identical']}, backend={micro['backend']})",
        f"  reference  : {micro['ref_words_per_sec']:,.0f} words/sec "
        f"({micro['resolve_calls_ref']} resolve calls)",
        f"  fast path  : {micro['fast_words_per_sec']:,.0f} words/sec "
        f"({micro['resolve_calls_fast']} resolve calls, "
        f"{micro['resolve_calls_avoided']} avoided)",
        f"  vectorized : {micro['vector_words_per_sec']:,.0f} words/sec "
        f"({micro['resolve_calls_vector']} resolve calls)",
        f"  speedup    : {micro['speedup']:.1f}x bulk, "
        f"{micro['vector_speedup']:.1f}x vectorized",
        "",
    ]
    rows = []
    for name, row in results["servers"].items():
        rows.append(
            [
                name,
                f"{row['slow_wall_ms']:.1f}",
                f"{row['fast_wall_ms']:.1f}",
                f"{row['wall_speedup']:.2f}",
                fmt_cell(row["virtual_identical"]),
                fmt_cell(row["accounting_identical"]),
                fmt_cell(row["cache_hits"]),
                fmt_cell(row["resolve_calls_avoided"]),
            ]
        )
    lines.append(
        render_table(
            "run_update wall time, fast path off vs on",
            [
                "server",
                "slow_ms",
                "fast_ms",
                "speedup",
                "virt_eq",
                "acct_eq",
                "cache_hits",
                "resolves_avoided",
            ],
            rows,
            note=(
                "wall = host time of ctl.live_update; virt_eq/acct_eq assert the "
                "fast path changes no simulated measurement"
            ),
        )
    )
    curve = results.get("scaling_curve")
    if curve:
        curve_rows = [
            [
                str(point["workers"]),
                str(point["processes"]),
                f"{point['boot_wall_ms']:.0f}",
                f"{point['sweep_words_per_sec']:,.0f}",
                f"{point['update_wall_ms']:.0f}",
                f"{point['virtual_total_ms']:.1f}",
                str(point["rolling_batches"]),
                f"{point['mapped_mb']:.0f}",
                f"{point['resident_mb']:.1f}",
                f"{point['maxrss_mb']:.0f}",
                fmt_cell(point["committed"]),
            ]
            for point in curve
        ]
        lines.append("")
        lines.append(
            render_table(
                "httpd prefork scaling curve (rolling run_update)",
                [
                    "workers",
                    "procs",
                    "boot_ms",
                    "sweep_words/s",
                    "update_wall_ms",
                    "virt_ms",
                    "batches",
                    "mapped_MB",
                    "resident_MB",
                    "maxrss_MiB",
                    "ok",
                ],
                curve_rows,
                note=(
                    "workers = server_processes override; update = one rolling "
                    "run_update with batch = workers/4 under a keep-alive "
                    "AB workload (100 ms reconnect stall); mapped/resident = "
                    "old tree at update time; maxrss = host process high-water "
                    "after the point (monotonic)"
                ),
            )
        )
    return "\n".join(lines)
