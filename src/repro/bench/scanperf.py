"""Conservative-scan performance (this repo's experiment, not a paper table).

Three views of the one scan engine:

* **Microbenchmark** — conservative-scan throughput (words/sec) over a
  booted server's data + heap mappings: the per-word reference scanner
  over the cascade resolver against the scanner tracing runs
  (``conservative.scan_range`` through the standard-library scan index,
  ``repro.mem.scan_backend``).  Asserts both produce *identical*
  likely-pointer lists and ``words_scanned`` counts, and reports the
  resolve traffic of each.
* **Per-server update** — one full ``run_update`` per server: host wall
  time and the traces the update's memo reused instead of walking again,
  next to the simulated results (virtual update time, words scanned,
  likely pointers), which are checked against ``UPDATE_SPEC`` — how fast
  the host sweeps memory may change, what the simulation measures may
  not.
* **Scaling curve** — worker count vs sweep throughput, mid-flight
  rolling ``run_update`` wall time, the clients' blackout and SLO
  verdict, and memory (simulated mapped/resident bytes, host
  ``ru_maxrss``) on scaled-up httpd prefork trees (8 .. 1000 server
  processes; ``--smoke`` stops at 64).  It is the one owner of the
  prefork-at-scale numbers.

Wired into the CLI as ``python -m repro bench scanperf [--smoke]
[--json]``, which exits 1 when a ``verdicts`` entry fails; the JSON lands
in ``BENCH_scanperf.json`` and is uploaded as a CI artifact so the perf
trajectory is tracked PR over PR.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.bench.harness import boot_server, update_midflight
from repro.bench.reporting import fmt_cell, render_table
from repro.clock import ns_to_ms
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.tracing import conservative
from repro.mcr.tracing.graph import AddressResolver, snapshot_index
from repro.replay.rng import RngStream
from repro.types.descriptors import WORD_SIZE
from repro.workloads.ab import ApacheBench

# Prefork pool sizes swept by the scaling curve; --smoke trims the sweep
# so CI stays fast while the committed artifact covers the full range.
SCALING_WORKER_COUNTS = (8, 64, 256, 1000)
SMOKE_WORKER_COUNTS = (8, 64)
# Responses completed before each point's update fires.
WARM_RESPONSES = 8

# The simulated results of one whole-tree update per server:
# (virtual_total_ms, words_scanned, likely_pointers).
UPDATE_SPEC = {
    "httpd": (45.659934, 38969, 182),
    "vsftpd": (39.661214, 15879, 0),
}


# The pointer-rich scratch mapping seeded into each scanned process.
SEED_FIELD_BYTES = 256 * 1024


def _scan_targets(process) -> List[Tuple[int, int]]:
    """The opaque areas the microbenchmark sweeps: data + heap mappings."""
    return [
        (m.base, m.size)
        for m in process.space.mappings()
        if m.kind in ("data", "heap")
    ]


def _pointers_key(found) -> List[Tuple[int, int, int, bool]]:
    return [(p.slot_address, p.value, p.target_base, p.interior) for p in found]


def _seed_pointer_field(process) -> None:
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
    scratch = process.space.map(
        SEED_FIELD_BYTES, name="scanperf_scratch", kind="data"
    )
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
    """Reference vs current scanner over one booted server's memory image."""
    world = boot_server(server)
    world.spec.workload().run(world.kernel)
    process = world.root
    _seed_pointer_field(process)
    targets = _scan_targets(process)
    resolve = AddressResolver(process).resolve
    index = snapshot_index(process)

    def sweep_ref() -> Tuple[List, int]:
        found: List = []
        words = 0
        for base, size in targets:
            got, scanned = conservative.scan_range_ref(process.space, base, size, resolve)
            found.extend(got)
            words += scanned
        return found, words

    def sweep() -> Tuple[List, int]:
        found: List = []
        words = 0
        for base, size in targets:
            got, scanned = conservative.scan_range(process.space, base, size, index)
            found.extend(got)
            words += scanned
        return found, words

    # Correctness first: identical outputs, and count resolve traffic.
    with obs.collecting(world.kernel.clock) as collector:
        ref_found, ref_words = sweep_ref()
    calls_ref = collector.counters.snapshot().get("scan.resolve_calls", 0)
    with obs.collecting(world.kernel.clock) as collector:
        found, words = sweep()
    calls = collector.counters.snapshot().get("scan.resolve_calls", 0)
    identical = _pointers_key(ref_found) == _pointers_key(found) and ref_words == words
    # Then timing (no collector installed: the publish hook is a no-op).
    ref_s = min(_timed(sweep_ref) for _ in range(repeats))
    scan_s = min(_timed(sweep) for _ in range(repeats))
    return {
        "server": server,
        "backend": index.name,
        "ranges": len(targets),
        "words": ref_words,
        "likely_pointers": len(ref_found),
        "identical": identical,
        "ref_words_per_sec": ref_words / ref_s if ref_s else 0.0,
        "words_per_sec": words / scan_s if scan_s else 0.0,
        "speedup": ref_s / scan_s if scan_s else 0.0,
        "resolve_calls_ref": calls_ref,
        "resolve_calls": calls,
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _measure_update(name: str) -> Dict[str, object]:
    """One full live update: host wall time beside the simulated results."""
    world = boot_server(name)
    world.spec.workload().run(world.kernel)
    ctl = McrCtl(world.kernel, world.session)
    with obs.collecting(world.kernel.clock) as collector:
        start = time.perf_counter()
        result = ctl.live_update(world.make_program(2), config=MCRConfig())
        wall_s = time.perf_counter() - start
    if not result.committed:
        raise RuntimeError(f"{name}: update failed: {result.error}")
    row = {
        "wall_ms": wall_s * 1000.0,
        "virtual_total_ms": result.total_ms(),
        "words_scanned": sum(
            s.words_scanned for s in result.transfer_report.per_process
        ),
        "likely_pointers": sum(
            len(r.likely_pointers)
            for r in result.transfer_report.trace_results.values()
        ),
        "traces_reused": collector.counters.snapshot().get("trace.memo_hits", 0),
    }
    row["matches_spec"] = UPDATE_SPEC[name] == (
        row["virtual_total_ms"], row["words_scanned"], row["likely_pointers"]
    )
    return row


def run_scaling_curve(worker_counts: Sequence[int]) -> List[Dict[str, object]]:
    """Sweep throughput and rolling-update wall time vs prefork pool size.

    Boots httpd with ``server_processes`` overridden per point, then
    updates the whole pool mid-flight through one rolling ``run_update``
    (batch = a quarter of the pool) under a keep-alive AB workload, and
    drains it.  The client reconnect stall is 100 ms: at 1000 workers a
    connection event wakes the whole epoll herd and each woken
    quiescent-point entry advances the global virtual clock, so
    per-request latency genuinely grows with the pool — an aggressive
    few-ms stall would starve itself.
    """
    from repro.servers import httpd

    rows: List[Dict[str, object]] = []
    for workers in worker_counts:
        def factory(version, _n=workers):
            return httpd.make_program(version, server_processes=_n)

        start = time.perf_counter()
        world = boot_server("httpd", make_program=factory)
        boot_s = time.perf_counter() - start
        process = world.root
        processes = len(process.tree())
        _seed_pointer_field(process)
        targets = _scan_targets(process)
        index = snapshot_index(process)

        def sweep() -> int:
            words = 0
            for base, size in targets:
                _got, scanned = conservative.scan_range(
                    process.space, base, size, index
                )
                words += scanned
            return words

        words = sweep()
        sweep_s = min(_timed(sweep) for _ in range(2))
        spaces = [p.space for p in process.tree()]
        mapped = sum(space.mapped_bytes() for space in spaces)
        resident = sum(space.resident_bytes() for space in spaces)
        workload = ApacheBench(
            world.port, requests=24, concurrency=4, reconnect_stall_ns=100_000_000
        )
        config = MCRConfig(
            update_mode="rolling", rolling_batch=max(1, workers // 4)
        )
        result, perceived, update_s = update_midflight(
            world, workload, config, WARM_RESPONSES
        )
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
                "committed": result.committed,
                "blackout_ms": ns_to_ms(perceived.blackout_ns),
                "slo_ok": perceived.slo_ok,
                "workload_errors": workload.errors,
                "mapped_mb": mapped / 1e6,
                "resident_mb": resident / 1e6,
                # Process high-water mark: monotonic across points.
                "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    return rows


def run_scanperf(smoke: bool = False) -> Dict[str, object]:
    return {
        "microbench": run_scan_micro(),
        "servers": {name: _measure_update(name) for name in UPDATE_SPEC},
        "scaling_curve": run_scaling_curve(
            SMOKE_WORKER_COUNTS if smoke else SCALING_WORKER_COUNTS
        ),
    }


def verdicts(results: Dict[str, object]) -> Dict[str, bool]:
    """The scanner agrees with its reference, the simulated update results
    equal ``UPDATE_SPEC``, and every curve point committed within its SLO
    with no client error."""
    curve = results["scaling_curve"]
    return {
        "scan_identical": results["microbench"]["identical"] is True,
        "matches_spec": all(
            row["matches_spec"] is True for row in results["servers"].values()
        ),
        "curve_committed": bool(curve) and all(p["committed"] for p in curve),
        "curve_slo_ok": all(p["slo_ok"] is True for p in curve),
        "curve_no_client_errors": all(p["workload_errors"] == 0 for p in curve),
    }


def render(results: Dict[str, object]) -> str:
    micro = results["microbench"]
    lines = [
        "Scan microbenchmark "
        f"({micro['server']}: {micro['words']} words, "
        f"{micro['likely_pointers']} likely pointers, "
        f"identical={fmt_cell(micro['identical'])}, backend={micro['backend']})",
        f"  reference : {micro['ref_words_per_sec']:,.0f} words/sec "
        f"({micro['resolve_calls_ref']} resolve calls)",
        f"  current   : {micro['words_per_sec']:,.0f} words/sec "
        f"({micro['resolve_calls']} resolve calls)",
        f"  speedup   : {micro['speedup']:.1f}x",
        "",
        render_table(
            "run_update per server",
            [
                "server",
                ("wall_ms", lambda row: f"{row['wall_ms']:.1f}"),
                ("virt_ms", lambda row: f"{row['virtual_total_ms']:.6f}"),
                ("words", "words_scanned"),
                ("likely", "likely_pointers"),
                "traces_reused",
                ("spec", "matches_spec"),
            ],
            [{"server": name, **row} for name, row in results["servers"].items()],
            note=(
                "wall = host time of ctl.live_update; spec = virt_ms/words/likely "
                "equal UPDATE_SPEC (the simulated results never move)"
            ),
        ),
    ]
    curve = results.get("scaling_curve")
    if curve:
        lines += [
            "",
            render_table(
                "httpd prefork scaling curve (rolling run_update)",
                [
                    "workers",
                    ("procs", "processes"),
                    ("boot_ms", lambda p: f"{p['boot_wall_ms']:.0f}"),
                    ("sweep_words/s", lambda p: f"{p['sweep_words_per_sec']:,.0f}"),
                    ("update_wall_ms", lambda p: f"{p['update_wall_ms']:.0f}"),
                    ("virt_ms", lambda p: f"{p['virtual_total_ms']:.1f}"),
                    ("batches", "rolling_batches"),
                    "blackout_ms",
                    "slo_ok",
                    ("mapped_MB", lambda p: f"{p['mapped_mb']:.0f}"),
                    ("resident_MB", lambda p: f"{p['resident_mb']:.1f}"),
                    ("maxrss_MiB", lambda p: f"{p['maxrss_mb']:.0f}"),
                    ("ok", "committed"),
                ],
                curve,
                note=(
                    "workers = server_processes override; update = one rolling "
                    "run_update with batch = workers/4 under a keep-alive "
                    "AB workload (100 ms reconnect stall), drained; blackout = "
                    "longest gap in completed responses; mapped/resident = "
                    "old tree before the clients start; maxrss = host process "
                    "high-water after the point (monotonic)"
                ),
            ),
        ]
    return "\n".join(lines)
