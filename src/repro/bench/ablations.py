"""Ablation studies of MCR's design choices (DESIGN.md §Design-choices).

Each ablation turns off one mechanism the paper argues for and measures
what it buys:

* **dirty tracking** — Figure 3 attributes short transfer times to the
  soft-dirty filter; transferring everything shows the cost of skipping it.
* **parallel transfer** — §6 parallelizes state transfer across the
  process hierarchy; the serial alternative is what a single-threaded
  coordinator would pay.
* **opaque-int64 policy** — §6's default run-time policy treats
  pointer-sized integers as opaque; turning it off loses the nginx
  pointer-as-integer idiom.
* **interior-only nonupdatability** — the paper's unimplemented refinement
  (implemented here as an option): base-pointer likely targets stay
  type-transformable.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.harness import boot_server, quiesced_traces
from repro.bench.reporting import render_table
from repro.clock import ns_to_ms
from repro.mcr.config import MCRConfig
from repro.mcr.controller import LiveUpdateController
from repro.mcr.tracing.invariants import invariant_counts
from repro.runtime.annotations import Annotations


def _run_update(server: str, connections: int, use_dirty_filter: bool):
    world = boot_server(server)
    world.spec.workload().run(world.kernel)
    if connections:
        world.hold(connections).establish(world.kernel)
    controller = LiveUpdateController(
        world.kernel,
        world.session,
        world.make_program(2),
        use_dirty_filter=use_dirty_filter,
    )
    result = controller.run_update()
    if not result.committed:
        raise RuntimeError(f"{server}: {result.error}")
    return result


def ablate_dirty_tracking(server: str = "vsftpd", connections: int = 8) -> Dict[str, float]:
    """Transfer time with and without the soft-dirty filter.

    Parallel per-process transfer hides much of the wall-clock cost of
    transferring clean state, so the serial totals (what each process
    actually does) are reported too — that is where the 68-86% byte
    reduction shows up as time.
    """
    with_filter = _run_update(server, connections, use_dirty_filter=True)
    without_filter = _run_update(server, connections, use_dirty_filter=False)
    serial_with = with_filter.transfer_report.serial_total_ns()
    serial_without = without_filter.transfer_report.serial_total_ns()
    work_with = sum(
        s.work_ns() for s in with_filter.transfer_report.per_process
    )
    work_without = sum(
        s.work_ns() for s in without_filter.transfer_report.per_process
    )
    return {
        "work_speedup": work_without / max(work_with, 1),
        "with_ms": ns_to_ms(with_filter.transfer_ns),
        "without_ms": ns_to_ms(without_filter.transfer_ns),
        "speedup": without_filter.transfer_ns / with_filter.transfer_ns,
        "serial_with_ms": ns_to_ms(serial_with),
        "serial_without_ms": ns_to_ms(serial_without),
        "serial_speedup": serial_without / serial_with,
        "objects_with": sum(
            s.objects_transferred for s in with_filter.transfer_report.per_process
        ),
        "objects_without": sum(
            s.objects_transferred for s in without_filter.transfer_report.per_process
        ),
    }


def ablate_parallel_transfer(server: str = "vsftpd", connections: int = 8) -> Dict[str, float]:
    """Parallel (per-process max) vs serial (sum) transfer accounting."""
    result = _run_update(server, connections, use_dirty_filter=True)
    report = result.transfer_report
    serial_ns = report.serial_total_ns()
    return {
        "parallel_ms": ns_to_ms(report.total_ns),
        "serial_ms": ns_to_ms(serial_ns),
        "speedup": serial_ns / report.total_ns,
        "processes": len(report.per_process),
    }


def ablate_int64_policy(server: str = "nginx") -> Dict[str, int]:
    """Likely-pointer discovery with/without the pointer-as-int policy."""
    counts = {}
    for label, flag in (("on", True), ("off", False)):
        world = boot_server(server)
        world.spec.workload().run(world.kernel)
        # Explicitly annotationless: the shipped encoded-pointer annotation
        # would otherwise decode the idiom precisely in both variants.
        traces = quiesced_traces(
            world, MCRConfig(scan_opaque_int64=flag), Annotations()
        )
        counts[f"likely_{label}"] = sum(len(t.likely_pointers) for t in traces)
        counts[f"immutable_{label}"] = sum(
            len(t.immutable_objects()) for t in traces
        )
    return counts


def ablate_interior_only(server: str = "httpd") -> Dict[str, int]:
    """Nonupdatable-object counts with the interior-only refinement."""
    counts = {}
    for label, flag in (("strict", False), ("interior_only", True)):
        world = boot_server(server)
        world.spec.workload().run(world.kernel)
        traces = quiesced_traces(
            world,
            MCRConfig(interior_only_nonupdatable=flag),
            world.program.annotations,
        )
        counts[label] = sum(invariant_counts(t)["nonupdatable"] for t in traces)
    return counts


def run_all() -> Dict[str, Dict]:
    """Run every ablation; one JSON-exportable mapping."""
    return {
        "dirty_tracking": ablate_dirty_tracking(),
        "parallel_transfer": ablate_parallel_transfer(),
        "int64_policy": ablate_int64_policy(),
        "interior_only": ablate_interior_only(),
    }


def verdicts(results: Dict[str, Dict]) -> Dict[str, bool]:
    """What each mechanism buys, read off ``run_all``'s rows."""
    dirty, parallel = results["dirty_tracking"], results["parallel_transfer"]
    int64, interior = results["int64_policy"], results["interior_only"]
    return {
        # Parallelism and fixed coordination costs hide much of the saving
        # wall-clock; the pure per-object work shows it.
        "dirty_tracking_reduces_work": dirty["objects_without"] > dirty["objects_with"] * 3
        and dirty["work_speedup"] > 1.25
        and dirty["serial_speedup"] > 1.05
        and dirty["speedup"] >= 1.0,
        "parallel_beats_serial": parallel["processes"] >= 7 and parallel["speedup"] > 1.0,
        "int64_policy_finds_hidden_pointers": int64["likely_on"] > int64["likely_off"],
        "interior_only_not_larger": interior["interior_only"] <= interior["strict"],
    }


def render(results: Dict[str, Dict]) -> str:
    dirty = results["dirty_tracking"]
    parallel = results["parallel_transfer"]
    int64 = results["int64_policy"]
    interior = results["interior_only"]
    rows = [
        {"mechanism": "dirty tracking (vsftpd, 8 conns)",
         "enabled": f"{dirty['serial_with_ms']:.1f}ms serial / {dirty['objects_with']} objs",
         "variant": f"{dirty['serial_without_ms']:.1f}ms serial / "
                    f"{dirty['objects_without']} objs",
         "benefit": f"{dirty['serial_speedup']:.2f}x"},
        {"mechanism": "parallel transfer (vsftpd, 8 conns)",
         "enabled": f"{parallel['parallel_ms']:.1f}ms",
         "variant": f"{parallel['serial_ms']:.1f}ms",
         "benefit": f"{parallel['speedup']:.2f}x"},
        {"mechanism": "int64 opacity policy (nginx)",
         "enabled": f"likely={int64['likely_on']}",
         "variant": f"likely={int64['likely_off']}",
         "benefit": None},
        {"mechanism": "interior-only nonupdatable (httpd)",
         "enabled": f"nonupd={interior['strict']}",
         "variant": f"nonupd={interior['interior_only']}",
         "benefit": None},
    ]
    return render_table(
        "Ablations of MCR design choices",
        ["mechanism", "enabled", ("disabled/variant", "variant"), "benefit"],
        rows,
    )
