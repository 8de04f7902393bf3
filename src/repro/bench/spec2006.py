"""SPEC CPU2006 analogue: allocator-instrumentation microbenchmarks.

The paper instruments all SPEC CPU2006 benchmarks with the static+dynamic
allocator instrumentation and reports ≤5% overhead except for perlbench
(36%), an allocation-dominated outlier.  We reproduce the experiment with
synthetic compute/allocation mixes: each "benchmark" performs a fixed
amount of work split between pure compute and malloc/free traffic; the
``perlbench`` profile is allocation-dominated.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.reporting import render_table
from repro.kernel.kernel import Kernel
from repro.kernel.process import sim_function
from repro.mcr.libmcr import MCRSession
from repro.runtime.annotations import Annotations
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import GlobalVar, Program, load_program
from repro.types.descriptors import INT64, PointerType, StructType

# (allocations per work unit, compute ns per work unit): the mix defines
# how allocation-sensitive the benchmark is.
WORKLOAD_MIXES: Dict[str, Dict[str, int]] = {
    "bzip2":     {"allocs": 1, "compute_ns": 48_000, "units": 60},
    "gcc":       {"allocs": 5, "compute_ns": 42_000, "units": 60},
    "mcf":       {"allocs": 2, "compute_ns": 52_000, "units": 60},
    "gobmk":     {"allocs": 3, "compute_ns": 46_000, "units": 60},
    "hmmer":     {"allocs": 1, "compute_ns": 55_000, "units": 60},
    "libquantum":{"allocs": 2, "compute_ns": 50_000, "units": 60},
    "perlbench": {"allocs": 28, "compute_ns": 26_000, "units": 60},
}

PAPER_NOTE = "paper: <=5% overhead on all benchmarks except perlbench (36%)"

_NODE = StructType("spec_node", [("value", INT64), ("next", PointerType(None))])


def _make_spec_program(name: str, mix: Dict[str, int]) -> Program:
    @sim_function
    def spec_main(sys):
        crt = sys.process.crt
        for _unit in range(mix["units"]):
            live: List[int] = []
            for _ in range(mix["allocs"]):
                node = crt.malloc_typed(sys.thread, _NODE)
                crt.set(node, _NODE, "value", 42)
                live.append(node)
            yield from sys.cpu(mix["compute_ns"])
            for node in live:
                crt.free(node)
        yield from sys.exit(0)

    return Program(
        name=f"spec-{name}",
        version="2006",
        globals_=[GlobalVar("spec_counter", INT64)],
        main=spec_main,
        types={"spec_node": _NODE},
        annotations=Annotations(),
    )


def measure_spec(name: str, instrumented: bool) -> int:
    """Virtual run time of one SPEC-analogue benchmark."""
    mix = WORKLOAD_MIXES[name]
    kernel = Kernel()
    program = _make_spec_program(name, mix)
    if instrumented:
        build = BuildConfig.dinstr()
        session = MCRSession(kernel, program, build)
        process = load_program(kernel, program, build=build, session=session)
    else:
        process = load_program(kernel, program, build=BuildConfig.baseline())
    start_ns = kernel.clock.now_ns
    kernel.run(until=lambda: process.exited, max_steps=5_000_000)
    return kernel.clock.now_ns - start_ns


def run_spec() -> Dict[str, float]:
    """Instrumented/baseline run-time ratio per benchmark."""
    results: Dict[str, float] = {}
    for name in WORKLOAD_MIXES:
        base_ns = measure_spec(name, instrumented=False)
        instr_ns = measure_spec(name, instrumented=True)
        results[name] = instr_ns / base_ns
    return results


def render(results: Dict[str, float]) -> str:
    rows = [
        {"benchmark": name, "normalized": ratio, "overhead": f"{(ratio - 1) * 100:.1f}%"}
        for name, ratio in results.items()
    ]
    return render_table(
        "SPEC CPU2006 analogue: allocator instrumentation overhead",
        ["benchmark", "normalized", "overhead"],
        rows,
        note=PAPER_NOTE,
    )
