"""The build-time workflow of Figure 1: profile → instrument → run.

The paper's flow: the quiescence profiler suggests per-thread quiescent
points; the user feeds them to the static instrumentation, which wraps the
corresponding blocking call sites.  ``profile_program`` runs the profiler
in a throwaway world (``python -m repro profile`` prints its report); a
``Program``'s ``quiescent_points`` are what the instrumentation wraps —
``tests/test_build_workflow.py`` sets them from a profile alone and
updates the result, the programmatic equivalent of "integrating
quiescence profiling as part of their regression test suite" (§3).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.kernel.kernel import Kernel
from repro.mcr.quiescence.profiler import QuiescenceProfiler
from repro.mcr.quiescence.report import QuiescenceReport
from repro.runtime.program import Program


def profile_program(
    make_program: Callable[[], Program],
    setup_world: Callable[[Kernel], None],
    workload,
) -> QuiescenceReport:
    """Run the quiescence profiler on a fresh instance of the program."""
    kernel = Kernel()
    setup_world(kernel)
    return QuiescenceProfiler(kernel).profile(make_program(), workload)
