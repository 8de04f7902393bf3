"""Shared test utilities: craft small programs/processes for unit tests."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.kernel.kernel import Kernel
from repro.kernel.process import sim_function
from repro.mem import scan_backend
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import MCRSession
from repro.runtime.program import GlobalVar, Program, load_program
from repro.types.descriptors import TypeDesc


@sim_function
def idle_main(sys):
    """A program body that parks forever (its QP is the nanosleep)."""
    while True:
        sys.loop_iter("idle")
        yield from sys.nanosleep(10_000_000)


def make_test_program(
    globals_: List[GlobalVar],
    types: Optional[Dict[str, TypeDesc]] = None,
    main=None,
    name: str = "testprog",
    version: str = "1",
) -> Program:
    return Program(
        name=name,
        version=version,
        globals_=globals_,
        main=main or idle_main,
        types=types or {},
        quiescent_points={("idle_main", "nanosleep")},
    )


def boot_test_program(
    program: Program,
    kernel: Optional[Kernel] = None,
    build: Optional[BuildConfig] = None,
):
    """Load + run until startup completes; returns (kernel, session, proc)."""
    kernel = kernel or Kernel()
    build = build or BuildConfig.full()
    session = MCRSession(kernel, program, build) if build.mcr_enabled else None
    process = load_program(kernel, program, build=build, session=session)
    if session is not None:
        kernel.run(until=lambda: session.startup_complete, max_steps=100_000)
    else:
        kernel.run(max_steps=1_000)
    return kernel, session, process


# Every scan index class this interpreter can run: the equivalence suites
# address both by class, whichever one ``scan_backend.ACTIVE`` is.
INDEX_CLASSES = [scan_backend.StdlibScanIndex]
if scan_backend.ACTIVE is scan_backend.NumpyScanIndex:
    INDEX_CLASSES.append(scan_backend.NumpyScanIndex)


def scan_index_of(objects, cls=None):
    """A scan index over synthetic ``(base, size, align-or-None)`` objects
    (sorted, disjoint)."""
    return (cls or scan_backend.ACTIVE)(
        [base for base, _, _ in objects],
        [base + size for base, size, _ in objects],
        objects,
    )


class CallCounter:
    """Count calls to ``owner.attr`` through monkeypatch, leaving it working."""

    def __init__(self, monkeypatch, owner, attr: str) -> None:
        self.calls = 0
        original = getattr(owner, attr)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
