"""Host-time attribution for the traced pass: one stack, spans and shims.

Nothing here runs in a plain (``--trace 0``) pass: ``Tracer.span`` and
``Tracer.collecting`` are no-ops until ``install()`` has put the timing
shims in place, so end-to-end numbers never pay for attribution.

In a traced pass two kinds of frame share one stack:

* **driver spans** — ``with tracer.span("runtime.boot")`` around the
  public calls the workload driver makes itself;
* **shims** — wrappers this module installs around the fixed ``SHIMS``
  table of public functions (and removes again in ``uninstall()``).

Each frame's *self* time is its duration minus the time its child
frames covered, so per-name self times add up to the traced wall time
with nothing counted twice.  Counters are not measured here: they are
the ones the program already publishes through ``repro.obs``, folded in
from the collectors the driver opens (``collecting``) or the program
owns (``absorb``).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (owner, attribute, frame name, work-done function of the result or None).
# Owners are "module" or "module:Class"; every target is a plain function
# reached through its owner at call time, so replacing the attribute is
# enough.  ``precise.pointer_slots`` is ``list(type.pointer_offsets())`` —
# timing it times the whole recursive ``pointer_offsets`` generator.
SHIMS: Tuple[Tuple[str, str, str, Optional[Callable[[Any], int]]], ...] = (
    ("repro.mem.address_space:AddressSpace", "clone", "mem.clone",
     lambda twin: twin.mapped_bytes()),
    ("repro.mem.address_space:AddressSpace", "write_bytes", "mem.write", None),
    ("repro.mem.address_space:AddressSpace", "write_word", "mem.write", None),
    ("repro.mcr.tracing.precise", "pointer_slots", "types.pointer_offsets", None),
    ("repro.mcr.tracing.graph:GraphBuilder", "build", "mcr.tracing.trace", None),
    ("repro.mcr.tracing.conservative", "scan_range", "mcr.tracing.scan", None),
    ("repro.mcr.tracing.transfer:StateTransfer", "run", "mcr.tracing.transfer", None),
    ("repro.mcr.ctl:McrCtl", "live_update", "mcr.controller.update", None),
    ("repro.obs.events:EventLog", "emit", "obs.emit", None),
    ("repro.obs.recorder:FlightRecorder", "record", "obs.emit", None),
)

# Counted but not timed: ``view`` is a few hundred ns, a timed frame
# around it would measure mostly the frame.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.mem.address_space:AddressSpace", "view", "mem.view"),
)


def _owner(path: str) -> Any:
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Self-time accounting over one stack of spans and shim frames."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._stack: List[List[int]] = []       # [start_ns, child_ns]
        self._installed: List[Tuple[Any, str, Any]] = []
        self.active = False                     # spans/collectors record only then
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(int)

    def reset(self) -> None:
        """Forget everything measured (start of a traced iteration)."""
        for table in (self.self_ns, self.calls, self.work, self.counters):
            table.clear()

    # -- frames -------------------------------------------------------------

    def _leave(self, name: str, frame: List[int]) -> None:
        elapsed = self._clock() - frame[0]
        stack = self._stack
        stack.pop()
        self.self_ns[name] += elapsed - frame[1]
        self.calls[name] += 1
        if stack:
            stack[-1][1] += elapsed

    def timed(self, name: str, fn: Callable, work=None) -> Callable:
        """``fn`` wrapped in a frame called ``name``."""
        stack, clock, leave, done = self._stack, self._clock, self._leave, self.work

        def shim(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, frame)
            if work is not None:
                done[name] += work(result)
            return result

        shim.__wrapped__ = fn
        return shim

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def shim(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        shim.__wrapped__ = fn
        return shim

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A driver span: a frame only when shims are installed."""
        if not self.active:
            yield
            return
        frame = [self._clock(), 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._leave(name, frame)

    # -- shims --------------------------------------------------------------

    def install(self) -> None:
        if self.active:
            raise RuntimeError("shims already installed")
        self.active = True
        for path, attr, name, work in SHIMS:
            self._replace(path, attr, lambda fn: self.timed(name, fn, work))
        for path, attr, name in COUNTED:
            self._replace(path, attr, lambda fn: self.counted(name, fn))

    def _replace(self, path: str, attr: str, wrap: Callable) -> None:
        owner = _owner(path)
        original = vars(owner)[attr]
        setattr(owner, attr, wrap(original))
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self.active = False

    # -- the program's own counters ------------------------------------------

    @contextmanager
    def collecting(self, clock: Any) -> Iterator[None]:
        """``obs.collecting`` for a world with no collector of its own.

        Traced passes only: a plain pass must not install a collector,
        the hot paths would start paying for it.
        """
        if not self.active:
            yield
            return
        from repro import obs

        with obs.collecting(clock) as collector:
            yield
        self.absorb(collector)

    def absorb(self, collector: Any) -> None:
        """Fold in the counters of a collector the program owns (a node's)."""
        if self.active:
            for name, value in collector.counters.snapshot().items():
                self.counters[name] += value
