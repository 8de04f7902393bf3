"""The quiescence profiler (paper §4).

Runs the target program under a user-supplied *execution-stalling* test
workload and reports, per thread class:

* where threads spend their stalled time (**statistical profiling of
  library calls** — the class's quiescent point candidate), and
* which loops never terminate during the workload (**loop profiling** —
  the long-lived loop the quiescent point lives under).

The workload must drive the program into every state that should be a
legal quiescent state at update time (e.g. idle connections).  Workloads
are callables ``(kernel) -> list[Process]`` that spawn simulated client
processes; profiling ends when every client exits.

The profiler attaches itself to the kernel it profiles and keeps both
inputs per thread: the kernel reports each wake (``on_wake``) and each
marked loop iteration (``Sys.loop_iter``) to it.  A kernel with no
profiler attached keeps neither, so only a profiling run pays for them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro import obs
from repro.errors import ProfilerError
from repro.kernel.kernel import Kernel
from repro.kernel.process import EXITED, Process, Thread
from repro.mcr.quiescence.report import QuiescenceReport, ThreadClass
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import Program, load_program

# Virtual time the test workload is observed for before the profiler
# accepts a stall as the end of the run.
OBSERVE_WINDOW_NS = 150_000_000


def _all_tree_processes(root: Process) -> List[Process]:
    """The whole process tree, including exited members (daemonize etc.)."""
    result = [root]
    stack = list(root.children)
    while stack:
        process = stack.pop()
        result.append(process)
        stack.extend(process.children)
    return result


def _tree_quiet(root: Process) -> bool:
    """Every live thread in the tree is blocked (a stall point)."""
    live_threads: List[Thread] = []
    for process in _all_tree_processes(root):
        if not process.exited:
            live_threads.extend(process.live_threads())
    return bool(live_threads) and all(t.state == "blocked" for t in live_threads)


class QuiescenceProfiler:
    """Profile a program; produce a ``QuiescenceReport``."""

    def __init__(self, kernel: Optional[Kernel] = None) -> None:
        self.kernel = kernel or Kernel()
        self.kernel.profiler = self
        # Per thread: stalled time by wait site, and the marked loops in
        # first-iteration order (a loop is never left in the model, so
        # every loop entered is still on the stack).
        self.stalls: Dict[Thread, Dict[str, int]] = {}
        self.loops: Dict[Thread, Dict[str, None]] = {}

    # -- kernel feed ------------------------------------------------------------

    def on_wake(self, thread: Thread) -> None:
        """``thread`` is leaving its park: charge the stall to its site."""
        site = thread.wait_site()
        sites = self.stalls.setdefault(thread, {})
        sites[site] = sites.get(site, 0) + self.kernel.clock.now_ns - thread.block_started_ns

    def on_loop_iter(self, thread: Thread, loop_name: str) -> None:
        self.loops.setdefault(thread, {})[f"{thread.top_function()}:{loop_name}"] = None

    def profile(
        self,
        program: Program,
        workload: Callable[[Kernel], List[Process]],
        settle_steps: int = 200_000,
        workload_steps: int = 2_000_000,
    ) -> QuiescenceReport:
        """Run ``program`` under ``workload`` and classify its threads."""
        kernel = self.kernel
        root = load_program(kernel, program, build=BuildConfig.baseline())
        # Phase 1: startup.  Run until the program stalls for the first
        # time; the classes alive now are the *persistent* ones.
        kernel.run(until=lambda: _tree_quiet(root), max_steps=settle_steps)
        if not _tree_quiet(root):
            raise ProfilerError(
                f"{program.name} never reached a stall state during startup"
            )
        startup_classes = self._live_class_ids(root)
        # Phase 2: the test workload.  Observation happens while the
        # execution-stalling connections are still open (that is the whole
        # point of the workload), so the run ends when the server tree and
        # every client are stalled — not when clients exit.
        clients = workload(kernel)
        if not clients:
            raise ProfilerError("workload spawned no client processes")
        t0_ns = kernel.clock.now_ns

        def observed() -> bool:
            if kernel.clock.now_ns - t0_ns < OBSERVE_WINDOW_NS:
                return False
            clients_stalled = all(
                c.exited or all(t.state == "blocked" for t in c.live_threads())
                for c in clients
            )
            return clients_stalled and _tree_quiet(root)

        kernel.run(until=observed, max_steps=workload_steps)
        if not observed():
            raise ProfilerError("test workload did not stall within budget")
        return self._classify(program, root, startup_classes)

    # -- internals ------------------------------------------------------------

    def _live_class_ids(self, root: Process) -> Set[int]:
        ids: Set[int] = set()
        for process in _all_tree_processes(root):
            if process.exited:
                continue
            for thread in process.live_threads():
                ids.add(thread.creation_stack_id)
        return ids

    def _classify(
        self,
        program: Program,
        root: Process,
        startup_classes: Set[int],
    ) -> QuiescenceReport:
        report = QuiescenceReport(program.name)
        classes: Dict[int, ThreadClass] = {}
        # creation stack id -> stalled time at the class's quiescent point.
        qp_ns: Dict[int, int] = {}
        for process in _all_tree_processes(root):
            for thread in process.threads.values():
                cls = classes.get(thread.creation_stack_id)
                if cls is None:
                    cls = ThreadClass(thread.creation_stack_id, thread.creation_stack)
                    classes[cls.creation_stack_id] = cls
                cls.count += 1
                if thread.state == EXITED or process.exited:
                    cls.exited_count += 1
                self._merge_thread_stats(cls, thread, qp_ns)
        for cls in classes.values():
            # A class is long-lived when at least one member survived the
            # whole profiling run.
            cls.kind = "long" if cls.exited_count < cls.count else "short"
            if cls.kind == "long":
                cls.persistent = cls.creation_stack_id in startup_classes
                if cls.quiescent_point is None:
                    raise ProfilerError(
                        f"long-lived class {cls.name} never blocked: "
                        "the test workload does not stall it"
                    )
            report.add_class(cls)
            obs.incr(f"quiescence.classes.{cls.kind}")
            obs.incr("quiescence.threads_profiled", cls.count)
        obs.emit(
            "quiescence.profiled",
            program=program.name,
            classes=len(classes),
            long_lived=sum(1 for c in classes.values() if c.kind == "long"),
        )
        return report

    def _merge_thread_stats(
        self, cls: ThreadClass, thread: Thread, qp_ns: Dict[int, int]
    ) -> None:
        # Statistical profiling: pick the site with the most stalled time.
        best_site: Optional[str] = None
        best_ns = -1
        for site, stalled_ns in self.stalls.get(thread, {}).items():
            if stalled_ns > best_ns:
                best_site, best_ns = site, stalled_ns
        # Include the site the thread is currently parked at (it may have
        # been stalled there since before any wake, with no accounting yet).
        if thread.state == "blocked" and thread.blocked_on:
            stalled_ns = self.kernel.clock.now_ns - thread.block_started_ns
            if stalled_ns > best_ns:
                best_site, best_ns = thread.wait_site(), stalled_ns
        if best_site is not None and best_ns > qp_ns.get(cls.creation_stack_id, -1):
            function, syscall = best_site.rsplit(":", 1)
            cls.quiescent_point = (function, syscall)
            qp_ns[cls.creation_stack_id] = best_ns
        # Loop profiling: loops still on the stack never terminated.
        for loop_key in self.loops.get(thread, ()):
            if loop_key not in cls.long_lived_loops:
                cls.long_lived_loops.append(loop_key)


def profile_program(
    make_program: Callable[[], Program],
    setup_world: Callable[[Kernel], None],
    workload,
) -> QuiescenceReport:
    """Run the quiescence profiler on a fresh instance of the program.

    The first step of Figure 1's profile → instrument → run workflow
    (``python -m repro profile`` prints its report): a ``Program``'s
    ``quiescent_points`` are what the instrumentation then wraps, and
    ``tests/test_build_workflow.py`` sets them from a profile alone.
    """
    kernel = Kernel()
    setup_world(kernel)
    return QuiescenceProfiler(kernel).profile(make_program(), workload)
