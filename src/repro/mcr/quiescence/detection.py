"""Run-time quiescence detection: the barrier protocol (paper §4).

The MCR build wraps every profiled quiescent-point call site so the
blocking call never truly blocks (*unblockification*): the wrapper issues
the call in timeout slices and runs the quiescence hook between slices.
When an update is requested the hook routes the thread into a barrier,
"immediately block[ing] all the running program threads".

The protocol object lives in the MCR session; the hook itself is invoked
from ``libmcr`` interception (the wrapper's hook call).  ``wait`` runs the
world until every live thread of the program tree is parked at the
barrier, giving the quiescence time reported in §8 (< 100 ms,
workload-independent).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Set, TYPE_CHECKING

from repro.errors import QuiescenceTimeout
from repro.kernel.kernel import Barrier, Kernel
from repro.mcr.faults import fire
from repro.kernel.process import Process, Thread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mcr.libmcr import MCRSession

# How long ``wait`` (and the controller's drive of a new tree to its
# barrier) runs the world before declaring QuiescenceTimeout: 1 s.
QUIESCENCE_DEADLINE_NS = 1_000_000_000


def tree_live_threads(root: Process) -> List[Thread]:
    """Every live thread of ``root``'s live tree, by walking it (laggard
    reports; ``Process.convergence`` keeps the same counts without one)."""
    threads: List[Thread] = []
    for process in root.tree():
        threads.extend(process.live_threads())
    return threads


class QuiescenceProtocol:
    """Barrier-synchronization quiescence for one program instance."""

    def __init__(self, session: "MCRSession") -> None:
        self.session = session
        self.barrier: Optional[Barrier] = None
        self.requested = False
        self.converged_at_ns: Optional[int] = None
        # Rolling-update scoping: when set, only these processes divert to
        # the barrier at their quiescent points — the rest of the tree
        # keeps serving.  None (the default, and the whole-tree mode)
        # scopes the protocol to every process.
        self.scope: Optional[Set[Process]] = None
        # Check-skipping floor for ``is_quiescent``: after a failed check,
        # no check can succeed until at least one more thread arrives at
        # the barrier (``Barrier.arrived`` is monotonic), so checks below
        # the floor are skipped — except a 1-in-64 sample that covers
        # stragglers exiting instead of arriving.  A whole-tree check is a
        # tally read and would be cheap without it, but the floor fixes
        # the step at which a straggler's exit is seen: virtual time.
        self._arrivals_floor = 0
        self._skipped_checks = 0

    # -- controller side ----------------------------------------------------------

    def request(self, scope: Optional[Iterable[Process]] = None) -> None:
        """Start the protocol; threads divert to the barrier at their QPs.

        ``scope`` restricts the protocol to a subset of processes (rolling
        updates quiesce one worker batch at a time); None quiesces the
        whole tree, exactly as before.
        """
        self.barrier = Barrier()
        self.requested = True
        self.converged_at_ns = None
        self.scope = set(scope) if scope is not None else None
        self._arrivals_floor = 0
        self._skipped_checks = 0

    def extend_scope(self, processes: Iterable[Process]) -> None:
        """Widen an in-progress scoped protocol to more processes.

        The rolling controller pre-requests batch N+1 here while batch N
        is still in transfer (the pipeline overlap); with no scope set the
        protocol already covers everything and this is a no-op.
        """
        if self.scope is not None:
            self.scope.update(processes)

    def in_scope(self, process: Process) -> bool:
        return self.scope is None or process in self.scope

    def is_quiescent(self, root: Process) -> bool:
        # Hot path: evaluated once per kernel step while an update drives
        # the world to the barrier.  The whole tree is read from its
        # convergence tally (O(1)); a scoped protocol (rolling updates)
        # iterates only the scoped batch, short-circuiting on the first
        # straggler.  The floor below decides *when* the predicate is
        # asked, and so the step at which a run stops.
        barrier = self.barrier
        if barrier is not None and barrier.arrived < self._arrivals_floor:
            self._skipped_checks += 1
            if self._skipped_checks & 63:
                return False
        scope = self.scope
        if scope is None:
            live, parked, _reached = root.convergence()
            if parked < live:
                if barrier is not None:
                    self._arrivals_floor = barrier.arrived + 1
                return False
            self._arrivals_floor = 0
            return live > 0
        any_thread = False
        for process in scope:
            if process.exited:
                continue
            for thread in process.live_threads():
                any_thread = True
                if not thread.at_barrier:
                    if barrier is not None:
                        self._arrivals_floor = barrier.arrived + 1
                    return False
        # Converged: disable the floor so every subsequent call (the
        # post-run re-check in ``wait``) answers deterministically.
        self._arrivals_floor = 0
        return any_thread

    def wait(
        self,
        root: Process,
        deadline_ns: Optional[int] = None,
        config=None,
    ) -> int:
        """Run the world until quiescent; returns quiescence time (ns).

        ``config`` is the *controller's* MCRConfig when an update drives
        this wait — its fault plan can differ from the session's; direct
        callers fall back to the session config.
        """
        kernel: Kernel = self.session.kernel
        if config is None:
            config = self.session.config
        fire(config, "quiescence.wait")
        if deadline_ns is None:
            deadline_ns = QUIESCENCE_DEADLINE_NS
        start_ns = kernel.clock.now_ns
        kernel.run(
            until=lambda: self.is_quiescent(root),
            max_ns=deadline_ns,
        )
        if not self.is_quiescent(root):
            laggards = [
                f"{t.process.name}:{t.name}@{t.top_function()}({t.blocked_on or t.state})"
                for t in tree_live_threads(root)
                if not t.at_barrier and self.in_scope(t.process)
            ]
            raise QuiescenceTimeout(
                f"quiescence not reached within {deadline_ns} ns; "
                f"laggards: {', '.join(laggards)}"
            )
        self.converged_at_ns = kernel.clock.now_ns
        return self.converged_at_ns - start_ns

    def release(self) -> None:
        """End the protocol (rollback or update completion): resume all."""
        self.requested = False
        self.scope = None
        if self.barrier is not None:
            self.barrier.release()
            self.barrier = None

    @contextmanager
    def held(self, root: Process, config=None) -> Iterator[int]:
        """Park ``root``'s whole tree for the block; yields ``wait``'s time.

        The barrier is released on exit, whether the block (or the wait
        itself) finished or raised.
        """
        self.request()
        try:
            yield self.wait(root, config=config)
        finally:
            self.release()

    # -- program side (called from unblockified wrappers via libmcr) ---------------

    def hook_should_block(self, process: Optional[Process] = None) -> bool:
        if not (self.requested and self.barrier is not None):
            return False
        return process is None or self.in_scope(process)
