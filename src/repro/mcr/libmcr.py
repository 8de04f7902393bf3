"""The MCR dynamic runtime (``libmcr.so`` analogue).

One ``MCRSession`` exists per *program instance* (the process tree of one
running version); one ``MCRRuntime`` attaches to each process in the tree.
``Sys._invoke`` routes a syscall of an MCR-enabled process through
``MCRRuntime.intercept`` whenever the session is still starting up or the
call site is a quiescent point of an unblockified build — the only calls
it acts on — and ``intercept`` is the single home of:

* **unblockification** (§4) — profiled quiescent-point call sites are
  issued in timeout slices with the quiescence hook run between slices;
  when the barrier protocol is active the thread parks at the barrier
  *before* consuming any new event.
* **startup recording** (§5) — during the old version's startup, every
  syscall is appended to the startup log until all long-lived threads
  reach their quiescent points.
* **replay routing** (§5) — during the new version's controlled startup,
  syscalls are diverted to the ``ReplayEngine``.
* **startup-end bookkeeping** — when startup completes the heap leaves
  startup mode (deferred frees run; separability flagging stops) and the
  soft-dirty bits are cleared (dirty-object tracking begins).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import obs
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, Thread
from repro.kernel.syscalls import SlicedWait, SyscallRequest, TIMEOUT
from repro.mcr.config import MCRConfig
from repro.mcr.quiescence.detection import QuiescenceProtocol
from repro.mcr.reinit.startup_log import StartupLog
from repro.mcr.reinit.callstack import sanitize_args, sanitize_result
from repro.runtime.instrument import BuildConfig

# Resident footprint of the preloaded runtime libraries (libmcr.so +
# linked libmcr.a), for the memory-usage benchmark.  Sized after the
# paper's LOC counts at ~14 resident bytes/LOC (code pages actually
# touched at run time).
LIBMCR_FOOTPRINT_BYTES = (21_133 + 3_476 + 4_531) * 14

PHASE_RECORD = "record"    # old version, during startup
PHASE_NORMAL = "normal"    # steady state
PHASE_RESTART = "restart"  # new version, controlled startup (replay)

# Unblockification (§4): a quiescent-point call is issued in timeout
# slices of ``UNBLOCKIFY_SLICE_NS``; each wrapped call pays the entry
# cost, and each slice that expires pays the re-arm.
UNBLOCKIFY_SLICE_NS = 20_000_000
UNBLOCKIFY_ENTRY_COST_NS = 260
UNBLOCKIFY_POLL_COST_NS = 1_200

# fd-creating syscalls subject to startup-time reserved-range allocation.
_SEPARABLE_FD_CREATORS = {
    "socket",
    "open",
    "connect",
    "accept",
    "epoll_create",
    "socketpair",
}


class MCRSession:
    """Session-wide MCR state for one running program version."""

    def __init__(
        self,
        kernel: Kernel,
        program: Any,
        build: BuildConfig,
        config: Optional[MCRConfig] = None,
        role: str = "primary",
    ) -> None:
        self.kernel = kernel
        self.program = program
        self.build = build
        self.config = config or MCRConfig()
        self.role = role  # "primary" (v1) | "restart" (v2)
        self.startup_log = StartupLog()
        self.quiescence = QuiescenceProtocol(self)
        # The quiescence hook, as the predicate every sliced wait carries:
        # divert a process's thread to the barrier before arming its call
        # again, so no new event is ever consumed mid-protocol.
        self.divert = self.quiescence.hook_should_block if build.qdet else None
        self.phase = PHASE_RESTART if role == "restart" else PHASE_RECORD
        self.startup_complete = False
        self.root_process: Optional[Process] = None
        self.runtimes: List["MCRRuntime"] = []
        # Startup-completion bookkeeping: ``_qp_marked`` counts threads
        # that reached a quiescent point at least once; the completion
        # check (a read of the root's convergence tally) is deferred until
        # it reaches ``_qp_check_floor`` (the live-thread total of the
        # last check).  The check is cheap, but the floor and the 1-in-64
        # re-visit samples fix the step at which startup is seen to
        # complete, and that step is virtual time.
        self._qp_marked = 0
        self._qp_check_floor = 0
        self._qp_repeat_notes = 0
        # Restart-side machinery, installed by the controller.
        self.replay_engine: Any = None
        self.stash: Any = None
        # Timing (update-time evaluation).
        self.startup_started_ns: Optional[int] = None
        self.startup_completed_ns: Optional[int] = None

    # -- process attachment ------------------------------------------------------

    def attach_process(self, process: Process) -> "MCRRuntime":
        runtime = MCRRuntime(self, process)
        self.runtimes.append(runtime)
        if self.root_process is None:
            self.root_process = process
            self.startup_started_ns = self.kernel.clock.now_ns
            # The session reads its root's tally (startup completion,
            # whole-tree quiescence): start it while the tree is one process.
            process.convergence()
        return runtime

    # -- startup-completion tracking ------------------------------------------------

    def note_qp_reached(self, thread: Thread) -> None:
        if self.startup_complete:
            return
        if not thread.reached_qp:
            thread.reached_qp = True
            thread.process.retally(0, 0, 1)
            self._qp_marked += 1
            if self._qp_marked < self._qp_check_floor:
                return
        else:
            # Re-visits can only complete startup when a not-yet-reached
            # thread exited meanwhile; sample them rather than re-walking
            # the whole tree on every loop iteration.
            self._qp_repeat_notes += 1
            if self._qp_repeat_notes & 63:
                return
        root = self.root_process
        if root is None:
            return
        live, _parked, reached = root.convergence()
        if live and reached == live:
            self.finish_startup()
            return
        # Not there yet: no check can succeed before every currently-live
        # thread has flipped, so defer the next one until then.
        self._qp_check_floor = live

    def finish_startup(self) -> None:
        """Startup over: run deferred frees, start dirty tracking.

        Soft-dirty tracking (and its write-protect faults) belongs to the
        dynamic-instrumentation layer; lighter builds skip it.
        """
        self.startup_complete = True
        self.startup_completed_ns = self.kernel.clock.now_ns
        if self.root_process is not None:
            for process in self.root_process.tree():
                process.heap.end_startup()
                if self.build.dynamic_instr:
                    process.space.clear_soft_dirty()
        if self.phase == PHASE_RECORD:
            self.phase = PHASE_NORMAL
        obs.gauge("mcr.startup_log_records", len(self.startup_log))
        obs.emit(
            "mcr.startup_complete",
            role=self.role,
            duration_ns=self.startup_duration_ns(),
            log_records=len(self.startup_log),
        )

    def startup_duration_ns(self) -> Optional[int]:
        if self.startup_started_ns is None or self.startup_completed_ns is None:
            return None
        return self.startup_completed_ns - self.startup_started_ns

    # -- memory accounting (memory-usage benchmark) -----------------------------------

    def metadata_bytes(self) -> int:
        total = LIBMCR_FOOTPRINT_BYTES
        total += self.startup_log.memory_bytes
        if self.root_process is not None:
            for process in self.root_process.tree():
                total += process.tags.overhead_bytes()
                total += 256  # process-hierarchy metadata node
                total += 128 * len(process.threads)
        return total


class MCRRuntime:
    """Per-process interposition layer."""

    def __init__(self, session: MCRSession, process: Process) -> None:
        self.session = session
        self.process = process
        self.build: BuildConfig = session.build  # fixed for the session's life

    def on_fork(self, child: Process) -> "MCRRuntime":
        return self.session.attach_process(child)

    # -- the funnel (generator; driven with yield from by Sys._invoke) ---------------

    def intercept(self, sys_api, name: str, args: Dict[str, Any], timeout_ns: Optional[int]):
        """Record, replay, reserve or unblockify one syscall — or pass it on.

        Correct for *every* call (the tests drive it unconditionally as the
        oracle); ``Sys._invoke`` merely skips it where it would pass the
        request through untouched.
        """
        thread: Thread = sys_api.thread
        session = self.session
        program = self.process.program
        is_qp = (
            program is not None
            and (thread.top_function(), name) in program.quiescent_points
        )
        if is_qp and self.build.unblockify:
            result = yield from self._unblockified(sys_api, name, args, timeout_ns)
            return result
        # Global separability: startup-time descriptors are allocated from
        # the reserved (non-reusable) fd range, so a startup fd number can
        # never be recycled into replay ambiguity (paper §5).
        if (
            self.build.dynamic_instr
            and not session.startup_complete
            and session.phase in (PHASE_RECORD, PHASE_RESTART)
            and name in _SEPARABLE_FD_CREATORS
        ):
            args = dict(args, reserved=True)
        if session.phase == PHASE_RESTART and not session.startup_complete:
            engine = session.replay_engine
            if engine is not None:
                result = yield from engine.handle(sys_api, name, args, timeout_ns)
                # The new version records its *own* startup log while
                # replaying, so it can itself be live-updated later (the
                # paper measures both the record and the replay phase in
                # the new version).
                if self.build.dynamic_instr:
                    session.startup_log.record(
                        self.process.pid,
                        list(thread.call_stack),
                        thread.stack_id(),
                        name,
                        sanitize_args(args),
                        sanitize_result(result),
                    )
                    obs.incr("mcr.replayed_ops_recorded")
                return result
        result = yield SyscallRequest(name, args, timeout_ns)
        if (
            session.phase == PHASE_RECORD
            and not session.startup_complete
            and self.build.dynamic_instr
        ):
            session.startup_log.record(
                self.process.pid,
                list(thread.call_stack),
                thread.stack_id(),
                name,
                sanitize_args(args),
                sanitize_result(result),
            )
            obs.incr("mcr.recorded_ops")
        return result

    # -- unblockification (§4) ----------------------------------------------------------

    def _unblockified(self, sys_api, name: str, args: Dict[str, Any], caller_timeout_ns: Optional[int]):
        """Issue a blocking call in slices, running the quiescence hook.

        Exposes the original call semantics to the program (including a
        caller-supplied timeout) while guaranteeing the thread re-enters
        user space every ``UNBLOCKIFY_SLICE_NS`` to check for a pending
        quiescence request.  The slices are one ``SlicedWait``: the kernel
        re-arms it at each expiry, charging ``UNBLOCKIFY_POLL_COST_NS``
        and running the hook, and resumes this generator only with the
        call's result, or with TIMEOUT when the hook diverts the thread or
        the caller's timeout has run out.
        """
        thread: Thread = sys_api.thread
        session = self.session
        session.kernel.clock.advance(UNBLOCKIFY_ENTRY_COST_NS)
        if not thread.reached_qp:
            session.note_qp_reached(thread)
        divert = session.divert
        process = thread.process
        wait = SlicedWait(
            name, args, UNBLOCKIFY_SLICE_NS, UNBLOCKIFY_POLL_COST_NS,
            "mcr.unblockify_rearms", caller_timeout_ns, divert,
        )
        while True:
            if divert is not None and divert(process):
                yield SyscallRequest(
                    "barrier_wait", {"barrier": session.quiescence.barrier}
                )
                # Barrier released: re-check (rollback resumes us here).
                continue
            if not wait.arm():
                return TIMEOUT
            result = yield wait
            if result is not TIMEOUT:
                return result
