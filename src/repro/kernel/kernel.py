"""The simulated kernel: world state plus a cooperative scheduler.

Scheduling model: a round-robin run queue of threads.  Each step resumes a
thread's generator with the result of its previous syscall; the generator
yields its next ``SyscallRequest``; the syscall table executes it.  Blocking
syscalls park the thread with a readiness predicate and name what can make
it true: the *wait channels* (kernel objects) whose state changes can
satisfy it, or the virtual time at which it comes true (``nanosleep``).
Timed calls add the caller's deadline (this is what MCR's unblockification
builds on).

One wait model: a parked thread's predicate is polled only when one of its
wait channels was kicked, or when its one deadline-heap entry -- the
earlier of its wake time and its caller's deadline -- came due.  A park
that names neither a channel nor a wake time is a kernel bug and raises.
Idle workers therefore cost nothing per round, which is what makes
1000-worker process trees steppable.  When nothing is runnable the clock
jumps to the earliest heap entry, so blocking costs no host time; when the
heap holds none, the world is idle.  A ``SlicedWait`` (MCR's unblockified
call) is re-armed in place at each slice expiry, and a quiet world's
expiries are taken one at a time without the round machinery
(``_quiet_stretch``).

Virtual time advances by a per-step cost plus the dispatched syscall's cost
(see ``syscalls.BASE_COSTS``); soft-dirty write-protect faults taken by the
running process are charged as they occur.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.clock import VirtualClock
from repro.errors import SimError
from repro.kernel.files import SimFileSystem
from repro.kernel.namespaces import PidNamespace
from repro.kernel.process import BLOCKED, EXITED, Process, RUNNABLE, Thread, WaitQueue
from repro.kernel.sockets import NetworkStack
from repro.kernel.syscalls import (
    Blocked,
    DEFAULT_COST_NS,
    ExitProcess,
    ReplaceImage,
    SlicedWait,
    SyscallRequest,
    SyscallTable,
    TIMEOUT,
)


# The world's cost model beside ``syscalls.BASE_COSTS``: virtual time each
# scheduler step costs, what one soft-dirty write-protect fault costs, and
# the step budget of a ``run`` that names none.
STEP_COST_NS = 150
SOFT_DIRTY_FAULT_COST_NS = 2_500
MAX_STEPS_DEFAULT = 5_000_000

# What ``Kernel._quiet_stretch``'s next round does after its head.
_POLL, _STEP, _ADVANCE = range(3)


# Payloads of the scheduler's events, rendered only when an event log or
# flight recorder is read: the hot path records the raw fields.
def _block_payload(process_name: str, thread_name: str, reason: str) -> Dict[str, Any]:
    return {"thread": f"{process_name}:{thread_name}", "reason": reason}


def _wake_payload(
    process_name: str, thread_name: str, function: str, blocked_on: str, blocked_ns: int
) -> Dict[str, Any]:
    return {
        "thread": f"{process_name}:{thread_name}",
        "site": f"{function}:{blocked_on.split(':')[0]}",
        "blocked_ns": blocked_ns,
    }


def _jump_payload(jump_ns: int) -> Dict[str, Any]:
    return {"jump_ns": jump_ns}


class Barrier:
    """Quiescence-protocol rendezvous: threads park until released."""

    def __init__(self) -> None:
        self.arrived = 0
        self.released = False
        self.waitq = WaitQueue()

    def release(self) -> None:
        self.released = True
        self.waitq.kick()


class Kernel:
    """World state: processes, network, filesystem, namespace, clock."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.net = NetworkStack()
        self.fs = SimFileSystem()
        self.pidns = PidNamespace()  # the root (default) namespace
        self.syscalls = SyscallTable(self)
        # Keyed by a kernel-global id: pids are only unique per namespace
        # (MCR restarts the new version in its own namespace so old-version
        # pids can be mirrored).
        self.processes: Dict[int, Process] = {}
        self._next_global_id = 1
        self._run_queue: Deque[Thread] = deque()
        # All currently-blocked threads, in park order.  A dict (insertion
        # ordered, O(1) add/remove) rather than a list: at 1000-worker
        # scale the old list's O(n) remove-on-wake dominated.
        self._blocked: Dict[Thread, None] = {}
        # What can wake a parked thread: the threads whose wait channel was
        # kicked, and a heap of (when_ns, entry_seq, thread, park_seq)
        # entries, one per timed park.  Heap entries are validated lazily
        # against the thread's park_seq.
        self._hot: List[Thread] = []
        self._deadlines: List[Tuple[int, int, Thread, int]] = []
        self._park_counter = 0
        self._heap_counter = 0
        # global_id -> soft-dirty faults already charged to the clock
        # (not pid: a new version's namespace mirrors the old one's pids).
        self._fault_charged: Dict[int, int] = {}
        self.steps_executed = 0
        # Deterministic record/replay: when a ``repro.replay.TraceLog``
        # is bound here (``trace.bind_kernel(kernel)``), every scheduler
        # pick folds into its rolling pick-order CRC.
        self.trace = None
        # The ``QuiescenceProfiler`` that owns this kernel, if one does:
        # only then do wakes and loop iterations feed profiling input.
        self.profiler = None

    # -- process/thread lifecycle ---------------------------------------------

    def spawn_process(
        self,
        main: Callable,
        args: Tuple = (),
        name: str = "proc",
        parent: Optional[Process] = None,
        creation_stack: Optional[List[str]] = None,
        namespace: Optional[PidNamespace] = None,
    ) -> Process:
        """Create a fresh process running ``main(sys, *args)``."""
        ns = namespace or self.pidns
        pid = ns.allocate()
        process = Process(pid, self, name, parent=parent, creation_stack=creation_stack)
        process.namespace = ns
        self._register(process)
        self._start_thread(process, main, args, "main", creation_stack)
        return process

    def _register(self, process: Process) -> None:
        process.global_id = self._next_global_id
        self._next_global_id += 1
        self.processes[process.global_id] = process

    def do_fork(self, caller: Thread, child_main: Callable, args: Tuple, name: str) -> Process:
        """fork() from a running thread, which supplies the parent and the
        creation stack; the fork body itself is ``fork_for_restore``'s."""
        parent = caller.process
        creation_stack = list(caller.call_stack) + [getattr(child_main, "__name__", "child")]
        child_name = name or f"{parent.name}-child"
        return self.fork_for_restore(parent, child_main, args, child_name, creation_stack)

    def fork_for_restore(
        self,
        parent: Process,
        child_main: Callable,
        args: Tuple,
        name: str,
        creation_stack: List[str],
        forced_pid: Optional[int] = None,
    ) -> Process:
        """Fork a child of ``parent``; callable outside any running thread.

        MCR's post-startup reinit handlers use this to recreate volatile
        quiescent states: new-version counterparts of old-version processes
        that were spawned on demand (per-connection workers).  The explicit
        ``creation_stack`` and ``forced_pid`` make the child pair with its
        old-version counterpart.
        """
        namespace = getattr(parent, "namespace", None) or self.pidns
        if forced_pid is not None:
            namespace.force_next_pid(forced_pid)
        pid = namespace.allocate()
        space = parent.space.clone()
        child = Process(
            pid,
            self,
            name,
            parent=parent,
            space=space,
            heap=parent.heap.clone_into(space),
            tags=parent.tags.clone(),
            fdtable=parent.fdtable.clone(),
            creation_stack=creation_stack,
        )
        child.program = parent.program
        child.namespace = namespace
        for attr in ("build", "symbols", "libs"):
            if hasattr(parent, attr):
                setattr(child, attr, getattr(parent, attr))
        if hasattr(parent, "crt"):
            child.crt = parent.crt.on_fork(child)
        self._register(child)
        if parent.runtime is not None:
            child.runtime = parent.runtime.on_fork(child)
        self._start_thread(child, child_main, args, "main", creation_stack)
        return child

    def do_exec(self, caller: Thread, image_name: str, main: Callable, args: Tuple) -> None:
        """Replace the process image (exec of an uninstrumented helper)."""
        from repro.mem.address_space import AddressSpace
        from repro.mem.ptmalloc import PtMallocHeap
        from repro.mem.tags import TagStore

        process = caller.process
        for thread in list(process.threads.values()):
            if thread is not caller and thread.state != EXITED:
                self._retire_thread(thread)
        self._release_image(process)
        process.name = image_name
        process.space = AddressSpace()
        process.heap = PtMallocHeap(process.space)
        process.tags = TagStore()
        process.runtime = None  # exec'd helpers run uninstrumented
        process.program = None
        creation_stack = list(caller.call_stack) + [image_name]
        self._start_thread(process, main, args, "main", creation_stack)
        # The caller thread itself is retired by the scheduler on return.

    def do_thread_create(self, caller: Thread, main: Callable, args: Tuple, name: str) -> Thread:
        creation_stack = list(caller.call_stack) + [getattr(main, "__name__", name)]
        return self._start_thread(caller.process, main, args, name, creation_stack)

    def _start_thread(
        self,
        process: Process,
        main: Callable,
        args: Tuple,
        name: str,
        creation_stack: Optional[List[str]] = None,
    ) -> Thread:
        from repro.kernel.sysapi import Sys

        thread = process.add_thread(None, name, creation_stack)
        sys_api = Sys(thread)
        thread.body = main(sys_api, *args)
        self._run_queue.append(thread)
        return thread

    def terminate_process(self, process: Process, status: int = 0) -> None:
        """Kill a process (exit(), MCR rollback, or old-version teardown)."""
        if process.exited:
            return
        for thread in list(process.threads.values()):
            self._retire_thread(thread)
        for obj in process.fdtable.close_all():
            self.drop_reference(obj)
        self._release(process, status)
        # A parent blocked in wait_child can now reap this process.
        parent = process.parent
        if parent is not None and not parent.exited:
            parent.waitq.kick()

    def drop_reference(self, obj: Any) -> None:
        """One descriptor stopped referring to ``obj``; the last one to do
        so closes the stream, frees the port or drains the unix channel."""
        release = getattr(obj, "release", None)
        if release is not None:
            release()
            if obj.refcount > 0:
                return
        kind = getattr(obj, "kind", None)
        if kind == "listener":
            self.net.release_port(obj)
        elif kind in ("stream", "unix"):
            # A unix close() also drains undelivered fd-passing messages,
            # so a dead channel pins nothing.
            obj.close()

    def terminate_tree(self, process: Process, status: int = 0) -> None:
        """Kill a process and every live descendant (rollback/teardown)."""
        for descendant in process.descendants():
            self.terminate_process(descendant, status)
        self.terminate_process(process, status)

    def crash_tree(self, process: Process, status: int = 137) -> None:
        """Kill a tree *abruptly*: no fd release, no port cleanup.

        Models a host/process crash (SIGKILL, power loss) for failover
        drills: descriptors are simply abandoned — connected peers see a
        dead endpoint, the listener stays in the port table wedged — and
        nothing that orderly ``terminate_process`` teardown would have
        done (refcount releases, accept-queue drains) happens.  Recovery
        must come from a checkpoint image, never from this kernel.
        """
        for victim in [process] + process.descendants():
            if victim.exited:
                continue
            for thread in list(victim.threads.values()):
                self._retire_thread(thread)
            self._release(victim, status)

    def _release(self, process: Process, status: int) -> None:
        """The one death of a process, orderly or not: mark it exited,
        free its pid and its fault ledger entry, and give back its image.

        It stays in ``processes`` — its exit status and name are still
        asked for — but ``tree()``, ``descendants()`` and
        ``live_processes()`` skip it, so nothing that walks a live tree
        can reach the image this drops.
        """
        process.exited = True
        process.exit_status = status
        (process.namespace or self.pidns).release(process.pid)
        self._fault_charged.pop(process.global_id, None)
        self._release_image(process)

    @staticmethod
    def _release_image(process: Process) -> None:
        """Give back the host memory of ``process``'s image: its stores,
        its heap's tables and its tag table (exit, crash, or the image
        ``exec`` replaces).  A late read faults as unmapped."""
        process.space.release()
        process.heap.release()
        process.tags.release()

    def _retire_thread(self, thread: Thread) -> None:
        if thread.state == EXITED:
            return
        thread.state = EXITED
        thread.process.retally(-1, -thread.at_barrier, -thread.reached_qp)
        if thread.body is not None:
            thread.body.close()
        if thread in self._run_queue:
            self._run_queue.remove(thread)
        self._blocked.pop(thread, None)

    # -- scheduler ----------------------------------------------------------------

    def run(
        self,
        max_steps: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
        max_ns: Optional[int] = None,
    ) -> str:
        """Run the world.  Returns the stop reason.

        * ``"until"``     — the ``until`` predicate became true
        * ``"idle"``      — no thread runnable, none can ever become ready
        * ``"max_steps"`` / ``"max_ns"`` — budget exhausted
        """
        budget = max_steps if max_steps is not None else MAX_STEPS_DEFAULT
        clock = self.clock
        deadline_ns = None if max_ns is None else clock.now_ns + max_ns
        run_queue = self._run_queue
        deadlines = self._deadlines
        asked = False  # ``until`` was asked at this round head already
        while True:
            if asked:
                asked = False
            elif until is not None and until():
                return "until"
            if budget <= 0:
                return "max_steps"
            if deadline_ns is not None and clock.now_ns >= deadline_ns:
                return "max_ns"
            # Run every currently-runnable thread one step.  ``until`` and
            # the budget are checked once before each step; the round
            # head's verdicts above stand for the round's first step,
            # since nothing runs in between.
            made_progress = False
            for _ in range(len(run_queue)):
                if made_progress:
                    if until is not None and until():
                        return "until"
                    if budget <= 0:
                        return "max_steps"
                try:
                    thread = run_queue.popleft()
                except IndexError:
                    # An exit this round retired threads queued behind it.
                    break
                if thread.state != RUNNABLE:
                    continue
                self._step(thread)
                budget -= 1
                made_progress = True
            # Poll kicked / deadline-due blocked threads — when there is
            # one: most rounds of a busy server have none.
            if (
                self._hot or (deadlines and deadlines[0][0] <= clock.now_ns)
            ) and self._poll_blocked():
                made_progress = True
            if not made_progress and not run_queue:
                if not self._advance_to_next_deadline():
                    return "idle"
                if self.trace is None and self.profiler is None:
                    reason, budget, asked = self._quiet_stretch(until, budget, deadline_ns)
                    if reason is not None:
                        return reason

    def _quiet_stretch(
        self, until: Optional[Callable[[], bool]], budget: int, deadline_ns: Optional[int]
    ) -> Tuple[Optional[str], int, bool]:
        """``run``'s rounds while the world is quiet, one slice expiry at a
        time, without the round, poll and generator machinery.

        Quiet: nothing runnable or kicked, and one ``SlicedWait`` slice
        comes due alone -- an idle MCR server.  Each expiry takes ``run``'s
        rounds (the thread times out; its step re-arms the call; the clock
        advances), with ``until``, the budget and ``max_ns`` asked at each
        round head, so every stop, charge, event, tick and ``park_seq`` is
        the stepped loop's; counters are added when the stretch ends.
        With no ``until``, nothing but re-arms runs between two expiries,
        so a channel wait parks again on the ``Blocked`` its handler gave
        in this stretch (a handler that parks changes nothing).

        Entered right after an advance.  A round that is not quiet is
        handed back at its head: ``(None, budget, asked)``, ``asked`` when
        ``until`` was asked there; else ``(reason, budget, False)``.
        """
        clock = self.clock
        heap = self._deadlines
        run_queue = self._run_queue
        entries = self.syscalls.entries
        collector = obs.ACTIVE
        expiries = 0  # timed-out wakes; then re-arms by counter, re-parks by call
        rearms: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        parked: Dict[Thread, Blocked] = {}
        after = _POLL  # what the round after the next head does
        try:
            while True:
                if until is not None and until():
                    return "until", budget, False
                if budget <= 0:
                    return "max_steps", budget, False
                if deadline_ns is not None and clock.now_ns >= deadline_ns:
                    return "max_ns", budget, False
                if self._hot or len(run_queue) != (after == _STEP):
                    return None, budget, True
                if after == _ADVANCE:
                    if not self._advance_to_next_deadline():
                        return "idle", budget, False
                    after = _POLL
                    continue
                if after == _STEP:
                    if run_queue[0] is not thread:  # ``until`` changed the queue
                        return None, budget, True
                    run_queue.popleft()
                    budget -= 1
                    blocked = parked.get(thread)
                    divert = wait.divert
                    process = thread.process
                    timeout_ns = wait.caller_timeout_ns
                    if (
                        blocked is None
                        or (divert is not None and divert(process))
                        or (
                            timeout_ns is not None
                            and timeout_ns - wait.waited_ns - wait.timeout_ns <= 0
                        )
                    ):
                        blocked = self._step(thread)
                        if blocked is None or thread.sliced is not wait:
                            # The caller resumed, or its call completed.
                            if self._hot or (heap and heap[0][0] <= clock.now_ns):
                                self._poll_blocked()
                            return None, budget, False
                        if until is None and blocked.wake_ns is None:
                            parked[thread] = blocked
                    else:
                        # ``_step`` re-arming the call.
                        thread.pending_value = None
                        self.steps_executed += 1
                        clock.now_ns += STEP_COST_NS
                        name = wait.name
                        if collector is not None:
                            process.gauge_stamp = self.steps_executed
                            collector.recorder.tick(self)
                            rearms[wait.rearm_counter] = rearms.get(wait.rearm_counter, 0) + 1
                            calls[name] = calls.get(name, 0) + 1
                        wait.waited_ns += wait.timeout_ns
                        clock.now_ns += wait.rearm_ns + entries[name][1]
                        wait.arm()
                        if collector is not None:
                            collector.events.emit_raw(
                                "sched.block",
                                _block_payload,
                                (process.name, thread.name, blocked.reason),
                            )
                        self._park(thread, blocked, clock.now_ns + wait.timeout_ns)
                    if self._hot:
                        self._poll_blocked()
                        return None, budget, False
                    if not (heap and heap[0][0] <= clock.now_ns):
                        after = _ADVANCE
                        continue
                # The round's poll, with an entry due: one slice alone?
                now = clock.now_ns
                when, _entry, thread, seq = heap[0]
                wait = thread.sliced
                if (
                    wait is None
                    or thread.wait_deadline_ns != when
                    or thread.state != BLOCKED
                    or thread.park_seq != seq
                    or (len(heap) > 1 and heap[1][0] <= now)
                    or (len(heap) > 2 and heap[2][0] <= now)
                ):
                    if self._poll_blocked() or after == _STEP:
                        return None, budget, False
                    if not self._advance_to_next_deadline():
                        return "idle", budget, False
                    continue
                heapq.heappop(heap)
                is_ready, value = thread.wait_ready()
                if is_ready:
                    self._wake(thread, value)
                    return None, budget, False
                # ``_wake(thread, TIMEOUT)``.
                if collector is not None:
                    expiries += 1
                    stack = thread.call_stack
                    collector.events.emit_raw(
                        "sched.wake",
                        _wake_payload,
                        (
                            thread.process.name,
                            thread.name,
                            stack[-1] if stack else "<entry>",
                            thread.blocked_on,
                            now - thread.block_started_ns,
                        ),
                    )
                del self._blocked[thread]
                thread.state = RUNNABLE
                thread.wait_ready = thread.wait_deadline_ns = None
                thread.blocked_on = ""
                thread.pending_value = TIMEOUT
                run_queue.append(thread)
                after = _STEP
        finally:
            if expiries:
                counters = collector.counters
                counters.incr("sched.wakes", expiries)
                counters.incr("sched.wake_timeouts", expiries)
                for name, count in rearms.items():
                    counters.incr("kernel.steps", count)
                    counters.incr(name, count)
                for name, count in calls.items():
                    counters.incr("syscall." + name, count)
                    counters.incr("syscall.total", count)
                    counters.incr("sched.blocks", count)

    def run_for(self, duration_ns: int, max_steps: Optional[int] = None) -> str:
        """Run the world for exactly ``duration_ns`` of virtual time.

        Unlike a bare ``clock.advance``, any runnable thread gets to
        execute while the interval elapses — this is what lets a rolling
        live update charge one worker batch's transfer time while the
        not-yet-quiesced workers keep serving clients.  If the world goes
        idle (or parks at barriers) before the deadline, the clock is
        topped up so the caller's interval is always fully charged.
        """
        if duration_ns <= 0:
            return "until"
        deadline_ns = self.clock.now_ns + duration_ns
        reason = self.run(max_steps=max_steps, max_ns=duration_ns)
        if self.clock.now_ns < deadline_ns:
            self.clock.advance(deadline_ns - self.clock.now_ns)
        return reason

    def _step(self, thread: Thread) -> Optional[Blocked]:
        """Run ``thread`` one step; returns the ``Blocked`` it parked on."""
        self.steps_executed += 1
        clock = self.clock
        clock.now_ns += STEP_COST_NS
        if self.trace is not None:
            self.trace.on_pick(thread)
        collector = obs.ACTIVE
        if collector is not None:
            collector.counters.incr("kernel.steps")
            # Gauge-sampling dirty mark: the flight recorder recomputes
            # per-process gauges only for processes stamped since its
            # previous sample.
            thread.process.gauge_stamp = self.steps_executed
            # Scheduler tick hook: every N-th step the flight recorder
            # takes a gauge sample of the world (runnable/blocked counts,
            # allocator occupancy, fd totals, dirty faults).
            collector.recorder.tick(self)
        request = thread.sliced
        if (
            request is not None
            and thread.pending_value is TIMEOUT
            and self._rearm(request, thread.process)
        ):
            # A slice expired: the call goes in again and the caller is not
            # resumed.
            thread.pending_value = None
        else:
            thread.sliced = None
            try:
                if thread.pending_exception is not None:
                    exc = thread.pending_exception
                    thread.pending_exception = None
                    request = thread.body.throw(exc)
                else:
                    value = thread.pending_value
                    thread.pending_value = None
                    request = thread.body.send(value)
            except StopIteration as stop:
                thread.state = EXITED
                thread.process.retally(-1, -thread.at_barrier, -thread.reached_qp)
                thread.exit_value = getattr(stop, "value", None)
                self._maybe_reap_process(thread.process)
                return None
            if request.__class__ is not SyscallRequest:
                if request.__class__ is not SlicedWait:
                    raise SimError(
                        f"thread {thread} yielded {request!r}, expected a SyscallRequest"
                    )
                thread.sliced = request
        # Kernel entry: one table lookup gives the handler and its cost.
        # An unknown name still costs an entry before it fails.
        name = request.name
        handler, cost_ns = self.syscalls.entries.get(name) or (None, DEFAULT_COST_NS)
        clock.now_ns += cost_ns
        try:
            if handler is None:
                raise SimError(f"unknown syscall: {name}")
            collector = obs.ACTIVE
            if collector is not None:
                collector.counters.incr("syscall." + name)
                collector.counters.incr("syscall.total")
            result = handler(thread, **request.args)
        except SimError as error:
            # Deliver the fault into the program like an errno would be.
            thread.pending_exception = error
            self._run_queue.append(thread)
            return None
        # Charge the soft-dirty write-protect faults the process took.
        process = thread.process
        faults = process.space.soft_dirty_faults
        seen = self._fault_charged.get(process.global_id, 0)
        if faults > seen:
            clock.now_ns += (faults - seen) * SOFT_DIRTY_FAULT_COST_NS
            self._fault_charged[process.global_id] = faults
        kind = result.__class__
        if kind is Blocked:
            collector = obs.ACTIVE
            if collector is not None:
                collector.counters.incr("sched.blocks")
                collector.events.emit_raw(
                    "sched.block", _block_payload, (process.name, thread.name, result.reason)
                )
            timeout_ns = request.timeout_ns
            self._park(
                thread, result, None if timeout_ns is None else clock.now_ns + timeout_ns
            )
            return result
        if kind is ExitProcess:
            self.terminate_process(process, result.status)
        elif kind is ReplaceImage:
            self._retire_thread(thread)
        else:
            thread.pending_value = result
            self._run_queue.append(thread)
        return None

    def _park(self, thread: Thread, blocked: Blocked, deadline_ns: Optional[int]) -> None:
        """Park a thread on what ``blocked`` names: its wait channels, and
        one heap entry at the earlier of its wake time and the caller's
        deadline ``deadline_ns``."""
        channels = blocked.channels
        wake_ns = blocked.wake_ns
        if not channels and wake_ns is None:
            # Nothing would ever announce this predicate's change.  Not a
            # SimError: the fault is the kernel's, not the program's.
            raise RuntimeError(
                f"{thread.process.name}:{thread.name} parked on {blocked.reason!r} "
                "with no wait channel and no wake time"
            )
        self._park_counter += 1
        thread.park_seq = seq = self._park_counter
        thread.state = BLOCKED
        thread.wait_ready = blocked.ready
        thread.blocked_on = blocked.reason
        thread.wait_deadline_ns = deadline_ns
        thread.block_started_ns = self.clock.now_ns
        thread.poll_hot = False
        for channel in channels:
            channel.waitq.park(thread)
        if wake_ns is None or (deadline_ns is not None and deadline_ns < wake_ns):
            wake_ns = deadline_ns
        if wake_ns is not None:
            # The entry counter breaks timestamp ties (threads don't compare).
            self._heap_counter += 1
            heapq.heappush(self._deadlines, (wake_ns, self._heap_counter, thread, seq))
        self._blocked[thread] = None

    def _rearm(self, wait: SlicedWait, process: Process) -> bool:
        """A slice of ``wait`` expired: charge the re-arm, as the caller's
        loop did, and size the next slice.  False when the caller must be
        resumed instead: its hook diverts it or its timeout ran out."""
        wait.waited_ns += wait.timeout_ns
        self.clock.now_ns += wait.rearm_ns
        collector = obs.ACTIVE
        if collector is not None:
            collector.counters.incr(wait.rearm_counter)
        divert = wait.divert
        if divert is not None and divert(process):
            return False
        return wait.arm()

    def mark_poll_hot(self, thread: Thread) -> None:
        """A wait channel was kicked: re-poll this thread next round."""
        if not thread.poll_hot:
            thread.poll_hot = True
            self._hot.append(thread)

    def _poll_blocked(self) -> bool:
        """Poll the blocked threads whose readiness could have changed.

        The candidates are the threads some wait channel kicked since the
        last round and those whose heap entry came due.  A due thread
        always wakes: it is ready at its wake time, or it times out at its
        deadline.  Candidates are polled in park order — exactly the order
        a scan of every blocked thread uses — so wake order does not
        depend on which path named them.
        """
        now = self.clock.now_ns
        candidates = []
        heap = self._deadlines
        while heap and heap[0][0] <= now:
            _when, _entry, thread, seq = heapq.heappop(heap)
            if thread.state == BLOCKED and thread.park_seq == seq:
                candidates.append(thread)
        if self._hot:
            hot, self._hot = self._hot, []
            for thread in hot:
                thread.poll_hot = False
                if thread.state == BLOCKED:
                    candidates.append(thread)
        if not candidates:
            return False
        if len(candidates) > 1:
            candidates.sort(key=lambda t: t.park_seq)
        woken = False
        last: Optional[Thread] = None
        for thread in candidates:
            if thread is last or thread.state != BLOCKED:
                continue  # duplicate entry, or woken earlier this round
            last = thread
            is_ready, value = thread.wait_ready()
            if is_ready:
                self._wake(thread, value)
                woken = True
                continue
            deadline = thread.wait_deadline_ns
            if deadline is not None and now >= deadline:
                self._wake(thread, TIMEOUT)
                woken = True
        return woken

    def _wake(self, thread: Thread, value: Any) -> None:
        if self.profiler is not None:
            self.profiler.on_wake(thread)
        collector = obs.ACTIVE
        if collector is not None:
            collector.counters.incr("sched.wakes")
            if value is TIMEOUT:
                collector.counters.incr("sched.wake_timeouts")
            stack = thread.call_stack
            collector.events.emit_raw(
                "sched.wake",
                _wake_payload,
                (
                    thread.process.name,
                    thread.name,
                    stack[-1] if stack else "<entry>",
                    thread.blocked_on,
                    self.clock.now_ns - thread.block_started_ns,
                ),
            )
        self._blocked.pop(thread, None)
        thread.state = RUNNABLE
        thread.wait_ready = None
        thread.wait_deadline_ns = None
        thread.blocked_on = ""
        thread.pending_value = value
        self._run_queue.append(thread)

    def _advance_to_next_deadline(self) -> bool:
        # Earliest *valid* heap entry; stale ones (woken or re-parked
        # threads) are discarded on the way.
        heap = self._deadlines
        target = None
        while heap:
            when_ns, _entry, thread, seq = heap[0]
            if thread.state == BLOCKED and thread.park_seq == seq:
                target = when_ns
                break
            heapq.heappop(heap)
        if target is None:
            return False
        if target > self.clock.now_ns:
            collector = obs.ACTIVE
            if collector is not None:
                collector.counters.incr("sched.clock_jumps")
                collector.events.emit_raw(
                    "sched.clock_jump", _jump_payload, (target - self.clock.now_ns,)
                )
            self.clock.advance(target - self.clock.now_ns)
        return True

    def _maybe_reap_process(self, process: Process) -> None:
        if not process.exited and not process.live_threads():
            self.terminate_process(process, 0)

    # -- queries used by MCR and tests -----------------------------------------------

    def live_processes(self) -> List[Process]:
        return [p for p in self.processes.values() if not p.exited]
