"""Processes and threads of the simulated machine.

A ``Thread`` owns a generator (its execution), an explicit call stack of
function names (maintained by the ``@sim_function`` decorator), and loop
bookkeeping for the quiescence profiler.  The explicit call stack is what
makes the paper's *call-stack IDs* — "computed by simply hashing all the
active function names on the call stack of the thread issuing the system
call" (§5) — a real, version-agnostic quantity in this reproduction.

A ``Process`` owns an address space, a ptmalloc heap, a tag store, and a
file-descriptor table; it records the call-stack ID of the ``fork`` that
created it, which mutable reinitialization and parallel state transfer use
to pair processes across versions.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.mem.address_space import AddressSpace
from repro.mem.ptmalloc import PtMallocHeap
from repro.mem.tags import TagStore
from repro.kernel.fdtable import FDTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import SlicedWait

RUNNABLE = "runnable"
BLOCKED = "blocked"
EXITED = "exited"


class WaitQueue:
    """Threads parked on one kernel object (a scheduler wait channel).

    The scheduler polls a blocked thread's readiness predicate only when
    one of its channels is kicked or its time comes; nothing else wakes
    it.  Every kernel object a thread can wait on (sockets, barriers,
    processes for ``wait_child``) owns a ``WaitQueue``; blocking registers
    the thread here and the object must call :meth:`kick` at each state
    change that could satisfy a waiter, which marks the registered
    threads *poll-hot* on their kernel.  A change made without a kick is
    never seen.

    Entries are ``(thread, park_seq)`` pairs validated lazily: a woken or
    re-parked thread carries a newer ``park_seq``, so stale entries are
    dropped on the next kick (or pruned when the queue grows) instead of
    requiring explicit deregistration on every wake.
    """

    __slots__ = ("_entries", "_prune_at")

    def __init__(self) -> None:
        self._entries: List[Any] = []
        self._prune_at = 64

    def park(self, thread: "Thread") -> None:
        entries = self._entries
        if len(entries) >= self._prune_at:
            # Amortized-O(1) staleness sweep: prune, then defer the next
            # sweep until the queue doubles again.  A fixed threshold
            # would rescan a legitimately-large queue (1000 acceptors on
            # one listener) on every park — quadratic.
            entries[:] = [
                e for e in entries if e[0].state == BLOCKED and e[0].park_seq == e[1]
            ]
            self._prune_at = max(64, 2 * len(entries))
        entries.append((thread, thread.park_seq))

    def kick(self) -> None:
        """Wake candidates: mark every validly-parked thread poll-hot.

        A kicked thread is *not* woken here — the scheduler re-runs its
        readiness predicate on the next poll round (two waiters racing for
        one connection must still resolve to one winner).  Valid entries
        are kept registered for exactly that reason.
        """
        entries = self._entries
        if not entries:
            return
        keep = []
        for entry in entries:
            thread, seq = entry
            if thread.state == BLOCKED and thread.park_seq == seq:
                thread.process.kernel.mark_poll_hot(thread)
                keep.append(entry)
        self._entries = keep


@functools.lru_cache(maxsize=4096)  # a program has a few hundred distinct stacks
def _stack_tuple_id(names: Tuple[str, ...]) -> int:
    digest = hashlib.sha1("/".join(names).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def call_stack_id(names: List[str]) -> int:
    """Version-agnostic context hash of the active function names.

    Taken on every ``malloc`` (the allocation-site id) and every recorded
    or replayed syscall, so the SHA-1 is memoised per call-stack tuple.
    """
    return _stack_tuple_id(tuple(names))


def sim_function(fn: Callable[..., Generator]) -> Callable[..., Generator]:
    """Mark a generator function as a simulated program function.

    Pushes/pops the function name on the calling thread's explicit call
    stack around the ``yield from``, so syscalls issued inside see the
    correct context.  The first positional argument must be the thread's
    ``Sys`` API object (convention mirrored from C's implicit stack).
    """

    @functools.wraps(fn)
    def wrapper(sys_api, *args, **kwargs):
        thread = sys_api.thread
        thread.call_stack.append(fn.__name__)
        try:
            result = yield from fn(sys_api, *args, **kwargs)
        finally:
            thread.call_stack.pop()
        return result

    return wrapper


class Thread:
    """One schedulable execution context."""

    def __init__(
        self,
        tid: int,
        process: "Process",
        body: Generator,
        name: str = "main",
        creation_stack: Optional[List[str]] = None,
    ) -> None:
        self.tid = tid
        self.process = process
        self.body = body
        self.name = name
        self.state = RUNNABLE
        self.call_stack: List[str] = []
        self.creation_stack: List[str] = list(creation_stack or ["spawn"])
        self.creation_stack_id = call_stack_id(self.creation_stack)
        # Value (or exception) to deliver on next resume.
        self.pending_value: Any = None
        self.pending_exception: Optional[BaseException] = None
        # Blocking bookkeeping (set by the kernel).
        self.wait_ready: Optional[Callable[[], Any]] = None
        self.wait_deadline_ns: Optional[int] = None  # the caller's timeout
        self.block_started_ns: int = 0
        self.blocked_on: str = ""
        # ``park_seq`` versions each park (stale WaitQueue and deadline-heap
        # entries carry an older value); ``poll_hot`` marks a kicked thread
        # awaiting its re-poll.
        self.park_seq = 0
        self.poll_hot = False
        # The sliced wait this thread issued and has not been resumed
        # from: the kernel re-arms it on a slice expiry.
        self.sliced: Optional["SlicedWait"] = None
        # Quiescence bookkeeping.  The profiler's per-site stalled time and
        # loop lists are not here: a ``QuiescenceProfiler`` keeps them for
        # the kernel it profiles, and no other run pays for them.
        self.reached_qp = False  # arrived at its quiescent point at least once
        self.at_barrier = False
        self.exit_value: Any = None

    def stack_id(self) -> int:
        return call_stack_id(self.call_stack)

    def top_function(self) -> str:
        return self.call_stack[-1] if self.call_stack else "<entry>"

    def wait_site(self) -> str:
        """``function:syscall`` of the call this thread is parked in."""
        return f"{self.top_function()}:{self.blocked_on.split(':')[0]}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Thread {self.process.pid}:{self.tid} {self.name} "
            f"{self.state} at {self.top_function()}>"
        )


class Process:
    """A simulated process: memory image + threads + kernel objects."""

    def __init__(
        self,
        pid: int,
        kernel: "Kernel",
        name: str,
        parent: Optional["Process"] = None,
        space: Optional[AddressSpace] = None,
        heap: Optional[PtMallocHeap] = None,
        tags: Optional[TagStore] = None,
        fdtable: Optional[FDTable] = None,
        creation_stack: Optional[List[str]] = None,
    ) -> None:
        self.pid = pid
        self.kernel = kernel
        self.name = name
        self.parent = parent
        self.children: List["Process"] = []
        self.space = space if space is not None else AddressSpace()
        self.heap = heap if heap is not None else PtMallocHeap(self.space)
        self.tags = tags if tags is not None else TagStore()
        self.fdtable = fdtable if fdtable is not None else FDTable()
        self.threads: Dict[int, Thread] = {}
        self._next_tid = 1
        # Wait channel for ``wait_child`` callers: kicked when a child of
        # this process exits.
        self.waitq = WaitQueue()
        # Last kernel step that executed one of this process's threads;
        # the flight recorder uses it to recompute per-process gauges only
        # for processes that actually ran since the previous sample.
        self.gauge_stamp = 0
        self.exited = False
        self.exit_status = 0
        self.namespace: Any = None  # PidNamespace; set by the kernel
        self.global_id = 0
        self.creation_stack: List[str] = list(creation_stack or ["spawn"])
        self.creation_stack_id = call_stack_id(self.creation_stack)
        # Per-process MCR runtime (libmcr.so analogue); None when the
        # program runs uninstrumented.
        self.runtime: Any = None
        # Program handle (set by the loader) for symbol lookup.
        self.program: Any = None
        # This subtree's convergence tally: None until someone asks
        # (``convergence``), then kept by the writers of its three facts
        # through ``retally``.
        self.tally: Optional[List[int]] = None
        if parent is not None:
            parent.children.append(self)

    def add_thread(
        self,
        body: Generator,
        name: str = "main",
        creation_stack: Optional[List[str]] = None,
    ) -> Thread:
        thread = Thread(self._next_tid, self, body, name, creation_stack)
        self._next_tid += 1
        self.threads[thread.tid] = thread
        self.retally(1, 0, 0)
        return thread

    def convergence(self) -> List[int]:
        """``[live threads, of them at the barrier, of them past their first
        quiescent point]`` over ``tree()``; the first ask walks it once."""
        tally = self.tally
        if tally is None:
            tally = self.tally = [0, 0, 0]
            for process in self.tree():
                for thread in process.live_threads():
                    tally[0] += 1
                    tally[1] += thread.at_barrier
                    tally[2] += thread.reached_qp
        return tally

    def retally(self, live: int, parked: int, reached: int) -> None:
        """Move the tally of this process and of each tallied ancestor (a
        few ``parent`` hops): every writer of a tallied fact calls this."""
        process: Optional[Process] = self
        while process is not None:
            tally = process.tally
            if tally is not None:
                tally[0] += live
                tally[1] += parked
                tally[2] += reached
            process = process.parent

    def live_threads(self) -> List[Thread]:
        return [t for t in self.threads.values() if t.state != EXITED]

    def descendants(self) -> List["Process"]:
        """All live descendant processes, depth-first."""
        result: List["Process"] = []
        stack = self.children[::-1]
        while stack:
            process = stack.pop()
            if not process.exited:
                result.append(process)
            stack.extend(reversed(process.children))
        return result

    def tree(self) -> List["Process"]:
        """This process plus all live descendants."""
        me = [] if self.exited else [self]
        return me + self.descendants()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.pid} {self.name}{' exited' if self.exited else ''}>"
