"""The mutable-reinitialization replay engine (paper §5).

Runs inside the *new* version during its controlled startup.  Every
intercepted syscall is matched against the old startup log by
``(pid, call-stack-id, syscall)``:

* **no match** — a new operation introduced by the update: executed live;
* **match, immutable-object operation** — *replayed*: the recorded result
  is returned and the inherited object (fd from the stash, forced pid) is
  installed, without disturbing the old version that still shares it;
* **match, transient operation** — executed live, with an fd-translation
  table bridging descriptor numbers that legitimately differ;
* **match, argument mismatch** — a ``ConflictError`` (rollback), unless an
  ``MCR_ADD_REINIT_HANDLER`` resolves it.

Omissions (recorded immutable-creating operations the new startup never
issued) are detected at the end of control migration and likewise flagged.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConflictError
from repro.kernel.process import Process, Thread
from repro.mcr.faults import fire
from repro.kernel.syscalls import SyscallRequest
from repro.mcr.reinit.callstack import deep_match, sanitize_args
from repro.mcr.reinit.immutable import FdStash
from repro.mcr.reinit.startup_log import (
    FD_CREATING,
    FD_PAIR_CREATING,
    PID_CREATING,
    StartupLog,
    SyscallRecord,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mcr.libmcr import MCRSession

# Operations that only *use* an fd; replayed iff the fd is inherited.
FD_USING = {"bind", "listen", "read", "write", "send", "recv", "close", "sendmsg", "recvmsg", "epoll_ctl"}

# Virtual-time cost of matching one syscall against the log (stack-ID
# hash, log lookup, deep argument comparison) — the source of the paper's
# 1-45% replay overhead over the original startup.
REPLAY_MATCH_COST_NS = 3_000


class ReplayContext:
    """What a reinit conflict handler gets to look at (and resolve with).

    A handler resolves the conflict by setting ``resolved``; it also sets
    ``override_result`` to hand that value to the program instead of the
    recorded result, or ``execute_live`` to run the call live.
    """

    def __init__(
        self,
        engine: "ReplayEngine",
        process: Process,
        thread: Thread,
        record: Optional[SyscallRecord],
        name: str,
        args: Dict[str, Any],
    ) -> None:
        self.engine = engine
        self.process = process
        self.thread = thread
        self.record = record
        self.name = name
        self.args = args
        self.resolved = False
        self.override_result: Any = None
        self.execute_live = False


class ReplayEngine:
    """Cross-version replay state for one live update attempt."""

    def __init__(
        self,
        session: "MCRSession",
        old_log: StartupLog,
        stash: FdStash,
    ) -> None:
        self.session = session
        self.old_log = old_log
        self.stash = stash
        # pid -> {old_fd: new_fd} for transient (live-created) descriptors.
        self.fd_translation: Dict[int, Dict[int, int]] = {}
        self.conflicts: List[ConflictError] = []
        self.replayed_count = 0

    # -- the interception entry point (a generator: drive with yield from) ------

    def handle(self, sys_api, name: str, args: Dict[str, Any], timeout_ns: Optional[int]):
        process: Process = sys_api.process
        thread: Thread = sys_api.thread
        pid = process.pid
        # The raise unwinds through the replaying thread's generator stack
        # into the controller's kernel.run — the same route a real replay
        # conflict takes.  nth-hit arming selects which replayed syscall.
        fire(self.session.config, "reinit.replay")
        process.kernel.clock.advance(REPLAY_MATCH_COST_NS)
        translation = self.fd_translation.setdefault(pid, {})
        record = self._match(process, thread, name, args)
        if record is None:
            # New operation introduced by the update: run it live.
            result = yield SyscallRequest(name, args, timeout_ns)
            return result
        if not deep_match(record.args, sanitize_args(args), translation):
            context = ReplayContext(self, process, thread, record, name, args)
            self._raise_or_resolve(
                context,
                ConflictError(
                    "reinit",
                    f"{name}@{'/'.join(record.stack_names)}",
                    f"argument mismatch: recorded {record.args!r}, observed {sanitize_args(args)!r}",
                ),
            )
            if context.override_result is not None and not context.execute_live:
                record.consumed = True
                return context.override_result
            if not context.execute_live:
                record.consumed = True
                return record.result
            record.consumed = True
            result = yield SyscallRequest(name, args, timeout_ns)
            return result
        record.consumed = True
        # -- fd-creating operations ------------------------------------------
        if name in FD_CREATING or name in FD_PAIR_CREATING:
            created = record.created_fds
            if created and all(
                self.stash.stash_fd_for(pid, fd) is not None for fd in created
            ):
                for fd in created:
                    self._claim_inherited(process, pid, fd)
                self.replayed_count += 1
                return record.result
            # Created during old startup but closed before the update: not
            # inherited, hence not immutable — run live and learn the
            # translation for later argument matching.
            result = yield SyscallRequest(name, args, timeout_ns)
            if name in FD_CREATING and isinstance(result, int) and created:
                translation[created[0]] = result
            elif name in FD_PAIR_CREATING and isinstance(result, (tuple, list)):
                for old_fd, new_fd in zip(created, result):
                    translation[old_fd] = new_fd
            return result
        # -- pid-creating operations -------------------------------------------
        if name in PID_CREATING:
            namespace = process.namespace or process.kernel.pidns
            if record.created_pid is not None:
                namespace.force_next_pid(record.created_pid)
            self.replayed_count += 1
            result = yield SyscallRequest(name, args, timeout_ns)
            return result
        # -- fd-using operations -------------------------------------------------
        if name in FD_USING:
            fd = args.get("fd")
            if isinstance(fd, int) and self.stash.stash_fd_for(pid, fd) is not None:
                # Touches inherited in-kernel state: pure replay.
                self.replayed_count += 1
                return record.result
            result = yield SyscallRequest(name, args, timeout_ns)
            return result
        # -- everything else (sleep, compute, mmap, thread_create, ...) ---------
        result = yield SyscallRequest(name, args, timeout_ns)
        return result

    # -- end-of-control-migration checks ----------------------------------------------

    def finish(self, new_root: Process) -> None:
        """Verify omissions and garbage-collect the unclaimed stash."""
        pids = [p.pid for p in new_root.tree()]
        live_pids = set(pids)
        omissions = [
            rec
            for pid in pids
            for rec in self.old_log.unconsumed_immutable(pid)
            # Only count omissions for objects actually inherited: a
            # startup fd closed before the update left nothing behind.
            if any(
                self.stash.stash_fd_for(pid, fd) is not None
                and not self.stash.is_claimed(pid, fd)
                for fd in rec.created_fds
            )
            or (
                rec.created_pid is not None
                and rec.created_pid not in live_pids
            )
        ]
        if omissions:
            rec = omissions[0]
            conflict = ConflictError(
                "reinit",
                f"{rec.name}@{'/'.join(rec.stack_names)}",
                f"recorded operation never replayed by the new version "
                f"({len(omissions)} omission(s))",
            )
            context = ReplayContext(self, new_root, None, rec, rec.name, dict(rec.args))
            self._raise_or_resolve(context, conflict)
        # GC: drop every stash descriptor everywhere in the new tree.
        # Claimed objects live on at their original numbers (with their own
        # reference); unclaimed ones are released entirely.  (Walked again:
        # a conflict handler above may have respawned a process.)  fork
        # shared the stash by reference, so each process only gives its
        # share up; the objects come back, for their one release, from
        # whichever table held a layer last.
        for process in new_root.tree():
            for obj in process.fdtable.close_stash():
                new_root.kernel.drop_reference(obj)

    # -- volatile-quiescent-state support (used by reinit handlers) ----------------------

    def respawn_counterpart(
        self,
        new_parent: Process,
        old_process: Process,
        child_main: Callable,
        args: Tuple = (),
    ) -> Process:
        """Fork a new-version counterpart of an on-demand old process.

        Pairs by forcing the old pid and copying the old creation stack, so
        both mutable tracing and fd restoration can match the two.
        """
        return new_parent.kernel.fork_for_restore(
            new_parent,
            child_main,
            args,
            name=old_process.name,
            creation_stack=list(old_process.creation_stack),
            forced_pid=old_process.pid,
        )

    # -- internals -------------------------------------------------------------------------

    def _claim_inherited(self, process: Process, src_pid: int, src_fd: int) -> None:
        """Move an inherited object from the stash to its original number."""
        stash_fd = self.stash.stash_fd_for(src_pid, src_fd)
        obj = process.fdtable.get(stash_fd)
        if src_fd in process.fdtable:
            # A propagated/foreign descriptor landed on this number first
            # (the clash the paper describes); evict it.
            process.kernel.drop_reference(process.fdtable.close(src_fd))
        acquire = getattr(obj, "acquire", None)
        if acquire is not None:
            acquire()
        process.fdtable.install(obj, fd=src_fd)
        process.fdtable.block_reuse(src_fd)  # global separability
        if obj.kind == "listener":
            process.kernel.net.adopt_listener(obj)
        self.stash.claim(src_pid, src_fd, src_fd)

    def _match(
        self, process: Process, thread: Thread, name: str, args: Dict[str, Any]
    ) -> Optional[SyscallRecord]:
        """The old startup's record this call replays, or ``None`` (run it
        live).  Matched by version-agnostic call-stack ID, which tolerates
        reordered, added and deleted operations — the paper's choice over
        "global or partial orderings of operations" (§5).  ``args`` is
        for a matcher that flags a mismatch: its ``ReplayContext`` needs
        them."""
        return self.old_log.find_match(process.pid, thread.stack_id(), name)

    def _raise_or_resolve(self, context: ReplayContext, conflict: ConflictError) -> None:
        annotations = getattr(self.session.program, "annotations", None)
        if annotations is not None:
            for handler in annotations.handlers_for_stage("conflict"):
                handler.handler(context)
                if context.resolved:
                    return
        self.conflicts.append(conflict)
        raise conflict
