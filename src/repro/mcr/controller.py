"""The live-update orchestrator: checkpoint → restart → remap (paper §3).

``LiveUpdateController.run_update`` executes one update attempt end to end:

1.  **Checkpoint** — quiesce the old version via the barrier protocol.
2.  **Offline analysis** — conservative tracing of the quiesced old tree
    produces the immutable set: pinned static symbols, library bases, and
    heap superobject spans (the relink/prelink step, uncharged to update
    time as in the paper).
3.  **Restart** — the new version starts in its own PID namespace (old
    pids can be mirrored) behind an inheritance bootstrap that receives
    every old descriptor over a Unix socket into the reserved-range
    stash.  Quiescence is pre-requested so no thread can consume a new
    event; mutable reinitialization replays/filters startup syscalls
    until all long-lived threads park at the barrier (control migration).
4.  **Volatile state** — ``post_startup`` reinit handlers recreate
    on-demand processes/threads; post-startup descriptors (open
    connections) are restored into the paired processes.
5.  **Remap** — mutable tracing transfers the dirty/immutable state.
6.  **Commit** — the old tree is terminated and the new version resumes;
    or, on *any* failure, **rollback**: the new tree is destroyed and the
    old version resumes from the checkpoint, invisibly to clients.
"""

from __future__ import annotations

import sys as _host_sys
from contextlib import nullcontext
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

from repro import obs
from repro.clock import ns_to_ms
from repro.obs.spans import STATUS_ERROR, STATUS_OK
from repro.errors import ConflictError, MCRError, QuiescenceTimeout, SimError
from repro.kernel.kernel import Kernel
from repro.kernel.namespaces import PidNamespace
from repro.kernel.process import Process
from repro.mcr.config import MCRConfig, TransferCostModel
from repro.mcr.faults import FaultPlan, TreeFingerprint, fire
from repro.mcr.libmcr import MCRSession, PHASE_NORMAL
from repro.mcr.quiescence.detection import QUIESCENCE_DEADLINE_NS, tree_live_threads
from repro.mcr.reinit.immutable import FdStash, ImmutableInventory
from repro.mcr.reinit.realloc import GlobalRealloc
from repro.mcr.reinit.replay import ReplayEngine
from repro.mcr.tracing.incremental import TraceMemo
from repro.mcr.tracing.invariants import (
    apply_invariants,
    immutable_heap_spans,
    immutable_static_symbols,
)
from repro.mcr.tracing.transfer import StateTransfer, TransferReport
from repro.replay import trace as replay_trace
from repro.runtime.program import Program, load_program


# On QuiescenceTimeout the barrier wait is retried up to this many times,
# the virtual clock advanced by a backoff that doubles before each retry.
QUIESCENCE_MAX_RETRIES = 2
QUIESCENCE_BACKOFF_NS = 25_000_000

# One rollback-verification baseline: (scope or None for the whole tree,
# its fingerprint at the quiesce point, refcounts included?).
_Checkpoint = Tuple[Optional[List[Process]], TreeFingerprint, bool]


class RestoreContext:
    """Handed to ``post_startup`` reinit handlers (volatile-state rebuild)."""

    def __init__(self, controller: "LiveUpdateController", new_root: Process) -> None:
        self.kernel = controller.kernel
        self.old_root = controller.old_root
        self.new_root = new_root
        self.old_session = controller.old_session
        self.new_session = controller.new_session
        self.engine: ReplayEngine = controller.new_session.replay_engine

    def missing_counterparts(self) -> List[Process]:
        """Old processes with no new-version counterpart yet."""
        new_stacks = {}
        for process in self.new_root.tree():
            new_stacks.setdefault(process.creation_stack_id, 0)
            new_stacks[process.creation_stack_id] += 1
        missing = []
        for process in self.old_root.tree():
            count = new_stacks.get(process.creation_stack_id, 0)
            if count:
                new_stacks[process.creation_stack_id] = count - 1
            else:
                missing.append(process)
        return missing

    def respawn(self, old_process: Process, child_main: Callable, args: Tuple = ()) -> Process:
        parent = None
        if old_process.parent is not None:
            parent = self.paired_new_process(old_process.parent)
        if parent is None:
            parent = self.new_root
        return self.engine.respawn_counterpart(parent, old_process, child_main, args)

    def respawn_thread(self, new_process: Process, main: Callable, args: Tuple, old_thread) -> None:
        """Recreate an on-demand *thread* in its paired new process."""
        self.kernel._start_thread(
            new_process,
            main,
            args,
            old_thread.name,
            creation_stack=list(old_thread.creation_stack),
        )

    def paired_new_process(self, old_process: Process) -> Optional[Process]:
        for candidate in self.new_root.tree():
            if (
                candidate.creation_stack_id == old_process.creation_stack_id
                and candidate.pid == old_process.pid
            ):
                return candidate
        for candidate in self.new_root.tree():
            if candidate.creation_stack_id == old_process.creation_stack_id:
                return candidate
        return None


class UpdateResult:
    """Outcome and timing breakdown of one update attempt.

    The phase ``*_ns`` fields are not kept by stopwatch bookkeeping: the
    controller records its work as a span tree (``repro.obs.spans``) and
    ``finalize_from_spans`` derives every duration from it, so the
    breakdown the CLI/benchmarks print is exactly what a trace export
    shows.  ``spans`` holds the root ``update`` span of that tree.
    """

    # Root-child span names that contribute to each derived phase field.
    _PHASE_SPANS = {
        "quiescence_ns": ("quiescence",),
        # The paper's "control migration" interval runs from the moment the
        # new version is exec'd to the moment its threads park at the
        # barrier, so it covers both the restart and the migration span.
        "control_migration_ns": ("restart", "control-migration"),
        "restore_ns": ("restore",),
        # Whole-tree updates record one "transfer" span; rolling updates
        # record "rolling-transfer" (per-batch quiesce/restore/transfer
        # live inside it).  Exactly one of the two exists per update.
        "transfer_ns": ("transfer", "rolling-transfer"),
    }

    def __init__(self) -> None:
        self.committed = False
        self.rolled_back = False
        # Orchestration mode of this attempt ("whole-tree" | "rolling")
        # and, for rolling, how many hand-off batches ran.
        self.mode = "whole-tree"
        self.rolling_batches = 0
        self.error: Optional[BaseException] = None
        # Which pipeline site failed ("transfer.memory", "reinit.replay",
        # ...): the injected fault's site tag when one fired, otherwise
        # derived from the deepest error span of the update trace.
        self.failure_site: Optional[str] = None
        # Quiescence retry attempts consumed before the barrier converged
        # (0 = first wait succeeded).
        self.retries = 0
        # After a rollback: True if the old tree's fingerprint matched the
        # checkpoint capture, False if it diverged, None if no comparable
        # baseline existed (verification off, or the failure happened
        # while old threads were still running toward the barrier).
        self.rollback_verified: Optional[bool] = None
        # True if any rollback step itself faulted (double fault).  The
        # rollback still completes its remaining steps and the old tree
        # keeps serving; this flag plus the ``update.rollback_failed``
        # event are the loud degradation the paper requires.
        self.rollback_failed = False
        self.quiescence_ns = 0
        self.control_migration_ns = 0
        self.restore_ns = 0
        self.transfer_ns = 0
        self.total_ns = 0
        self.spans: Optional[obs.Span] = None
        self.transfer_report: Optional[TransferReport] = None
        self.new_root: Optional[Process] = None
        self.new_session: Optional[MCRSession] = None
        # Client-perceived verdict (``workloads.client.ClientPerceived``) —
        # attached by the measurement harness after its workload drains,
        # since client latencies only complete once the update returns.
        self.client = None
        # Post-mortem black box: the flight-recorder dump attached to
        # every failed update (rollback or contained commit fault), and
        # the file path when ``config.blackbox_path`` wrote it out.
        self.blackbox: Optional[dict] = None
        self.blackbox_path: Optional[str] = None

    def total_ms(self) -> float:
        return ns_to_ms(self.total_ns)

    def phase_sum_ns(self) -> int:
        return (
            self.quiescence_ns
            + self.control_migration_ns
            + self.restore_ns
            + self.transfer_ns
        )

    def finalize_from_spans(self, root: "obs.Span") -> None:
        """Derive every timing field from the recorded span tree.

        On rollback the tree simply lacks the phases that never ran (or
        carries partially-elapsed error spans), so the same derivation
        yields the correct partial breakdown.
        """
        self.spans = root
        self.total_ns = root.duration_ns
        by_name = {child.name: child for child in root.children}
        for field, span_names in self._PHASE_SPANS.items():
            setattr(
                self,
                field,
                sum(by_name[n].duration_ns for n in span_names if n in by_name),
            )
        assert self.phase_sum_ns() <= self.total_ns, (
            f"phase spans ({self.phase_sum_ns()}ns) exceed the update span "
            f"({self.total_ns}ns)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "committed" if self.committed else f"rolled back ({self.error})"
        return f"<UpdateResult {status} total={self.total_ms():.1f}ms>"


class UpdateOutcome(NamedTuple):
    """How one update ended, read off its ``UpdateResult`` in one place.

    Cells, the trace's final digest and rollout rows report these fields
    under these names; the defaults are an update that returned nothing.
    """

    committed: bool = False
    rolled_back: bool = False
    failure_site: Optional[str] = None
    retries: int = 0
    rollback_verified: Optional[bool] = None
    rollback_failed: bool = False

    @classmethod
    def of(cls, result: Optional[UpdateResult]) -> "UpdateOutcome":
        if result is None:
            return cls()
        return cls(
            bool(result.committed),
            bool(result.rolled_back),
            result.failure_site,
            result.retries,
            result.rollback_verified,
            bool(result.rollback_failed),
        )


def arm(label: Optional[str]) -> FaultPlan:
    """The plan a cell label arms: ``"a+b"`` is a double fault, None is clean.

    ``quiescence.wait`` outlasts the controller's bounded retries, or the
    update would simply commit on a later attempt; ``rollback`` is armed
    behind ``transfer.memory``, because no rollback runs without a primary
    fault to force it.
    """
    plan = FaultPlan()
    for name in label.split("+") if label else ():
        if name == "quiescence.wait":
            plan.at(name, times=QUIESCENCE_MAX_RETRIES + 1)
        elif name == "rollback":
            plan.at("transfer.memory").at(name)
        else:
            plan.at(name)
    return plan


class LiveUpdateController:
    """Drives one live update of ``old_session`` to ``new_program``."""

    def __init__(
        self,
        kernel: Kernel,
        old_session: MCRSession,
        new_program: Program,
        config: Optional[MCRConfig] = None,
        use_dirty_filter: bool = True,
        collector: Optional["obs.Collector"] = None,
    ) -> None:
        self.kernel = kernel
        self.old_session = old_session
        self.old_root: Process = old_session.root_process
        self.new_program = new_program
        # The new version inherits the running session's build: a
        # region-instrumented server (nginx_reg) restarted under plain
        # ``full()`` loses its region tags and serves empty replies after
        # the commit.
        self.build = old_session.build
        self.config = config or old_session.config
        self.use_dirty_filter = use_dirty_filter  # ablation knob
        # The collector this update records into.  None = ambient: use the
        # active collector when it is bound to this kernel's clock, else a
        # private one.  A fleet Node passes its own collector here so
        # concurrent per-node updates never cross-publish.
        self.collector = collector
        self.new_session: Optional[MCRSession] = None
        # Transaction state (see run_update): once the point of no return
        # is crossed the old tree is gone and any fault rolls *forward*.
        self._past_point_of_no_return = False
        self._rolled_back = False
        self._rollback_failures: List[str] = []
        # Rollback-verification baselines, one per quiesce point.
        self._checkpoints: List[_Checkpoint] = []
        # This update's trace/scan memoization: offline analysis and state
        # transfer (every rolling batch of it) ask it for each old
        # process's trace, so a process that did not change in between is
        # walked once.  ``run_update`` drops it when the update is over.
        self._memo = TraceMemo()
        # The global-inheritance socketpair, kept so rollback can drain
        # in-flight fd messages if the handoff dies mid-stream.
        self._boot_channel: Optional[Tuple[Any, Any]] = None

    # -- public API -------------------------------------------------------------

    def run_update(self) -> UpdateResult:
        """One update transaction: commit XOR verified rollback.

        ``config.update_mode`` picks the hand-off.  Whole-tree quiesces
        everything, restores every runtime descriptor, then transfers the
        tree in one step while clients wait.  Rolling (CRIU pre-dump
        style) runs the heavy global phases — offline analysis, restart,
        control migration, volatile-state convergence — with only the
        first worker batch quiesced, then hands workers off one batch at
        a time (``_hand_off_rolling``).  The two differ in exactly three
        steps — the initial quiescence scope, where runtime fds are
        restored, and the hand-off phase; the transaction envelope, fault
        sites, black box and fingerprint verification are one body.
        """
        result = UpdateResult()
        if self.config.update_mode == "rolling":
            result.mode = "rolling"
        try:
            with self._obs_scope(self.kernel.clock):
                return self._attempt(result)
        finally:
            # The memo dies with the update: its traces live on only in
            # ``result.transfer_report``, as they always have.
            self._memo = TraceMemo()

    def _obs_scope(self, clock):
        """The collector activation this update runs under.

        Preference order: the controller's explicit ``collector`` (a
        fleet Node's, when the update is driven against one node among
        many), else an already-active ambient collector bound to the same
        clock, else a fresh private one.  Black-box recording rides on
        the event-log -> flight-recorder wiring, so an update must always
        run under *some* collector; obs never advances the virtual clock,
        so every measured phase timing is identical either way.  Only the
        black box and the span tree of a private collector are ever read,
        so it is a ``Collector.private``: counters, metrics and event
        ring are not kept.
        """
        collector = self.collector
        if collector is None:
            active = obs.ACTIVE
            if active is not None and active.clock is clock:
                return nullcontext(active)
            collector = obs.Collector.private(clock)
        elif obs.ACTIVE is collector:
            return nullcontext(collector)
        return obs.scoped(collector)

    def _attempt(self, result: UpdateResult) -> UpdateResult:
        recorder = obs.recorder_for(self.kernel.clock)
        rolling = result.mode == "rolling"
        new_root: Optional[Process] = None
        # Rollback verification baselines (host-side only; never touch the
        # virtual clock).  The entry capture covers failures that strike
        # before the barrier converges — usable only if no old thread ran
        # in between, hence the steps_executed stamp.  The checkpoint
        # captures, taken once a scope is quiesced, are authoritative.
        entry_fp: Optional[TreeFingerprint] = None
        entry_steps = self.kernel.steps_executed
        if self.config.faults is not None:
            # Only an injected fault can fail before any old thread runs;
            # a real pre-quiescence failure executes kernel steps and
            # invalidates this baseline anyway, so skip the capture when
            # nothing is armed.
            entry_fp = TreeFingerprint.capture(self.kernel, self.old_root)
        # What quiesces first: everything (None), or the first worker batch
        # — with no enumerable workers the whole tree is one degenerate batch.
        worker_batches = self._worker_batches() if rolling else []
        first_scope: Optional[List[Process]] = None
        if rolling:
            first_scope = (
                worker_batches[0] if worker_batches else list(self.old_root.tree())
            )
        root = recorder.begin(
            "update",
            program=self.new_program.name,
            to_version=self.new_program.version,
            **({"mode": "rolling"} if rolling else {}),
        )
        try:
            # 1. Checkpoint: quiesce the old version — all of it, or only
            # the first worker batch (bounded retries with exponential
            # backoff before declaring QuiescenceTimeout).
            with recorder.span("quiescence"):
                self.old_session.quiescence.request(scope=first_scope)
                self._quiesce_with_retry(result)
            self._checkpoint(first_scope, with_refcounts=True)
            # 2. Offline analysis -> immutable set + realloc plan.
            with recorder.span("offline-analysis"):
                fire(self.config, "offline.analysis")
                plan = self._offline_analysis()
            # 3. Restart the new version under replay.
            with recorder.span("restart"):
                new_root = self._restart(plan)
                result.new_root = new_root
            with recorder.span("control-migration"):
                fire(self.config, "control.migration")
                self._run_control_migration(new_root)
            # 4. Volatile state + post-startup descriptor restore.  The
            # handlers only *create* counterpart processes/threads; their
            # descriptors are restored before any of them runs, then the
            # whole new tree is driven back to the barrier.  Rolling does
            # NOT restore runtime descriptors here: each batch's live
            # connections are installed at its own quiesce point.
            with recorder.span("restore"):
                self._run_post_startup_handlers(new_root)
                if not rolling:
                    self._restore_runtime_fds(new_root)
                self._converge_volatile(new_root)
            # 5. Remap: mutable tracing state transfer — batch by batch, or
            # the whole quiesced tree at once while clients wait it out.
            if rolling:
                self._hand_off_rolling(
                    result, recorder, new_root, first_scope, worker_batches
                )
            else:
                with recorder.span("transfer") as transfer_span:
                    report = result.transfer_report = self._transfer(new_root)
                    transfer_span.attrs["objects_transferred"] = sum(
                        s.objects_transferred for s in report.per_process
                    )
                    self.kernel.clock.advance(report.total_ns)
            # 6. Commit: prepare (still abortable), then the critical
            # section.  Destroying the old tree is the point of no return.
            with recorder.span("commit"):
                self._commit_prepare(new_root)
                self._past_point_of_no_return = True
                self._commit_critical(new_root)
            result.committed = True
            result.new_session = self.new_session
            recorder.end(root, status=STATUS_OK)
        except (MCRError, SimError) as error:
            result.error = error
            result.failure_site = (
                getattr(error, "fault_site", None)
                or self._derive_failure_site(root)
            )
            if self._past_point_of_no_return:
                # The old tree is already gone: the only safe direction is
                # forward.  Finish the (idempotent) commit steps and
                # surface the contained fault loudly.
                self._finish_commit()
                result.committed = True
                result.new_session = self.new_session
                root.attrs["commit_fault"] = repr(error)
                obs.emit(
                    "update.commit_fault_contained",
                    severity="error",
                    site=result.failure_site,
                    error=repr(error),
                )
                self._record_blackbox(result, recorder, "commit_fault_contained")
                recorder.end(root, status=STATUS_OK)
            else:
                with recorder.span("rollback", reason=str(error)):
                    self._rollback(new_root)
                    # Verified before the dump, so a divergence is in it.
                    self._verify_rollback(result, entry_fp, entry_steps)
                    self._record_blackbox(result, recorder, "rolled_back")
                result.rolled_back = True
                result.rollback_failed = bool(self._rollback_failures)
                recorder.end(root, status="rolled_back")
        finally:
            # Never leave the shared recorder with a dangling open root —
            # even if an exception escaped the handler above, the root
            # span closes with status=error and the error attached.
            if not root.closed:
                in_flight = result.error or _host_sys.exc_info()[1]
                if in_flight is not None:
                    root.attrs["error"] = repr(in_flight)
                recorder.end(root, status=STATUS_ERROR)
        result.finalize_from_spans(root)
        self._emit_finished(result)
        return result

    def _checkpoint(
        self, scope: Optional[List[Process]], with_refcounts: bool
    ) -> None:
        """Fingerprint a just-quiesced scope (None = the whole tree).

        One entry per quiesce point, in hand-off order, replayed by
        ``_verify_rollback``; whole-tree is the one-entry case.  The
        first scope is captured before the restart exists, so its
        refcounts are clean; later batches are captured while the new
        tree holds inherited references (released again on rollback), so
        their refcount component is excluded.
        """
        subset = None if scope is None else list(scope)
        fingerprint = TreeFingerprint.capture(
            self.kernel,
            self.old_root,
            processes_subset=subset,
            include_refcounts=with_refcounts,
        )
        self._checkpoints.append((subset, fingerprint, with_refcounts))

    def _transfer(self, new_root: Process, **scope: Any) -> TransferReport:
        """Run mutable-tracing state transfer (of the tree, or one batch)."""
        return StateTransfer(
            self.old_root,
            new_root,
            self.new_program,
            self.config,
            use_dirty_filter=self.use_dirty_filter,
            memo=self._memo,
            **scope,
        ).run()

    def _hand_off_rolling(
        self,
        result: UpdateResult,
        recorder,
        new_root: Process,
        first_batch: List[Process],
        worker_batches: List[List[Process]],
    ) -> None:
        """The rolling per-worker hand-off loop.

        Quiesces, fd-restores, traces and transfers one batch at a time
        (master and stragglers in a final remainder batch), pipelining
        the slow quiescence — the remainder's idle threads, whose QP
        re-arm is bounded by a whole unblockify slice — into the
        preceding batch's transfer window, while busy worker batches
        (which converge within about one request) are scoped in only at
        their own turn.  Transferred workers stay parked until the
        global commit — resuming one would make its transferred state
        stale — so the client-perceived blackout shrinks to roughly the
        final batch plus commit, while the whole sequence still commits
        or rolls back atomically.
        """
        assigned = {p for batch in worker_batches for p in batch}
        quiescence = self.old_session.quiescence
        with recorder.span("rolling-transfer") as rolling_span:
            merged = TransferReport()
            pending = list(worker_batches[1:])
            remainder_pending = bool(worker_batches)
            batch = first_batch
            index = 0
            scoped_ahead = True  # first batch scoped by the request
            while True:
                with recorder.span(f"worker-batch-{index}", processes=len(batch)):
                    if index > 0:
                        # Worker batches are scoped in at their own turn:
                        # they are busy serving, so they reach a quiescent
                        # point within about one request and this wait is
                        # near-instant.  The remainder batch was scoped in
                        # a whole transfer window ago (see below) and is
                        # already parked.
                        if not scoped_ahead:
                            quiescence.extend_scope(batch)
                        self._quiesce_with_retry(result)
                        self._checkpoint(batch, with_refcounts=False)
                    # The next batch to hand off: the remainder (master
                    # plus anything outside the worker list) is computed
                    # at scheduling time so late-born processes are seen.
                    next_batch: Optional[List[Process]] = None
                    scoped_ahead = False
                    if pending:
                        next_batch = pending.pop(0)
                    elif remainder_pending:
                        remainder_pending = False
                        next_batch = [
                            p for p in self.old_root.tree() if p not in assigned
                        ] or None
                        # The pipeline overlap: the remainder batch (master,
                        # janitors — processes that serve no clients) is
                        # scoped in NOW, a full transfer window before its
                        # turn.  Its threads idle in long unblockify slices,
                        # so their worst-case QP re-arm latency elapses
                        # while this batch's transfer time does, instead of
                        # adding a dead wait at the end when no worker is
                        # left serving.  Worker batches are NOT pre-scoped:
                        # parking a serving worker early would grow the
                        # client-perceived blackout for no convergence gain.
                        if next_batch is not None:
                            quiescence.extend_scope(next_batch)
                            scoped_ahead = True
                    self._restore_runtime_fds(new_root, only=batch)
                    report = self._transfer(
                        new_root,
                        only_processes=batch,
                        include_base_cost=(index == 0),
                    )
                    merged.per_process.extend(report.per_process)
                    merged.trace_results.update(report.trace_results)
                    merged.conflicts.extend(report.conflicts)
                    merged.total_ns += report.total_ns
                    # The still-serving workers (and the clients they
                    # serve) live through this batch's transfer time,
                    # instead of the whole tree waiting it out.
                    self.kernel.run_for(report.total_ns)
                index += 1
                if next_batch is None:
                    break
                batch = next_batch
            result.transfer_report = merged
            result.rolling_batches = index
            rolling_span.attrs["batches"] = index
            rolling_span.attrs["objects_transferred"] = sum(
                s.objects_transferred for s in merged.per_process
            )

    def _worker_batches(self) -> List[List[Process]]:
        """Ordered worker batches for the rolling hand-off.

        A server opts in by publishing ``metadata["enumerate_workers"]``
        (a ``root -> ordered worker list`` callable) on its program; the
        default takes every non-root process in tree order.  The master —
        and any process outside the worker list — is never batched here:
        it is handed off in the final remainder batch, which the rolling
        loop computes at scheduling time.
        """
        program = getattr(self.old_session, "program", None)
        enumerate_workers = None
        if program is not None:
            metadata = getattr(program, "metadata", None) or {}
            enumerate_workers = metadata.get("enumerate_workers")
        if enumerate_workers is not None:
            workers = list(enumerate_workers(self.old_root))
        else:
            workers = list(self.old_root.tree()[1:])
        size = max(1, int(self.config.rolling_batch))
        return [workers[i : i + size] for i in range(0, len(workers), size)]

    # -- transaction helpers ------------------------------------------------------

    def _quiesce_with_retry(self, result: UpdateResult) -> None:
        """Wait for the barrier; on timeout, back off and retry (bounded)."""
        backoff_ns = QUIESCENCE_BACKOFF_NS
        while True:
            try:
                self.old_session.quiescence.wait(self.old_root, config=self.config)
                return
            except QuiescenceTimeout:
                if result.retries >= QUIESCENCE_MAX_RETRIES:
                    raise
                result.retries += 1
                obs.emit(
                    "update.quiescence_retry",
                    severity="warn",
                    attempt=result.retries,
                    backoff_ns=backoff_ns,
                )
                # Give in-flight work time to drain before the next wait.
                self.kernel.clock.advance(backoff_ns)
                backoff_ns *= 2

    def _derive_failure_site(self, root: "obs.Span") -> Optional[str]:
        """Deepest errored span of the update trace = the failing phase."""
        site = None
        for span in root.walk():
            if span is root or span.name == "rollback":
                continue
            if span.status == STATUS_ERROR:
                site = span.name
        return site

    def _verify_rollback(
        self,
        result: UpdateResult,
        entry_fp: Optional[TreeFingerprint],
        entry_steps: int,
    ) -> None:
        """Fingerprint-verify the rolled-back old tree.

        Every scope that reached its quiesce point was captured there
        (whole-tree: one entry covering everything; rolling: one per
        batch); parked processes cannot run between capture and rollback,
        so each capture is compared against a fresh snapshot of the same
        scope.  A failure before the first quiesce point falls back to
        the entry capture, usable only if no old thread ran since.
        """
        checkpoints = self._checkpoints
        if not checkpoints:
            if entry_fp is None or self.kernel.steps_executed != entry_steps:
                return  # old threads ran since capture: nothing comparable
            checkpoints = [(None, entry_fp, True)]
        problems: List[str] = []
        try:
            for subset, baseline, with_refcounts in checkpoints:
                after = TreeFingerprint.capture(
                    self.kernel,
                    self.old_root,
                    processes_subset=subset,
                    include_refcounts=with_refcounts,
                )
                problems.extend(baseline.diff(after))
        except BaseException as error:  # verification must never throw
            problems.append(f"fingerprint capture failed: {error!r}")
        result.rollback_verified = not problems
        if problems:
            obs.emit(
                "update.rollback_divergence",
                severity="error",
                problems="; ".join(problems[:8]),
            )

    def _record_blackbox(
        self,
        result: UpdateResult,
        recorder: "obs.SpanRecorder",
        reason: str,
    ) -> None:
        """Dump the flight recorder into ``result.blackbox`` (post-mortem).

        Runs on every failed update — rollback or contained commit fault.
        The artifact bundles the last N events (including any injected
        fault), the currently open span stack, periodic gauge samples,
        and a fingerprint summary of the surviving tree.  Written to
        ``config.blackbox_path`` when set (``Collector.blackbox``: a write
        failure is reported, never raised).
        """
        collector = obs.ACTIVE
        if collector is None:  # pragma: no cover - private install covers this
            return
        survivor = result.new_root if self._past_point_of_no_return else self.old_root
        fingerprint = None
        try:
            if survivor is not None:
                fingerprint = TreeFingerprint.capture(self.kernel, survivor).summary()
        except BaseException:  # the dump must never make a failure worse
            fingerprint = None
        # Deterministic replay hook: when this update ran under a
        # ``repro.replay`` recording, the black box carries the trace
        # reference (scenario spec + trace file path), so the post-mortem
        # artifact alone is enough to re-execute the run to this failure
        # (``python -m repro replay blackbox.json --to-failure``).
        trace = replay_trace.ACTIVE
        result.blackbox, result.blackbox_path = collector.blackbox(
            reason,
            self.config.blackbox_path,
            failure_site=result.failure_site,
            open_spans=[span.name for span in recorder._stack],
            fingerprint=fingerprint,
            error=repr(result.error),
            program=self.new_program.name,
            to_version=self.new_program.version,
            **({} if trace is None else {"trace": trace.reference()}),
        )

    def _emit_finished(self, result: UpdateResult) -> None:
        fields: dict = {
            "committed": result.committed,
            "rolled_back": result.rolled_back,
            "total_ns": result.total_ns,
            "retries": result.retries,
            "mode": result.mode,
        }
        if result.error is not None:
            fields["error"] = type(result.error).__name__
            if isinstance(result.error, ConflictError):
                fields["conflict_origin"] = result.error.origin
                fields["conflict_subject"] = result.error.subject
        if result.failure_site is not None:
            fields["failure_site"] = result.failure_site
        if result.rolled_back:
            fields["rollback_verified"] = result.rollback_verified
            fields["rollback_failed"] = result.rollback_failed
        obs.emit(
            "update.finished",
            severity="info" if result.committed and result.error is None
            else "error" if result.rollback_failed
            else "warn",
            **fields,
        )

    # -- stages ------------------------------------------------------------------

    def _offline_analysis(self) -> GlobalRealloc:
        plan = GlobalRealloc()
        annotations = getattr(self.old_session.program, "annotations", None)
        for process in self.old_root.tree():
            trace = apply_invariants(
                self._memo.trace(process, self.config, annotations)
            )
            for name in immutable_static_symbols(trace):
                symbol = process.symbols.get(name)
                if symbol is not None and symbol.section != "text":
                    # Function addresses are never pinned: each version
                    # lays out its own code; code pointers remap by symbol.
                    plan.pin_symbol(name, symbol.address)
            plan.add_heap_spans(process.pid, immutable_heap_spans(trace))
        for lib_name, lib in getattr(self.old_root, "libs", {}).items():
            plan.pin_library(lib_name, lib.base)
        # Feed the relink outputs into the new program's loader inputs.
        self.new_program.pinned_symbols.update(plan.pinned_symbols)
        self.new_program.lib_bases.update(plan.lib_bases)
        return plan

    def _restart(self, plan: GlobalRealloc) -> Process:
        fire(self.config, "restart.spawn")
        session = MCRSession(
            self.kernel, self.new_program, self.build, self.config, role="restart"
        )
        self.new_session = session
        inventory = ImmutableInventory.collect(
            self.old_root,
            {
                pid: self.old_session.startup_log.startup_fds(pid)
                for pid in self.old_session.startup_log.pids()
            },
        )
        stash = FdStash()
        session.stash = stash
        self.old_session.startup_log.reset_consumption()
        session.replay_engine = ReplayEngine(session, self.old_session.startup_log, stash)
        # Pre-request quiescence so no thread consumes a fresh event.
        session.quiescence.request()
        # Global inheritance: ship every old descriptor over a Unix socket.
        receiver, sender = self.kernel.net.socketpair()
        self._boot_channel = (receiver, sender)
        for entry in inventory.fd_entries:
            fire(self.config, "restart.fd_handoff")
            header = f"{entry.src_pid}:{entry.src_fd}".encode()
            sender.sendmsg(header, [entry.obj])
        sender.closed = True

        program_main = self.new_program.main
        expected = len(inventory.fd_entries)

        # Deliberately NOT a @sim_function: the bootstrap must be invisible
        # to call-stack IDs, or every replayed syscall would carry an extra
        # frame and never match the old version's records.
        def mcr_bootstrap(sys):
            boot_fd = sys.process.fdtable.install(receiver)
            for _ in range(expected):
                data, fds = yield from sys.raw(
                    "recvmsg", {"fd": boot_fd, "install_reserved": True}
                )
                src_pid, src_fd = (int(x) for x in data.decode().split(":"))
                stash.add(src_pid, src_fd, fds[0])
            yield from sys.raw("close", {"fd": boot_fd})
            result = yield from program_main(sys)
            return result

        namespace = PidNamespace(first_pid=1000)
        namespace.force_next_pid(self.old_root.pid)
        new_root = load_program(
            self.kernel,
            self.new_program,
            build=self.build,
            session=session,
            namespace=namespace,
            main_override=mcr_bootstrap,
        )
        # Global reallocation: reserve the union of all superobjects in the
        # root heap; fork propagates the reservations tree-wide.
        plan.apply_union_to_heap(new_root.heap)
        return new_root

    def _drive_to_barrier(self, new_root: Process) -> bool:
        """Run the world until the new tree parks (or the deadline passes)."""
        quiescence = self.new_session.quiescence
        self.kernel.run(
            until=lambda: quiescence.is_quiescent(new_root),
            max_ns=QUIESCENCE_DEADLINE_NS,
        )
        return quiescence.is_quiescent(new_root)

    def _run_control_migration(self, new_root: Process) -> None:
        if not self._drive_to_barrier(new_root):
            laggards = [
                f"{t.process.name}:{t.name}@{t.top_function()}"
                for t in tree_live_threads(new_root)
                if not t.at_barrier
            ]
            raise MCRError(
                f"control migration did not converge; laggards: {', '.join(laggards)}"
            )
        self.new_session.replay_engine.finish(new_root)

    def _run_post_startup_handlers(self, new_root: Process) -> None:
        annotations = getattr(self.new_program, "annotations", None)
        if annotations is None:
            return
        for handler in annotations.handlers_for_stage("post_startup"):
            fire(self.config, "restore.handlers")
            handler.handler(RestoreContext(self, new_root))

    def _converge_volatile(self, new_root: Process) -> None:
        """Drive freshly recreated threads/processes to the barrier."""
        if self.new_session.quiescence.is_quiescent(new_root):
            return
        if not self._drive_to_barrier(new_root):
            raise MCRError("volatile quiescent states did not converge")

    def _restore_runtime_fds(
        self, new_root: Process, only: Optional[List[Process]] = None
    ) -> None:
        """Install post-startup descriptors (open connections) in pairs.

        ``only`` restricts the restore to a subset of old processes: the
        rolling loop restores each batch's descriptors at the batch's own
        quiesce point, so still-changing connections are never copied.
        """
        transfer = StateTransfer(
            self.old_root, new_root, self.new_program, only_processes=only
        )
        restored = 0
        for old_proc, new_proc in transfer.pair_processes():
            for fd, obj in old_proc.fdtable.items():
                if fd in new_proc.fdtable:
                    continue
                fire(self.config, "restore.fds")
                acquire = getattr(obj, "acquire", None)
                if acquire is not None:
                    acquire()
                new_proc.fdtable.install(obj, fd=fd)
                if obj.kind == "listener":
                    self.kernel.net.adopt_listener(obj)
                restored += 1
        self.kernel.clock.advance(restored * TransferCostModel.PER_FD_RESTORE_NS)

    def _commit_prepare(self, new_root: Process) -> None:
        """Everything commit needs that can still fail safely.

        Validates the new tree is in a committable state (quiescent, with
        a live session) while the old tree is still intact: a fault here
        rolls back like any earlier phase.
        """
        fire(self.config, "commit.prepare")
        session = self.new_session
        if session is None:
            raise MCRError("commit without a restarted session")
        if not session.quiescence.is_quiescent(new_root):
            raise MCRError("commit attempted before the new tree quiesced")

    def _commit_critical(self, new_root: Process) -> None:
        """The critical section: destroying the old tree is irreversible.

        Any fault past this point is contained by ``run_update`` rolling
        *forward* — re-running the idempotent ``_finish_commit`` so the
        new version always ends up serving.
        """
        self.kernel.terminate_tree(self.old_root)
        fire(self.config, "commit.critical")
        self._finish_commit()

    def _finish_commit(self) -> None:
        """Idempotent tail of commit: release barriers, flip the phase."""
        self.old_session.quiescence.release()
        self.new_session.phase = PHASE_NORMAL
        self.new_session.quiescence.release()

    def _rollback(self, new_root: Optional[Process]) -> None:
        """Atomic reversal: destroy the new tree, resume the old version.

        Idempotent and double-fault-safe: each teardown step runs under
        its own guard, so one faulting step (including an injected
        ``rollback`` fault) never prevents the remaining steps — the old
        version is *always* resumed.  Step failures are recorded in
        ``_rollback_failures`` and surfaced as ``update.rollback_failed``
        events, never raised.
        """
        if self._rolled_back:
            return
        self._rolled_back = True
        self._rollback_step("fault-injection", lambda: fire(self.config, "rollback"))
        self._rollback_step("drain-boot-channel", self._drain_boot_channel)
        if new_root is not None:
            self._rollback_step(
                "terminate-new-tree",
                lambda: self.kernel.terminate_tree(new_root),
            )
        self._rollback_step("readopt-listeners", self._readopt_old_listeners)
        self._rollback_step(
            "reset-startup-log", self.old_session.startup_log.reset_consumption
        )
        self._rollback_step(
            "release-quiescence", self.old_session.quiescence.release
        )

    def _rollback_step(self, label: str, action: Callable[[], None]) -> None:
        try:
            action()
        except BaseException as error:
            self._rollback_failures.append(f"{label}: {error!r}")
            obs.emit(
                "update.rollback_failed",
                severity="error",
                step=label,
                error=repr(error),
            )

    def _drain_boot_channel(self) -> None:
        """Discard in-flight fd-handoff messages (handoff died mid-stream).

        The messages hold references to old-version kernel objects; the
        old fd tables still own them, so dropping the queue copies leaks
        nothing — but leaving them queued would pin a one-sided channel.
        """
        if self._boot_channel is None:
            return
        receiver, sender = self._boot_channel
        self._boot_channel = None
        for endpoint in (receiver, sender):
            close = getattr(endpoint, "close", None)
            if close is not None:
                close()
            else:  # pragma: no cover - defensive for stub endpoints
                endpoint.closed = True

    def _readopt_old_listeners(self) -> None:
        """Ensure every old-tree listener is registered and open.

        Normally a no-op: the new tree only ever shared the old listener
        objects, and terminating it drops shares without releasing ports.
        But if a partially-restarted tree closed or displaced a listener,
        re-adoption restores the old version's network identity; anything
        we had to repair is reported.
        """
        net = self.kernel.net
        for process in self.old_root.tree():
            for _fd, obj in process.fdtable.items():
                if getattr(obj, "kind", None) != "listener":
                    continue
                if obj.closed or net._listeners.get(obj.port) is not obj:
                    net.adopt_listener(obj)
                    obs.emit(
                        "update.listener_readopted",
                        severity="warn",
                        port=obj.port,
                    )
