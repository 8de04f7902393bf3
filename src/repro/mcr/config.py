"""MCR tunables and the state-transfer cost model.

Quiescence/unblockification knobs control the detection protocol of §4;
the transfer cost constants convert mutable-tracing work items into
virtual milliseconds for the update-time evaluation (Figure 3).  The
constants are calibrated so an idle single-process server lands in the
paper's 28–187 ms baseline band; only the *shape* across servers and
connection counts is asserted by the benchmarks.
"""

from __future__ import annotations


class MCRConfig:
    """Session-wide policy knobs."""

    def __init__(
        self,
        unblockify_slice_ns: int = 20_000_000,   # 20 ms timeout slices
        unblockify_poll_cost_ns: int = 1_200,    # cost of each re-arm
        unblockify_entry_cost_ns: int = 260,     # wrapper entry per call
        quiescence_deadline_ns: int = 1_000_000_000,  # 1 s barrier deadline
        quiescence_max_retries: int = 2,         # extra wait attempts on timeout
        quiescence_backoff_ns: int = 25_000_000, # first retry backoff (doubles)
        scan_opaque_int64: bool = True,          # pointer-sized ints are opaque
        transfer_shared_libs: bool = False,      # paper default: don't
        interior_only_nonupdatable: bool = False,
        faults=None,                             # FaultPlan (None = nothing armed)
        verify_rollback: bool = True,            # fingerprint-check rolled-back trees
        downtime_budget_ns: int = 1_000_000_000, # client-perceived SLO budget (1 s)
        blackbox_path=None,                      # where to dump blackbox.json
        update_mode: str = "whole-tree",         # "whole-tree" | "rolling"
        rolling_batch: int = 1,                  # workers quiesced/transferred per batch
        checkpoint_path=None,                    # durable image file (None = in-memory only)
        checkpoint_interval_ns: int = 100_000_000,  # incremental-checkpoint cadence (100 ms)
    ) -> None:
        self.unblockify_slice_ns = unblockify_slice_ns
        self.unblockify_poll_cost_ns = unblockify_poll_cost_ns
        self.unblockify_entry_cost_ns = unblockify_entry_cost_ns
        self.quiescence_deadline_ns = quiescence_deadline_ns
        # On QuiescenceTimeout the controller retries the barrier wait up
        # to ``quiescence_max_retries`` times, advancing the virtual clock
        # by an exponentially growing backoff before each attempt, before
        # declaring the update failed.
        self.quiescence_max_retries = quiescence_max_retries
        self.quiescence_backoff_ns = quiescence_backoff_ns
        self.scan_opaque_int64 = scan_opaque_int64
        self.transfer_shared_libs = transfer_shared_libs
        # Paper §6: "we could restrict [nonupdatability] to only interior
        # pointers ... but we have not implemented this option yet."  We
        # did: with this flag, a likely pointer to an object *base* pins
        # the target (immutable) but leaves it type-transformable, since a
        # base pointer survives any same-address layout change.
        self.interior_only_nonupdatable = interior_only_nonupdatable
        # Fault injection (``repro.mcr.faults``): a ``FaultPlan`` armed at
        # named pipeline sites, or None.  With None every injection point
        # is a single attribute read, so the production path is untouched.
        self.faults = faults
        # After every rolled-back update, compare a host-side fingerprint
        # of the old tree (memory CRCs, fd tables, allocator state,
        # listeners) against the checkpoint-time capture and record the
        # verdict in ``UpdateResult.rollback_verified``.
        self.verify_rollback = verify_rollback
        # Client-perceived SLO: an update "meets SLO" when the measured
        # blackout interval (longest gap in completed responses) stays
        # within this budget.  The paper's headline claim is that the
        # whole update takes well under 1 s, so that is the default.
        self.downtime_budget_ns = downtime_budget_ns
        # When set, every failed/rolled-back update dumps the flight
        # recorder's black-box (last events, open span stack, tree
        # fingerprint) to this path as JSON; None keeps it in memory only
        # (``UpdateResult.blackbox``).
        self.blackbox_path = blackbox_path
        # Update orchestration mode.  "whole-tree" (the default) quiesces
        # the entire process tree and transfers it as one transaction —
        # its virtual-time accounting is unchanged from earlier releases.
        # "rolling" quiesces/traces/transfers one worker batch at a time
        # (CRIU pre-dump style) while the remaining workers keep serving,
        # master handed off last; the whole sequence still commits or
        # rolls back atomically.  ``rolling_batch`` sets how many workers
        # one batch holds.
        if update_mode not in ("whole-tree", "rolling"):
            raise ValueError(
                f"update_mode must be 'whole-tree' or 'rolling', got {update_mode!r}"
            )
        self.update_mode = update_mode
        self.rolling_batch = max(1, int(rolling_batch))
        # Durable checkpointing (``repro.checkpoint``).  ``checkpoint_path``
        # is where full images are written (atomically: tmp + rename, so a
        # torn write never replaces the last good image); None keeps
        # images in memory only.  ``checkpoint_interval_ns`` is the
        # cadence at which incremental deltas are cut and streamed to a
        # warm standby — the knob the failover bench sweeps against RTO.
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval_ns = int(checkpoint_interval_ns)


class TransferCostModel:
    """Virtual-time costs of state-transfer work items (ns).

    Mutable tracing runs in the controller (host Python), so its duration
    must be charged to the virtual clock explicitly.  The per-process
    setup cost is serial at the central coordinator; per-object work
    parallelizes across the process hierarchy (paper §6: "fully
    parallelizing the state transfer operations in a multiprocess
    context"), so total time = serial setup + max over processes.
    """

    def __init__(
        self,
        process_channel_setup_ns: int = 2_600_000,  # connect + shm channel
        per_object_visit_ns: int = 2_700,
        per_pointer_fixup_ns: int = 900,
        per_byte_copy_ns: int = 3,
        per_page_scan_ns: int = 1_500,              # soft-dirty retrieval
        per_transform_ns: int = 6_000,              # type transformation
        per_likely_scan_word_ns: int = 14,
        per_fd_restore_ns: int = 150_000,           # in-kernel fd restore
        base_coordination_ns: int = 16_000_000,     # coordinator bring-up
    ) -> None:
        self.process_channel_setup_ns = process_channel_setup_ns
        self.per_object_visit_ns = per_object_visit_ns
        self.per_pointer_fixup_ns = per_pointer_fixup_ns
        self.per_byte_copy_ns = per_byte_copy_ns
        self.per_page_scan_ns = per_page_scan_ns
        self.per_transform_ns = per_transform_ns
        self.per_likely_scan_word_ns = per_likely_scan_word_ns
        self.per_fd_restore_ns = per_fd_restore_ns
        self.base_coordination_ns = base_coordination_ns
