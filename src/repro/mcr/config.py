"""MCR tunables and the state-transfer cost model.

``MCRConfig`` holds the policy a caller chooses per update (tracing
policy, fault plan, update mode, SLO budget, checkpoint cadence); the
quiescence protocol's timings are constants beside their readers.  The
transfer cost constants convert mutable-tracing work items into
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
        scan_opaque_int64: bool = True,          # pointer-sized ints are opaque
        transfer_shared_libs: bool = False,      # paper default: don't
        interior_only_nonupdatable: bool = False,
        faults=None,                             # FaultPlan (None = nothing armed)
        downtime_budget_ns: int = 1_000_000_000, # client-perceived SLO budget (1 s)
        blackbox_path=None,                      # where to dump blackbox.json
        update_mode: str = "whole-tree",         # "whole-tree" | "rolling"
        rolling_batch: int = 1,                  # workers quiesced/transferred per batch
        checkpoint_interval_ns: int = 100_000_000,  # incremental-checkpoint cadence (100 ms)
    ) -> None:
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
        # Incremental checkpointing (``repro.checkpoint``): the cadence at
        # which deltas are cut and streamed to a warm standby — the knob
        # the failover bench sweeps against RTO.
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
