"""Human-readable diagnostics for MCR operators.

The paper's workflow leans on conflicts being *actionable* ("Adding
annotations was also greatly simplified by the conflicts flagged by
mutable reinitialization and mutable tracing").  This module renders what
an operator needs when that happens:

* ``describe_trace``   — per-process object-graph summary (counts by
  region, invariants, top conservative containers);
* ``describe_update``  — the full story of one update attempt: timings,
  per-process transfer statistics, and — on rollback — a diagnosis of the
  conflict with the paper's suggested remediation;
* ``explain_conflict`` — maps a ``ConflictError`` to the annotation or
  design change that resolves it (paper §3/§7).
"""

from __future__ import annotations

from typing import List, Optional

from repro.clock import ns_to_ms
from repro.errors import ConflictError, QuiescenceTimeout
from repro.kernel.process import Process
from repro.mcr.tracing.graph import GraphBuilder, TraceResult
from repro.mcr.tracing.invariants import apply_invariants, invariant_counts
from repro.obs.spans import render_tree


# The largest conservatively traversed containers a trace summary lists.
TOP_CONSERVATIVE = 5


def describe_trace(trace: TraceResult) -> str:
    """Summarize one process's traced object graph."""
    records = list(trace.objects.values())
    by_region = {}
    for record in records:
        by_region[record.region] = by_region.get(record.region, 0) + 1
    counts = invariant_counts(trace)
    lines = [
        f"process {trace.process.name} (pid {trace.process.pid}):",
        f"  objects: {counts['objects']} "
        f"(static {by_region.get('static', 0)}, "
        f"dynamic {by_region.get('dynamic', 0)}, "
        f"lib {by_region.get('lib', 0)})",
        f"  pointers: {len(trace.precise_pointers)} precise, "
        f"{len(trace.likely_pointers)} likely "
        f"({trace.dangling_precise} dangling)",
        f"  invariants: {counts['immutable']} immutable, "
        f"{counts['nonupdatable']} nonupdatable, "
        f"{counts['conservative']} conservatively traversed",
    ]
    conservative = sorted(
        (r for r in records if r.conservatively_traversed),
        key=lambda r: r.size,
        reverse=True,
    )[:TOP_CONSERVATIVE]
    if conservative:
        lines.append("  largest conservative containers:")
        for record in conservative:
            label = record.name or record.site or "(anonymous)"
            lines.append(
                f"    0x{record.base:x} +{record.size:<7} {label}"
            )
    return "\n".join(lines)


def describe_process_tree(root: Process) -> str:
    """Trace and summarize every process in a (quiesced) tree."""
    sections = []
    for process in root.tree():
        trace = apply_invariants(GraphBuilder(process).build())
        sections.append(describe_trace(trace))
    return "\n\n".join(sections)


def explain_conflict(error: BaseException) -> str:
    """Suggest the remediation the paper prescribes for a conflict."""
    if isinstance(error, QuiescenceTimeout):
        return (
            "Quiescence did not converge: a long-lived thread is blocked at "
            "a call site that was never profiled as a quiescent point. "
            "Re-run the quiescence profiler with a workload that drives the "
            "program into this stall state (paper §4/§7)."
        )
    if isinstance(error, ConflictError):
        if error.origin == "reinit":
            if "argument mismatch" in (error.detail or ""):
                return (
                    "Startup replay found a matching operation whose "
                    "arguments changed between versions. If the change is "
                    "intentional, add an MCR_ADD_REINIT_HANDLER that "
                    "resolves the operation (paper §5: semantics changes "
                    "between versions need user replay extensions)."
                )
            if "never replayed" in (error.detail or ""):
                return (
                    "The new version's startup omitted an operation that "
                    "created an inherited immutable object (e.g. a listening "
                    "socket). Either the omission is a bug in the update, or "
                    "an MCR_ADD_REINIT_HANDLER must release/recreate the "
                    "object explicitly (paper §5, conservative matching)."
                )
            if "sequential mismatch" in (error.detail or ""):
                return (
                    "The sequential matching ablation flagged a reordering "
                    "that the default call-stack-ID strategy tolerates; use "
                    "match_strategy='callstack' (paper §5)."
                )
            return (
                "Mutable reinitialization could not complete control "
                "migration; inspect the startup log against the new "
                "version's startup code (paper §5)."
            )
        if error.origin == "tracing":
            if "type of conservatively-handled object changed" in str(error):
                return (
                    "The update changes the type of an object that mutable "
                    "tracing can only handle conservatively (it is the "
                    "target of likely pointers or has ambiguous type "
                    "information). Add an MCR_ADD_OBJ_HANDLER or an "
                    "encoded-pointer annotation so the object can be traced "
                    "precisely (paper §6: trade annotation effort against "
                    "update-induced transformations)."
                )
            if "no new-version counterpart" in str(error):
                return (
                    "Live state points to an object the new version no "
                    "longer defines (deleted global/type). The update needs "
                    "a state-transfer handler that migrates or drops this "
                    "state (paper §8: 793 LOC of ST code across updates)."
                )
            return (
                "Mutable tracing flagged a state object it cannot remap; "
                "add a traversal handler for it (paper §6)."
            )
    return f"Unrecognized failure ({type(error).__name__}): {error}"


def describe_update(result) -> str:
    """Render one UpdateResult as an operator-facing report."""
    lines = ["live update report", "=" * 19]
    status = "COMMITTED" if result.committed else "ROLLED BACK"
    lines.append(f"status: {status}")
    if result.failure_site:
        lines.append(f"failure site: {result.failure_site}")
    if result.retries:
        lines.append(f"quiescence retries: {result.retries}")
    if result.rolled_back:
        verdict = {
            True: "verified intact",
            False: "DIVERGED from checkpoint",
            None: "not checked",
        }[result.rollback_verified]
        lines.append(f"old-version fingerprint: {verdict}")
        if result.rollback_failed:
            lines.append(
                "rollback degraded: one or more rollback steps failed "
                "(see update.rollback_failed events)"
            )
    if result.blackbox_path:
        lines.append(f"black box: {result.blackbox_path}")
    lines.append(f"quiescence:        {ns_to_ms(result.quiescence_ns):8.2f} ms")
    lines.append(f"control migration: {ns_to_ms(result.control_migration_ns):8.2f} ms")
    lines.append(f"volatile restore:  {ns_to_ms(result.restore_ns):8.2f} ms")
    lines.append(f"state transfer:    {ns_to_ms(result.transfer_ns):8.2f} ms")
    lines.append(f"total:             {ns_to_ms(result.total_ns):8.2f} ms")
    if result.spans is not None:
        # The breakdown above is *derived from* this tree, so the two
        # views can never disagree.
        lines.append("")
        lines.append("phase timeline:")
        lines.extend("  " + line for line in render_tree(result.spans).splitlines())
    report = result.transfer_report
    if report is not None:
        lines.append("")
        lines.append(
            f"transfer: {len(report.per_process)} process pair(s), "
            f"{sum(s.objects_transferred for s in report.per_process)} objects "
            f"transferred, "
            f"{sum(s.objects_skipped_clean for s in report.per_process)} skipped "
            f"clean ({report.aggregate_reduction():.0%} of bytes)"
        )
        for stats in report.per_process:
            lines.append(
                f"  pid {stats.pid}: {stats.objects_traced} traced, "
                f"{stats.objects_transferred} transferred, "
                f"{stats.bytes_copied} B copied, "
                f"{stats.pointers_fixed} pointers fixed, "
                f"{stats.transforms} type transforms"
            )
    client = getattr(result, "client", None)
    if client is not None:
        summary = client.to_dict()
        lines.append("")
        lines.append("client-perceived:")
        lines.append(
            f"  latency: p50 {summary['p50_ms']:.2f} ms, "
            f"p95 {summary['p95_ms']:.2f} ms, "
            f"p99 {summary['p99_ms']:.2f} ms, "
            f"max {summary['max_ms']:.2f} ms "
            f"({summary['requests']} requests)"
        )
        lines.append(
            f"  blackout: {summary['blackout_ms']:.2f} ms "
            f"(budget {summary['downtime_budget_ms']:.0f} ms)"
        )
        lines.append(
            "  SLO: met" if summary["slo_ok"] else "  SLO: VIOLATED"
        )
    if result.error is not None:
        lines.append("")
        lines.append(f"failure: {result.error}")
        lines.append(f"advice:  {explain_conflict(result.error)}")
    return "\n".join(lines)
