"""Profiler output: thread classes and quiescent points.

A *thread class* groups threads by creation-time call stack ID — "the
short-lived and long-lived classes of threads identified" in the paper's
Table 1.  Each long-lived class carries its deepest never-terminating loop
and its quiescent point: the blocking call site where threads of the class
spend most of their stalled time.

A quiescent point is **persistent** when the class is already alive right
after startup (it will be recreated automatically by mutable
reinitialization) and **volatile** when it only appears later (on-demand
workers — these need ``MCR_ADD_REINIT_HANDLER`` support to be restored).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple


class ThreadClass:
    """Threads sharing a creation-time call stack ID."""

    def __init__(self, creation_stack_id: int, creation_stack: List[str]) -> None:
        self.creation_stack_id = creation_stack_id
        self.creation_stack = list(creation_stack)
        self.count = 0
        self.exited_count = 0
        self.kind = "short"  # "short" | "long"
        self.persistent = False
        # (function_name, syscall_name) with the largest stalled time.
        self.quiescent_point: Optional[Tuple[str, str]] = None
        self.long_lived_loops: List[str] = []

    @property
    def name(self) -> str:
        return self.creation_stack[-1] if self.creation_stack else "<root>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        qp = f" qp={self.quiescent_point}" if self.quiescent_point else ""
        return f"<ThreadClass {self.name} {self.kind} x{self.count}{qp}>"


class QuiescenceReport:
    """Everything the profiler learned; consumed by the build step."""

    def __init__(self, program_name: str) -> None:
        self.program_name = program_name
        self.classes: Dict[int, ThreadClass] = {}

    def add_class(self, cls: ThreadClass) -> None:
        self.classes[cls.creation_stack_id] = cls

    # -- Table 1 counters -----------------------------------------------------

    def short_lived(self) -> List[ThreadClass]:
        return [c for c in self.classes.values() if c.kind == "short"]

    def long_lived(self) -> List[ThreadClass]:
        return [c for c in self.classes.values() if c.kind == "long"]

    def quiescent_points(self) -> Set[Tuple[str, str]]:
        """(function, syscall) pairs to unblockify at build time."""
        return {
            c.quiescent_point
            for c in self.long_lived()
            if c.quiescent_point is not None
        }

    def summary(self) -> Dict[str, int]:
        """The 'Quiescence profiling' column group of Table 1."""
        qps = [c for c in self.long_lived() if c.quiescent_point is not None]
        return {
            "SL": len(self.short_lived()),
            "LL": len(self.long_lived()),
            "QP": len({(c.creation_stack_id, c.quiescent_point) for c in qps}),
            "Per": len([c for c in qps if c.persistent]),
            "Vol": len([c for c in qps if not c.persistent]),
        }

    def render(self) -> str:
        """Human-readable report (what the profiler prints for the user)."""
        lines = [f"Quiescence profile for {self.program_name}", "=" * 48]
        for cls in sorted(self.classes.values(), key=lambda c: (c.kind, c.name)):
            lines.append(
                f"[{cls.kind:5s}] {' / '.join(cls.creation_stack)} (x{cls.count})"
            )
            if cls.kind == "long":
                scope = "persistent" if cls.persistent else "volatile"
                lines.append(f"         quiescent point: {cls.quiescent_point} ({scope})")
                if cls.long_lived_loops:
                    lines.append(f"         long-lived loops: {', '.join(cls.long_lived_loops)}")
        counts = self.summary()
        lines.append("-" * 48)
        lines.append(
            "SL={SL} LL={LL} QP={QP} Per={Per} Vol={Vol}".format(**counts)
        )
        return "\n".join(lines)
