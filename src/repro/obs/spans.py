"""Nested spans over virtual time.

A span is one timed phase of work (an update attempt, one of its stages,
a transfer pass).  Spans nest: beginning a span while another is open
makes it a child, so one update attempt records a tree whose root is the
``update`` span and whose leaves are the finest phases.  All stamps come
from the ``VirtualClock``, which makes span trees *deterministic*: two
identical runs produce byte-for-byte identical exports.

``SpanRecorder`` is the mutable recording surface; it is embedded in an
``obs.Collector`` but also works standalone (the update controller always
records its phase tree through one, whether or not a collector is
installed).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.clock import VirtualClock, fmt_ms

STATUS_OPEN = "open"
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One timed phase: name, [start, end) in virtual ns, children."""

    __slots__ = ("name", "start_ns", "end_ns", "status", "attrs", "parent", "children")

    def __init__(
        self,
        name: str,
        start_ns: int,
        parent: Optional["Span"] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.status = STATUS_OPEN
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.parent = parent
        self.children: List["Span"] = []

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def closed(self) -> bool:
        return self.end_ns is not None

    def close(self, end_ns: int, status: str = STATUS_OK) -> None:
        if self.end_ns is not None:
            return
        if end_ns < self.start_ns:
            raise ValueError(f"span {self.name} cannot end before it starts")
        self.end_ns = end_ns
        self.status = status

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order traversal (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.name} {self.status} {self.duration_ns}ns>"


class SpanRecorder:
    """Records a forest of spans stamped with one virtual clock."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, **attrs: Any) -> Span:
        span = Span(name, self.clock.now_ns, parent=self.current, attrs=attrs)
        if span.parent is None:
            self.roots.append(span)
        else:
            span.parent.children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span] = None, status: str = STATUS_OK) -> Span:
        """Close ``span`` (default: the innermost open one).

        Any spans opened inside ``span`` and never closed are closed with
        it, so an exception mid-phase cannot leave the stack corrupted.
        """
        if not self._stack:
            raise RuntimeError("no open span to end")
        if span is None:
            span = self._stack[-1]
        if span not in self._stack:
            raise RuntimeError(f"span {span.name} is not open")
        now_ns = self.clock.now_ns
        while self._stack:
            top = self._stack.pop()
            top.close(now_ns, status)
            if top is span:
                break
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context manager: error status (and re-raise) on exception."""
        opened = self.begin(name, **attrs)
        try:
            yield opened
        except BaseException:
            self.end(opened, status=STATUS_ERROR)
            raise
        else:
            self.end(opened, status=STATUS_OK)


def render_tree(span: Span) -> str:
    """Indented plain-text rendering of one span tree."""
    lines: List[str] = []

    def visit(node: Span, depth: int) -> None:
        marker = "" if node.status == STATUS_OK else f" [{node.status}]"
        lines.append(
            f"{'  ' * depth}{node.name:<{max(24 - 2 * depth, 1)}} "
            f"{fmt_ms(node.duration_ns):>12}{marker}"
        )
        for child in node.children:
            visit(child, depth + 1)

    visit(span, 0)
    return "\n".join(lines)
