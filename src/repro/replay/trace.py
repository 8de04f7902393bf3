"""The trace log: every nondeterminism source of one run, re-executably.

A ``TraceLog`` in **record** mode is attached to a run (via the module
scope ``tracing(trace)`` plus ``bind_kernel``) and accumulates:

* the **scenario header** — the JSON-serializable spec that re-creates
  the run (server, update mode, fault plan, workload, master seed);
* the **draw log** — every pseudo-random draw taken through a named
  ``repro.replay.rng`` stream, in global order;
* **scheduler checkpoints** — a rolling CRC of the scheduler's pick
  order (which thread ran each step), snapshotted with the step count
  and the virtual clock every ``checkpoint_interval`` picks;
* the **final observables** — virtual clock, span-tree digest, tree
  fingerprint digest, and the update outcome.

The same object in **replay** mode carries a recorded baseline and
*verifies* instead of accumulating: each draw and each checkpoint is
compared against the recording as it happens, and the first few
mismatches are kept as ``Divergence`` records (never raised — a replay
divergence must not break the run's own never-raise safety property).
``finish`` compares the final observables.  ``equivalent`` is True only
when nothing diverged anywhere.

The file format is canonical JSON (sorted keys), so identical runs
produce byte-identical trace files.  Floats round-trip exactly through
``repr`` (shortest round-trip), so draw verification is exact equality,
not tolerance-based.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

FORMAT = "repro-trace-v1"

# One scheduler checkpoint every this many picks.  Small enough to
# localize a divergence to a ~2k-step window, large enough that a
# multi-million-step run stays bounded (see MAX_CHECKPOINTS).
DEFAULT_CHECKPOINT_INTERVAL = 2_048
# Hard cap on stored checkpoints; past it the rolling CRC still folds
# every pick (the final CRC covers the whole run) but no new window
# snapshots are kept.
MAX_CHECKPOINTS = 4_096
# Keep the first few mismatches only: after the schedule diverges once,
# everything downstream differs and recording it all is noise.
MAX_DIVERGENCES = 8

MODE_RECORD = "record"
MODE_REPLAY = "replay"


class Divergence:
    """One replay mismatch: what differed, where, expected vs actual."""

    __slots__ = ("kind", "where", "expected", "actual")

    def __init__(self, kind: str, where: str, expected: Any, actual: Any) -> None:
        self.kind = kind          # "rng" | "sched" | "final"
        self.where = where
        self.expected = expected
        self.actual = actual

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "where": self.where,
            "expected": self.expected,
            "actual": self.actual,
        }

    def __repr__(self) -> str:
        return (
            f"<Divergence {self.kind} at {self.where}: "
            f"expected {self.expected!r}, got {self.actual!r}>"
        )


class TraceLog:
    """Record or verify one run's nondeterminism sources."""

    def __init__(
        self,
        scenario: Dict[str, Any],
        mode: str = MODE_RECORD,
        recorded: Optional["TraceLog"] = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        if mode not in (MODE_RECORD, MODE_REPLAY):
            raise ValueError(f"mode must be 'record' or 'replay', got {mode!r}")
        if mode == MODE_REPLAY and recorded is None:
            raise ValueError("replay mode needs the recorded baseline")
        self.scenario = dict(scenario)
        self.mode = mode
        self.recorded = recorded
        self.path: Optional[str] = None
        self.checkpoint_interval = checkpoint_interval
        # Accumulated state (both modes; in replay mode it doubles as the
        # "actual" side of the comparison).
        self.draws: List[List[Any]] = []       # [stream, stream_index, value]
        self.checkpoints: List[List[int]] = []  # [picks, steps, clock_ns, crc]
        self.final: Dict[str, Any] = {}
        # Rolling scheduler state.
        self._crc = 0
        self._picks = 0
        # Replay cursors.
        self._draw_cursor = 0
        self._ckpt_cursor = 0
        self.divergences: List[Divergence] = []

    # -- constructors ---------------------------------------------------------

    @classmethod
    def record(cls, scenario: Dict[str, Any]) -> "TraceLog":
        return cls(scenario, mode=MODE_RECORD)

    @classmethod
    def replay_of(cls, recorded: "TraceLog") -> "TraceLog":
        return cls(
            recorded.scenario,
            mode=MODE_REPLAY,
            recorded=recorded,
            checkpoint_interval=recorded.checkpoint_interval,
        )

    # -- attachment -----------------------------------------------------------

    def bind_kernel(self, kernel) -> None:
        """Hook the kernel scheduler's pick stream into this trace."""
        kernel.trace = self

    # -- the recording hooks --------------------------------------------------

    def on_pick(self, thread) -> None:
        """Called by ``Kernel._step`` for every scheduled thread pick."""
        token = getattr(thread, "trace_token", None)
        if token is None:
            token = (
                f"{thread.process.global_id}.{thread.tid}.{thread.name}".encode()
            )
            thread.trace_token = token
        self._crc = zlib.crc32(token, self._crc)
        self._picks += 1
        if self._picks % self.checkpoint_interval == 0:
            kernel = thread.process.kernel
            self._checkpoint(kernel.steps_executed, kernel.clock.now_ns)

    def _checkpoint(self, steps: int, clock_ns: int) -> None:
        entry = [self._picks, steps, clock_ns, self._crc]
        if self.mode == MODE_REPLAY:
            index = self._ckpt_cursor
            self._ckpt_cursor += 1
            baseline = self.recorded.checkpoints
            if index < len(baseline) and baseline[index] != entry:
                self._diverge(
                    "sched", f"checkpoint[{index}]", baseline[index], entry
                )
        if len(self.checkpoints) < MAX_CHECKPOINTS:
            self.checkpoints.append(entry)

    def on_draw(self, stream: str, index: int, value: Any) -> None:
        """Called by ``RngStream`` for every pseudo-random draw."""
        entry = [stream, index, value]
        if self.mode == MODE_REPLAY:
            cursor = self._draw_cursor
            self._draw_cursor += 1
            baseline = self.recorded.draws
            if cursor >= len(baseline):
                self._diverge("rng", f"draw[{cursor}] (extra)", None, entry)
            elif baseline[cursor] != entry:
                self._diverge("rng", f"draw[{cursor}]", baseline[cursor], entry)
        self.draws.append(entry)

    def _diverge(self, kind: str, where: str, expected: Any, actual: Any) -> None:
        if len(self.divergences) < MAX_DIVERGENCES:
            self.divergences.append(Divergence(kind, where, expected, actual))

    # -- completion -----------------------------------------------------------

    def finish(self, final: Dict[str, Any], partial: bool = False) -> None:
        """Stamp (record) or verify (replay) the final observables.

        ``partial`` marks a replay-to-failure run that deliberately
        stopped at the failing fault site: the end-state observables
        (final clock, fingerprint, pick totals) are not comparable, so
        only the outcome identity — ``failure_site`` — is verified on
        top of the draws/checkpoints already compared along the way.
        """
        final = dict(final)
        final["picks"] = self._picks
        final["sched_crc"] = self._crc
        final["draws"] = len(self.draws)
        self.final = final
        if self.mode != MODE_REPLAY:
            return
        baseline = self.recorded.final
        if partial:
            keys = ("failure_site",)
        else:
            keys = tuple(sorted(set(baseline) | set(final)))
            if self._draw_cursor < len(self.recorded.draws):
                self._diverge(
                    "rng",
                    "draw count",
                    len(self.recorded.draws),
                    self._draw_cursor,
                )
        for key in keys:
            expected = baseline.get(key)
            actual = final.get(key)
            if expected != actual:
                self._diverge("final", key, expected, actual)

    @property
    def equivalent(self) -> bool:
        """True when a finished replay matched the recording everywhere."""
        return self.mode == MODE_REPLAY and not self.divergences

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FORMAT,
            "scenario": self.scenario,
            "checkpoint_interval": self.checkpoint_interval,
            "draws": self.draws,
            "checkpoints": self.checkpoints,
            "final": self.final,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceLog":
        if payload.get("format") != FORMAT:
            raise ValueError(
                f"not a {FORMAT} trace (format={payload.get('format')!r})"
            )
        trace = cls(
            payload["scenario"],
            mode=MODE_RECORD,
            checkpoint_interval=payload.get(
                "checkpoint_interval", DEFAULT_CHECKPOINT_INTERVAL
            ),
        )
        trace.draws = [list(entry) for entry in payload.get("draws", [])]
        trace.checkpoints = [
            list(entry) for entry in payload.get("checkpoints", [])
        ]
        trace.final = dict(payload.get("final", {}))
        return trace

    def save(self, path: str) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.path = str(path)
        return self.path

    @classmethod
    def load(cls, path: str) -> "TraceLog":
        with open(path, "r", encoding="utf-8") as handle:
            trace = cls.from_dict(json.load(handle))
        trace.path = str(path)
        return trace

    def reference(self) -> Dict[str, Any]:
        """The compact pointer a ``blackbox.json`` embeds.

        Carries the scenario spec inline (so a black box alone can
        re-execute its run even if the trace file is lost) plus the path
        the full trace — draws, checkpoints, finals — is saved to.
        """
        return {
            "format": FORMAT,
            "path": self.path,
            "scenario": dict(self.scenario),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceLog {self.mode} draws={len(self.draws)} "
            f"picks={self._picks} divergences={len(self.divergences)}>"
        )


# -- the module scope ----------------------------------------------------------
#
# Mirrors ``repro.obs``'s ACTIVE pattern: RNG streams consult the active
# trace at draw time, so recording works no matter where or when the
# stream object itself was created.

ACTIVE: Optional[TraceLog] = None


@contextmanager
def tracing(trace: Optional[TraceLog]) -> Iterator[Optional[TraceLog]]:
    """Activate ``trace`` for the duration of the block (None = no-op)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = trace
    try:
        yield trace
    finally:
        ACTIVE = previous
