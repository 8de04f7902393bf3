"""Named, seeded RNG streams — the single choke point for randomness.

Every pseudo-random draw in the tree routes through an ``RngStream``: a
thin wrapper over ``random.Random`` that (a) names the stream so each
draw is attributable ("faults.transfer.memory", "workload.ab.jitter",
"fuzz.master"), and (b) notes the draw — ``(stream, index, value)`` — to
the active ``TraceLog`` at draw time, so a recording captures every
nondeterministic input without the call sites knowing a trace exists.

Streams with an **explicit seed** produce exactly the sequence of
``random.Random(seed)`` — existing deterministic expectations (e.g. the
fault-plan probability tests) keep their values.  Streams created
through an ``RngRegistry`` without an explicit seed derive one from the
registry's master seed and the stream name (CRC-based), so one master
seed fans out into stable, independent, per-purpose streams.

``choice`` is implemented via ``randrange`` so the logged draw is the
chosen *index* (a JSON-exact int), never the element itself.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.replay import trace as _trace


class RngStream:
    """One named pseudo-random sequence, recorded draw by draw."""

    __slots__ = ("name", "seed", "index", "_rng")

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.index = 0          # draws taken so far
        self._rng = random.Random(seed)

    def _note(self, value: Any) -> Any:
        active = _trace.ACTIVE
        if active is not None:
            active.on_draw(self.name, self.index, value)
        self.index += 1
        return value

    # -- draw primitives ------------------------------------------------------

    def random(self) -> float:
        return self._note(self._rng.random())

    def randint(self, low: int, high: int) -> int:
        return self._note(self._rng.randint(low, high))

    def randrange(self, start: int, stop: Optional[int] = None) -> int:
        if stop is None:
            return self._note(self._rng.randrange(start))
        return self._note(self._rng.randrange(start, stop))

    def getrandbits(self, bits: int) -> int:
        return self._note(self._rng.getrandbits(bits))

    def choice(self, seq: Sequence[Any]) -> Any:
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStream {self.name!r} seed={self.seed} index={self.index}>"


def derive_seed(master: int, name: str) -> int:
    """Stable per-name seed derivation from a master seed."""
    return zlib.crc32(f"{master}:{name}".encode())


class RngRegistry:
    """A keyed family of ``RngStream``s fanned out from one master seed.

    ``stream(name)`` returns the same object for the same name for the
    registry's lifetime, so a stream's position advances monotonically
    no matter how many call sites share it.  An explicit ``seed``
    overrides derivation — the stream then matches ``random.Random(seed)``
    exactly (and re-requesting the name with a different explicit seed
    is an error: two sequences under one name would be unattributable).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str, seed: Optional[int] = None) -> RngStream:
        existing = self._streams.get(name)
        if existing is not None:
            if seed is not None and seed != existing.seed:
                raise ValueError(
                    f"stream {name!r} already exists with seed "
                    f"{existing.seed}, requested {seed}"
                )
            return existing
        created = RngStream(
            name, derive_seed(self.seed, name) if seed is None else seed
        )
        self._streams[name] = created
        return created

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.seed} streams={len(self._streams)}>"


# -- the module scope ----------------------------------------------------------
#
# Call sites that can't thread a registry through (FaultArm construction,
# workload jitter) ask the ambient one via ``stream()``.  With no registry
# active, each call site gets a private stream under a throwaway registry —
# identical behaviour to the old ad-hoc ``random.Random(seed)``, just
# recorded when a trace happens to be active.

ACTIVE: Optional[RngRegistry] = None


@contextmanager
def scoped(registry: Optional[RngRegistry]) -> Iterator[Optional[RngRegistry]]:
    """Activate ``registry`` as the ambient registry for the block."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = registry
    try:
        yield registry
    finally:
        ACTIVE = previous


def stream(name: str, seed: Optional[int] = None) -> RngStream:
    """A stream from the ambient registry (or a detached one if none)."""
    if ACTIVE is not None:
        return ACTIVE.stream(name, seed)
    return RngStream(name, derive_seed(0, name) if seed is None else seed)
