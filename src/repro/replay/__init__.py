"""``repro.replay`` — deterministic record/replay of the simulated kernel.

The cooperative scheduler and the virtual clock make the whole simulation
deterministic *given its inputs*; the only nondeterminism sources are the
seeded RNG streams (fault-plan probabilistic draws, workload jitter) and,
across code changes, the scheduler's pick order itself.  This package
turns that into an rr-style debugging story ("Engineering Record And
Replay For Deployability", "Lightweight User-Space Record And Replay"):

* ``rng``      — the ``RngRegistry``/``RngStream`` choke point every
  pseudo-random draw in the tree routes through.  Streams are named and
  seeded, so each draw is attributable, and while a ``TraceLog`` is
  active every draw is recorded (record mode) or verified (replay mode).
* ``trace``    — the ``TraceLog``: scenario header, the draw log, rolling
  scheduler pick-order checkpoints (steps, virtual clock, CRC), and the
  final observables (virtual clock, span-tree digest, tree fingerprint
  digest, update outcome).

Both are leaves below ``repro.mcr``.  The re-executable unit that uses
them, ``repro.scenario`` (spec → ``run_scenario``), and the re-executor,
``repro.replayer``, boot servers and drive MCR, so they sit above every
plane.
"""

from __future__ import annotations

from repro.replay.rng import RngRegistry, RngStream
from repro.replay.trace import Divergence, TraceLog, tracing

__all__ = [
    "Divergence",
    "RngRegistry",
    "RngStream",
    "TraceLog",
    "tracing",
]
