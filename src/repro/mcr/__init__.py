"""Mutable Checkpoint-Restart: the paper's contribution.

The three pillars, each a subpackage/module:

* ``quiescence`` — profiling (finding per-thread quiescent points) and
  detection (unblockification + barrier protocol) — paper §4.
* ``reinit``     — mutable reinitialization: startup-log record/replay,
  immutable state objects, global inheritance/separability, global
  reallocation — paper §5.
* ``tracing``    — mutable tracing: dirty-object detection, hybrid
  precise/conservative GC-style traversal, invariants, type
  transformation, and the state-transfer engine — paper §6.

``libmcr`` is the in-process half linked into every instrumented program
(unblockification, startup recording, replay routing); ``controller``
orchestrates a live update end to end (checkpoint → restart → remap,
with atomic rollback), and ``ctl`` is the ``mcr-ctl`` front end users
signal updates with.

The package itself imports only ``config``, so ``import repro.mcr``
stays light; import ``repro.mcr.controller`` / ``repro.mcr.ctl`` for the
rest.
"""

from repro.mcr.config import MCRConfig, TransferCostModel

__all__ = [
    "MCRConfig",
    "TransferCostModel",
]
