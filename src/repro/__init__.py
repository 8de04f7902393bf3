"""Mutable Checkpoint-Restart (MCR), reproduced on a simulated machine.

Public API surface (see README.md for the tour):

* ``repro.kernel``   — the simulated machine (``Kernel``, ``sim_function``).
* ``repro.runtime``  — programs, build configurations, the loader, and the
  MCR dynamic runtime (``MCRSession``).
* ``repro.mcr``      — the live-update machinery (``McrCtl``,
  ``LiveUpdateController``, annotations, diagnostics).
* ``repro.servers``  — the simulated evaluation subjects.
* ``repro.workloads``— client drivers and profiling workloads.
* ``repro.bench``    — one harness per paper table/figure.

Quick start::

    from repro import boot, live_update

    world = boot("nginx")                       # kernel + v1 + MCR session
    result = live_update(world, version=2)      # commit or atomic rollback
"""

from typing import Optional

__version__ = "1.0.0"

__all__ = ["boot", "live_update", "__version__"]


def boot(server: str = "simple", version: int = 1, **options):
    """Boot one of the bundled servers; returns the catalog's ``World``.

    ``repro.servers.catalog.boot`` (``options``: ``build``, ``kernel``,
    ``make_program``, ``config``, ``max_steps``), imported on first use so
    that ``import repro`` stays light.
    """
    from repro.servers.catalog import boot as boot_world

    return boot_world(server, version, **options)


def live_update(world, version: int = 2, program: Optional[object] = None):
    """Live-update a booted world to ``version`` (or an explicit program).

    Returns the ``UpdateResult``; on commit, ``world.session`` is stale —
    use ``result.new_session`` (or keep an ``McrCtl``, which re-binds).
    """
    from repro.mcr.ctl import McrCtl

    ctl = McrCtl(world.kernel, world.session)
    return ctl.live_update(program or world.make_program(version))
