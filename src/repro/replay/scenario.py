"""The re-executable unit of record/replay: one server × update × workload.

A **scenario spec** is a small JSON-serializable dict that pins down one
complete run of the simulated world::

    {
        "kind": "update",
        "server": "httpd",            # any row of repro.servers.catalog
        "mode": "whole-tree",         # or "rolling"
        "seed": 0,                    # RngRegistry master seed
        "faults": [ ...FaultPlan.to_spec()... ],
        "workload": {"requests": 30, "concurrency": 2, "jitter_ns": 0},
        "holders": 2,                 # parked protocol connections
    }

``run_scenario(spec)`` boots the named server from scratch (fresh kernel,
fresh virtual clock), drives the pre-update workload, parks the held
connections, arms the fault plan, runs the live update, and probes
whichever version survived — exactly the shape of one ``bench
faultmatrix`` cell, which now runs through this function.  Because the
kernel is cooperative and the clock virtual, the *only* nondeterminism
is the seeded RNG draws, so a spec re-executes bit-identically: same
virtual timestamps, same span tree, same fingerprints, same outcome.

The cell's rules live here once: ``arm`` turns a cell label into its
fault plan, ``UpdateOutcome`` is how the update ended, and
``ScenarioOutcome.violations`` judges the update contract — the fault
matrix and the fuzzer both ask it.

Pass a ``TraceLog`` to record the run (or to verify it, in replay mode);
the trace is bound to the kernel before boot, so even startup scheduling
is covered.  ``until_failure=True`` stops right after the update attempt
— no probe, no holder teardown — leaving the world parked at the state
the failure left behind; the replayer uses this for ``--to-failure``.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, NamedTuple, Optional

from repro import obs
from repro.kernel.kernel import Kernel
from repro.mcr.config import MCRConfig
from repro.mcr.controller import QUIESCENCE_MAX_RETRIES, UpdateResult
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan, TreeFingerprint
from repro.obs.export import to_json
from repro.replay import rng as replay_rng
from repro.replay import trace as replay_trace
from repro.replay.trace import TraceLog
from repro.servers.catalog import World, boot, lookup

DEFAULT_HELD_CONNECTIONS = 2


def default_spec(
    server: str,
    mode: str = "whole-tree",
    seed: int = 0,
    faults: Optional[list] = None,
    workload: Optional[Dict[str, Any]] = None,
    holders: Optional[int] = None,
) -> Dict[str, Any]:
    """A faultmatrix-cell-shaped spec for ``server`` (defaults filled in)."""
    default_held = DEFAULT_HELD_CONNECTIONS if lookup(server).holder_kind else 0
    return {
        "kind": "update",
        "server": server,
        "mode": mode,
        "seed": seed,
        "faults": list(faults or []),
        "workload": dict(workload or {}),
        "holders": default_held if holders is None else holders,
    }


def arm(label: Optional[str]) -> FaultPlan:
    """The plan a cell label arms: ``"a+b"`` is a double fault, None is clean.

    ``quiescence.wait`` outlasts the controller's bounded retries, or the
    update would simply commit on a later attempt; ``rollback`` is armed
    behind ``transfer.memory``, because no rollback runs without a primary
    fault to force it.
    """
    plan = FaultPlan()
    for name in label.split("+") if label else ():
        if name == "quiescence.wait":
            plan.at(name, times=QUIESCENCE_MAX_RETRIES + 1)
        elif name == "rollback":
            plan.at("transfer.memory").at(name)
        else:
            plan.at(name)
    return plan


class UpdateOutcome(NamedTuple):
    """How one update ended, read off its ``UpdateResult`` in one place.

    Cells, the trace's final digest and rollout rows report these fields
    under these names; the defaults are an update that returned nothing.
    """

    committed: bool = False
    rolled_back: bool = False
    failure_site: Optional[str] = None
    retries: int = 0
    rollback_verified: Optional[bool] = None
    rollback_failed: bool = False

    @classmethod
    def of(cls, result: Optional[UpdateResult]) -> "UpdateOutcome":
        if result is None:
            return cls()
        return cls(
            bool(result.committed),
            bool(result.rolled_back),
            result.failure_site,
            result.retries,
            result.rollback_verified,
            bool(result.rollback_failed),
        )


class ScenarioOutcome:
    """Everything one scenario run produced, for cells/fuzzing/replay."""

    __slots__ = (
        "spec",
        "kernel",
        "world",
        "collector",
        "plan",
        "result",
        "raised",
        "listener_present",
        "probe_completed",
        "probe_errors",
        "probe_error",
        "trace",
    )

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.kernel: Optional[Kernel] = None
        self.world: Optional[World] = None
        self.collector: Optional[obs.Collector] = None
        self.plan: Optional[FaultPlan] = None
        self.result = None
        self.raised: Optional[str] = None
        self.listener_present = False
        self.probe_completed = 0
        self.probe_errors = 0
        self.probe_error: Optional[str] = None
        self.trace: Optional[TraceLog] = None

    @property
    def update(self) -> UpdateOutcome:
        return UpdateOutcome.of(self.result)

    def violations(self) -> List[str]:
        """The update contract (§3, §6.3), judged once: every way this run
        broke it, empty when it held.

        The update returns instead of raising and ends exactly one of
        committed and rolled back; a rollback is fingerprint-verified (or
        loudly flagged as a failed rollback) and leaves a black box; and
        the surviving version owns its port and answers a probe cleanly.
        """
        problems: List[str] = []
        update = self.update
        if self.raised is not None:
            problems.append(f"live_update raised {self.raised}")
        elif update.committed == update.rolled_back:
            problems.append(
                f"outcome not exclusive: committed={update.committed} "
                f"rolled_back={update.rolled_back}"
            )
        if update.rolled_back:
            if update.rollback_verified is not True and not update.rollback_failed:
                problems.append(
                    f"rollback not fingerprint-verified: {update.rollback_verified}"
                )
            if self.result.blackbox is None:
                problems.append("rolled back without dumping a black box")
        if not self.listener_present:
            problems.append("no listener on the server port after the update")
        if self.probe_error is not None:
            problems.append(f"probe raised {self.probe_error}")
        elif self.probe_errors or not self.probe_completed:
            problems.append(
                f"probe failed: {self.probe_completed} completed, "
                f"{self.probe_errors} errors"
            )
        return problems


def _final_observables(
    outcome: ScenarioOutcome, until_failure: bool
) -> Dict[str, Any]:
    """The end-of-run digest the trace compares on replay.

    Everything here is derived from virtual-clock-stamped state, so two
    equivalent runs produce equal values: the final virtual clock, a CRC
    of the canonical span-tree JSON, a CRC of the surviving tree's exact
    fingerprint serialization, and the update outcome fields.
    """
    kernel = outcome.kernel
    result = outcome.result
    final: Dict[str, Any] = {
        "clock_ns": kernel.clock.now_ns,
        "steps": kernel.steps_executed,
        "raised": outcome.raised,
        **outcome.update._asdict(),
        "span_crc": zlib.crc32(
            to_json(
                [root.to_dict() for root in outcome.collector.spans.roots]
            ).encode()
        ),
    }
    if not until_failure:
        final["probe_completed"] = outcome.probe_completed
        final["probe_errors"] = outcome.probe_errors
        survivor = None
        if result is not None and result.committed:
            survivor = result.new_root
        elif outcome.world is not None:
            survivor = outcome.world.root
        fingerprint_crc = 0
        if survivor is not None:
            try:
                fingerprint_crc = zlib.crc32(
                    to_json(
                        TreeFingerprint.capture(kernel, survivor).to_dict()
                    ).encode()
                )
            except BaseException:  # a crashed tree has no fingerprint
                fingerprint_crc = -1
        final["fingerprint_crc"] = fingerprint_crc
    return final


def run_scenario(
    spec: Dict[str, Any],
    trace: Optional[TraceLog] = None,
    trace_path: Optional[str] = None,
    blackbox_path: Optional[str] = None,
    until_failure: bool = False,
    trace_save: str = "always",
) -> ScenarioOutcome:
    """Execute ``spec`` from a cold boot; record/verify through ``trace``.

    The run happens under a fresh ``RngRegistry`` seeded from the spec
    and (when given) the trace, activated for the whole lifetime — boot,
    workload, update, probe — so every draw and every scheduler pick is
    covered.  The update itself runs against a dedicated collector so the
    span tree is available afterwards for the trace digest and for
    ``--export``.  Never raises for fault-plan-induced failures (that is
    the property under test); infrastructure errors do propagate.
    """
    outcome = ScenarioOutcome(spec)
    outcome.trace = trace
    registry = replay_rng.RngRegistry(int(spec.get("seed", 0)))
    kernel = Kernel()
    outcome.kernel = kernel
    if trace is not None:
        if trace_path:
            trace.path = trace_path
        trace.bind_kernel(kernel)
    collector = obs.Collector(kernel.clock)
    outcome.collector = collector
    with replay_rng.scoped(registry), replay_trace.tracing(trace):
        outcome.world = world = boot(spec["server"], kernel=kernel)
        server = world.spec
        server.small_workload(spec.get("workload") or {}).run(kernel)
        holder = None
        held = spec.get("holders", 0)
        if server.holder_kind is not None and held:
            holder = world.hold(held)
            holder.establish(kernel)
        plan = FaultPlan.from_spec(spec.get("faults") or [])
        outcome.plan = plan
        config = MCRConfig(
            faults=plan if plan else None,
            blackbox_path=blackbox_path,
            update_mode=spec.get("mode", "whole-tree"),
        )
        ctl = McrCtl(kernel, world.session)
        try:
            outcome.result = ctl.live_update(
                world.make_program(2), config=config, collector=collector
            )
        except BaseException as error:  # the property under test: never
            outcome.raised = repr(error)
        outcome.listener_present = kernel.net.listener_for(world.port) is not None
        if not until_failure:
            probe = server.probe()
            try:
                probe.run(kernel)
            except BaseException as error:  # pragma: no cover - diagnostics
                outcome.probe_error = repr(error)
            outcome.probe_completed = probe.completed
            outcome.probe_errors = probe.errors
            if holder is not None:
                holder.finish(kernel)
        if trace is not None:
            trace.finish(
                _final_observables(outcome, until_failure), partial=until_failure
            )
            # ``trace_save="on-blackbox"`` keeps a shared trace path and
            # the shared blackbox path a consistent pair: both files are
            # only (over)written by cells whose update dumped a post-
            # mortem, so the surviving blackbox's embedded reference
            # always points at *its own* recording.
            save = bool(trace.path) and (
                trace_save == "always"
                or (
                    outcome.result is not None
                    and outcome.result.blackbox is not None
                )
            )
            if save:
                trace.save(trace.path)
    return outcome
