"""Fault injection and rollback verification for the update transaction.

MCR's headline safety property (paper §3, §6.3) is that a failed live
update is *never* fatal: a conflict, crash, or timeout during any phase
aborts the update and the old version keeps serving, byte-identical to
before.  This module provides the two halves of *proving* that:

* ``FaultPlan`` — the injection plane.  A plan is registered on
  ``MCRConfig`` and can arm any of the named ``SITES`` threaded through
  the pipeline (quiescence, replay, transfer, fd handoff, commit, even
  the rollback path itself).  Triggers are deterministic (fire on the
  nth hit of a site) or seeded-probabilistic; every firing emits a
  ``fault.injected`` event through ``repro.obs``.  With no plan armed,
  every injection point is a single attribute read — the empty-plan run
  is byte-identical to a build without this module.

* ``TreeFingerprint`` — the rollback verifier.  A cheap snapshot of a
  quiesced process tree: per-mapping CRCs taken over the zero-copy
  ``AddressSpace.view`` windows of the fast-scan engine, fd-table and
  socket/listener state (including refcounts, so a leaked or dropped
  reference is caught), and allocator bin counts.  The controller
  captures one at the checkpoint and asserts it unchanged after every
  rolled-back update — the "old version resumes from the checkpoint,
  invisibly to clients" guarantee, checked byte for byte.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.replay.rng import RngStream, derive_seed
from repro.errors import (
    AllocatorError,
    ConflictError,
    ImageError,
    MCRError,
    MemoryFault,
    PromotionError,
    QuiescenceTimeout,
    SimError,
)

# -- the fault-site taxonomy ---------------------------------------------------
#
# Each site names one failure mode of the update transaction, in pipeline
# order.  ``bench faultmatrix`` iterates this registry; docs/robustness.md
# documents how to add a new one (add it here, call ``fire`` at the site,
# cover it in the matrix).

UPDATE_SITES: Dict[str, str] = {
    "quiescence.wait": "checkpoint barrier never converges",
    "offline.analysis": "conservative tracing of the quiesced old tree fails",
    "restart.spawn": "the new-version bootstrap cannot be started",
    "restart.fd_handoff": "global-inheritance descriptor handoff dies mid-stream",
    "reinit.replay": "startup replay flags a conflict",
    "control.migration": "new-version threads never park at the barrier",
    "restore.handlers": "a post_startup reinit handler crashes",
    "restore.fds": "post-startup descriptor restore fails",
    "transfer.memory": "mutable tracing takes a memory fault mid-transfer",
    "transfer.allocator": "the new heap rejects a transfer allocation",
    "commit.prepare": "commit preparation fails (before the point of no return)",
    "commit.critical": "crash inside commit, after the point of no return",
    "rollback": "the rollback path itself faults (double fault)",
}

# Failure modes of the durable-checkpoint / warm-standby plane
# (``repro.checkpoint`` + the fleet failover driver).  These never fire
# during a live update; ``bench faultmatrix`` exercises them through
# failover drills instead of update cells.
CHECKPOINT_SITES: Dict[str, str] = {
    "checkpoint.capture": "quiesce-and-serialize of the tree fails mid-checkpoint",
    "checkpoint.write": "the durable image write dies mid-file (torn image)",
    "checkpoint.delta": "incremental dirty-page capture fails",
    "stream.send": "the delta stream to the standby dies mid-send",
    "stream.apply": "the standby rejects/corrupts an applied delta",
    "restore.image": "rehydrating an image into a fresh kernel fails",
    "standby.promote": "standby promotion fails its integrity verification",
}

# Failure modes of the planned-migration plane (``repro.fleet.migration``):
# pre-copy rounds while the primary serves, the quiesced stop-and-copy,
# and the load-balancer cutover.  Like the checkpoint sites these never
# fire during a live update; ``bench faultmatrix`` and ``bench migrate``
# exercise them through migration drills.
MIGRATION_SITES: Dict[str, str] = {
    "migrate.precopy": "a pre-copy delta round dies while the primary serves",
    "migrate.stopcopy": "the final quiesced stop-and-copy fails mid-stream",
    "migrate.cutover": "the load-balancer cutover / target promotion fails",
}

SITES: Dict[str, str] = {**UPDATE_SITES, **CHECKPOINT_SITES, **MIGRATION_SITES}

# Default error each site raises when the arm does not name one.
DEFAULT_ERRORS: Dict[str, Callable[[], BaseException]] = {
    "quiescence.wait": lambda: QuiescenceTimeout(
        "injected: quiescence never reached"
    ),
    "offline.analysis": lambda: SimError("injected: offline analysis crashed"),
    "restart.spawn": lambda: SimError("injected: restart environment broken"),
    "restart.fd_handoff": lambda: SimError(
        "injected: inheritance socket died mid-handoff"
    ),
    "reinit.replay": lambda: ConflictError(
        "reinit", "injected-operation", "injected replay conflict"
    ),
    "control.migration": lambda: MCRError(
        "injected: control migration wedged"
    ),
    "restore.handlers": lambda: SimError(
        "injected: post_startup handler crashed"
    ),
    "restore.fds": lambda: SimError("injected: fd restore channel broken"),
    "transfer.memory": lambda: MemoryFault(
        0xDEAD0000, "injected transfer fault"
    ),
    "transfer.allocator": lambda: AllocatorError(
        "injected: transfer allocation refused"
    ),
    "commit.prepare": lambda: MCRError("injected: commit preparation failed"),
    "commit.critical": lambda: MCRError(
        "injected: crash inside commit critical section"
    ),
    "rollback": lambda: MCRError("injected: rollback step crashed"),
    "checkpoint.capture": lambda: SimError(
        "injected: checkpoint capture crashed mid-serialize"
    ),
    "checkpoint.write": lambda: SimError(
        "injected: image write died mid-file"
    ),
    "checkpoint.delta": lambda: SimError(
        "injected: dirty-page delta capture crashed"
    ),
    "stream.send": lambda: SimError(
        "injected: delta stream channel died mid-send"
    ),
    "stream.apply": lambda: ImageError(
        "delta", "injected: standby rejected applied delta"
    ),
    "restore.image": lambda: ImageError(
        "restore", "injected: image rehydration crashed"
    ),
    "standby.promote": lambda: PromotionError(
        "injected: standby failed promotion verification"
    ),
    "migrate.precopy": lambda: SimError(
        "injected: pre-copy delta round crashed"
    ),
    "migrate.stopcopy": lambda: SimError(
        "injected: stop-and-copy died mid-stream"
    ),
    "migrate.cutover": lambda: PromotionError(
        "injected: cutover to the migration target failed"
    ),
}


class FaultArm:
    """One armed injection: where, what to raise, and when to trigger."""

    def __init__(
        self,
        site: str,
        error: Optional[Any] = None,
        nth: int = 1,
        times: int = 1,
        probability: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r}; choose from {sorted(SITES)}"
            )
        self.site = site
        self.error = error
        # Deterministic trigger: fire on hits [nth, nth + times).
        self.nth = nth
        self.times = times
        # Probabilistic trigger: each hit fires with probability p, drawn
        # from a per-arm seeded ``repro.replay`` stream — reproducible
        # across runs, attributable by name, and recorded draw-by-draw
        # whenever a TraceLog is active.  An explicit seed reproduces the
        # exact ``random.Random(seed)`` sequence; with no seed the stream
        # derives one from the site name instead of ambient entropy.
        self.probability = probability
        self.seed = seed
        if probability is not None:
            stream_name = f"faults.{site}"
            self._rng: Optional[RngStream] = RngStream(
                stream_name,
                derive_seed(0, stream_name) if seed is None else seed,
            )
        else:
            self._rng = None
        self.hits = 0

    def should_fire(self) -> bool:
        self.hits += 1
        if self.probability is not None:
            return self._rng.random() < self.probability
        return self.nth <= self.hits < self.nth + self.times

    def make_error(self) -> BaseException:
        error = self.error
        if error is None:
            error = DEFAULT_ERRORS[self.site]
        if isinstance(error, BaseException):
            return error
        return error()

    def to_spec(self) -> Dict[str, Any]:
        """JSON-serializable trigger description (defaults-only errors).

        Custom error *objects* are not captured — a re-executed arm
        raises the site's default error instead.  Every scenario the
        record/replay and fuzzing planes generate uses default errors,
        so round-tripping through a spec is lossless there.
        """
        spec: Dict[str, Any] = {"site": self.site}
        if self.probability is not None:
            spec["probability"] = self.probability
            if self.seed is not None:
                spec["seed"] = self.seed
        else:
            spec["nth"] = self.nth
            spec["times"] = self.times
        return spec


class FaultPlan:
    """A set of armed fault injections, registered on ``MCRConfig``.

    Builder-style: ``FaultPlan().at("transfer.memory").at("rollback")``
    arms a double fault.  ``fire(site)`` is called by the pipeline at
    each injection point and raises the armed error when a trigger
    matches; unarmed sites cost one dict lookup.
    """

    def __init__(self) -> None:
        self._arms: Dict[str, List[FaultArm]] = {}
        self.injected: List[Tuple[str, int]] = []  # (site, hit number)
        self.last_fired: Optional[str] = None

    # -- arming ---------------------------------------------------------------

    def at(
        self,
        site: str,
        error: Optional[Any] = None,
        nth: int = 1,
        times: int = 1,
    ) -> "FaultPlan":
        """Arm ``site`` to fire deterministically on hits nth..nth+times-1."""
        arm = FaultArm(site, error=error, nth=nth, times=times)
        self._arms.setdefault(site, []).append(arm)
        return self

    def with_probability(
        self,
        site: str,
        p: float,
        error: Optional[Any] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Arm ``site`` to fire on each hit with probability ``p`` (seeded)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        arm = FaultArm(site, error=error, probability=p, seed=seed)
        self._arms.setdefault(site, []).append(arm)
        return self

    # -- firing ---------------------------------------------------------------

    def fire(self, site: str) -> None:
        """Raise the armed error if a trigger for ``site`` matches."""
        arms = self._arms.get(site)
        if not arms:
            return
        for arm in arms:
            if arm.should_fire():
                self.injected.append((site, arm.hits))
                self.last_fired = site
                error = arm.make_error()
                # Tag the exception so the controller can report the
                # exact failure site without guessing from span state.
                try:
                    error.fault_site = site
                except AttributeError:  # pragma: no cover - exotic errors
                    pass
                obs.incr("faults.injected")
                obs.emit(
                    "fault.injected",
                    severity="warn",
                    site=site,
                    hit=arm.hits,
                    error=type(error).__name__,
                )
                raise error

    # -- bookkeeping ----------------------------------------------------------

    def armed_sites(self) -> List[str]:
        return sorted(self._arms)

    # -- spec round-trip (record/replay + fuzzing) -----------------------------

    def to_spec(self) -> List[Dict[str, Any]]:
        """JSON-serializable arm list, re-creatable via ``from_spec``."""
        return [
            arm.to_spec()
            for site in sorted(self._arms)
            for arm in self._arms[site]
        ]

    @classmethod
    def from_spec(cls, arms: List[Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from ``to_spec`` output (default errors only)."""
        plan = cls()
        for spec in arms:
            site = spec["site"]
            if "probability" in spec:
                plan.with_probability(
                    site, spec["probability"], seed=spec.get("seed", 0)
                )
            else:
                plan.at(
                    site,
                    nth=spec.get("nth", 1),
                    times=spec.get("times", 1),
                )
        return plan

    def __bool__(self) -> bool:
        return bool(self._arms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan armed={self.armed_sites()}>"


def fire(config: Any, site: str) -> None:
    """Fire ``site`` against the plan on ``config`` (no-op when unarmed).

    The injection points call this helper so that a config without a
    plan — the production default — costs one attribute read.
    """
    plan = config.faults if config is not None else None
    if plan is not None:
        plan.fire(site)


# -- the rollback verifier ------------------------------------------------------


class TreeFingerprint:
    """A cheap, exact snapshot of one process tree's externally visible state.

    Three surfaces per process, plus the world's listener table:

    * memory — one CRC32 per mapping (``Mapping.crc32``: every mapped
      byte counts, only resident pages are read), so a single flipped
      byte anywhere in the tree's image changes the fingerprint;
    * descriptors — ``(fd, kind, refcount, closed)`` per fd-table entry:
      catches leaked references, dropped descriptors, and sockets closed
      under the old version's feet;
    * allocator — live chunk count/bytes, free-list bin total, and
      reserved-range count: catches stray allocations or frees.
    """

    def __init__(
        self,
        processes: Dict[Tuple[int, str], Tuple],
        listeners: Tuple,
    ) -> None:
        self.processes = processes
        self.listeners = listeners

    @classmethod
    def capture(
        cls,
        kernel: Any,
        root: Any,
        processes_subset: Optional[List[Any]] = None,
        include_refcounts: bool = True,
    ) -> "TreeFingerprint":
        """Snapshot ``root``'s tree, or an explicit subset of processes.

        ``processes_subset`` supports rolling updates, whose rollback
        verifier checkpoints one quiesced worker batch at a time.
        ``include_refcounts=False`` drops the per-fd refcount component:
        batches captured mid-pipeline see shared kernel objects whose
        refcounts are legitimately elevated by the live new tree's
        inherited references (released again on rollback), so comparing
        them would flag phantom divergence.  Memory CRCs, fd presence,
        allocator and listener state are always compared.
        """
        processes: Dict[Tuple[int, str], Tuple] = {}
        subset = processes_subset if processes_subset is not None else root.tree()
        for process in subset:
            mem = tuple(
                (m.name, m.base, m.size, m.crc32())
                for m in sorted(process.space.mappings(), key=lambda m: m.base)
            )
            fds = tuple(
                (
                    fd,
                    getattr(obj, "kind", "?"),
                    getattr(obj, "refcount", None) if include_refcounts else None,
                    bool(getattr(obj, "closed", False)),
                )
                for fd, obj in process.fdtable.items()
            )
            heap = process.heap
            allocator = (
                heap.live_chunk_count(),
                heap.live_bytes(),
                heap._free.total_free(),
                len(heap.reserved_ranges()),
            )
            processes[(process.pid, process.name)] = (mem, fds, allocator)
        listeners = tuple(
            sorted(
                (port, listener.sock_id, listener.closed)
                for port, listener in kernel.net._listeners.items()
            )
        )
        return cls(processes, listeners)

    def diff(self, other: "TreeFingerprint") -> List[str]:
        """Human-readable mismatches between two fingerprints."""
        problems: List[str] = []
        for key in self.processes.keys() - other.processes.keys():
            problems.append(f"process {key} disappeared")
        for key in other.processes.keys() - self.processes.keys():
            problems.append(f"process {key} appeared")
        for key in self.processes.keys() & other.processes.keys():
            before_mem, before_fds, before_alloc = self.processes[key]
            after_mem, after_fds, after_alloc = other.processes[key]
            if before_mem != after_mem:
                changed = [
                    b[0]
                    for b, a in zip(before_mem, after_mem)
                    if b != a
                ] or ["<mapping list changed>"]
                problems.append(
                    f"process {key}: memory changed in {', '.join(changed)}"
                )
            if before_fds != after_fds:
                problems.append(f"process {key}: fd table changed")
            if before_alloc != after_alloc:
                problems.append(
                    f"process {key}: allocator state changed "
                    f"({before_alloc} -> {after_alloc})"
                )
        if self.listeners != other.listeners:
            problems.append(
                f"listener table changed ({self.listeners} -> {other.listeners})"
            )
        return problems

    def matches(self, other: "TreeFingerprint") -> bool:
        return not self.diff(other)

    def to_dict(self) -> Dict[str, Any]:
        """Exact JSON serialization (lossless, unlike ``summary()``).

        The checkpoint image embeds this as its integrity header; the
        restorer round-trips it through ``from_dict`` and compares with
        ``matches()`` against a live capture, so the encoding must
        preserve every tuple component bit for bit.
        """
        processes = {}
        for (pid, name), (mem, fds, allocator) in sorted(self.processes.items()):
            processes[f"{pid}|{name}"] = {
                "mem": [list(entry) for entry in mem],
                "fds": [list(entry) for entry in fds],
                "allocator": list(allocator),
            }
        return {
            "processes": processes,
            "listeners": [list(entry) for entry in self.listeners],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TreeFingerprint":
        """Rebuild the exact tuple structures ``capture()`` produces."""
        processes: Dict[Tuple[int, str], Tuple] = {}
        for key, record in payload["processes"].items():
            pid_text, _, name = key.partition("|")
            mem = tuple(
                (entry[0], entry[1], entry[2], entry[3])
                for entry in record["mem"]
            )
            fds = tuple(
                (entry[0], entry[1], entry[2], bool(entry[3]))
                for entry in record["fds"]
            )
            allocator = tuple(record["allocator"])
            processes[(int(pid_text), name)] = (mem, fds, allocator)
        listeners = tuple(
            sorted((entry[0], entry[1], bool(entry[2]))
                   for entry in payload["listeners"])
        )
        return cls(processes, listeners)

    def summary(self) -> Dict[str, Any]:
        """A compact, JSON-safe digest for the black-box artifact."""
        processes = {}
        for (pid, name), (mem, fds, allocator) in sorted(self.processes.items()):
            processes[f"{pid}:{name}"] = {
                "mappings": len(mem),
                "mapped_bytes": sum(m[2] for m in mem),
                "fds": len(fds),
                "allocator": list(allocator),
            }
        return {
            "processes": processes,
            "listeners": [list(entry) for entry in self.listeners],
        }
