"""One stampable simulated host: kernel + server tree + workload + collector.

A ``Node`` is the unit the fleet plane multiplexes: everything a live
update touches — the kernel (with its own virtual clock), the server
tree, the MCR session, the client latency log, and the observability
collector — is owned by the node instance.  Nothing node-scoped lives in
module globals, so any number of nodes coexist in one Python process and
an update on one leaves every other node's tree byte-identical (the
``TreeFingerprint`` regression in ``tests/test_fleet.py`` pins this).
It sits beside the catalog's ``World`` and ``boot``, which it wraps, and
below the checkpoint plane, which restores an image into a fresh one.

Construction is cheap (~2 ms for the ``simple`` server after module
import, well under the 50 ms budget), so a 16+-node fleet stamps out in
well under a second.  All node activity — serving request windows,
running updates — happens under ``obs.scoped(node.collector)``, which is
what keeps concurrent kernels from cross-publishing spans, counters, or
flight-recorder samples.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, sim_function
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.controller import UpdateResult
from repro.mcr.faults import TreeFingerprint
from repro.runtime.program import Program
from repro.servers.catalog import World, boot
from repro.workloads.scripted import Script, ScriptedClients, Step

# A client whose response stalls longer than this abandons the
# connection and retries over a fresh connect (real load balancers and
# AB behave this way); it is what lets request streams ride out a
# per-node blackout without losing requests.
DEFAULT_STALL_NS = 5_000_000


class Node:
    """Kernel + server tree + workload + collector, cheap to stamp out."""

    def __init__(
        self,
        node_id: int,
        world: World,
        collector: obs.Collector,
        stall_ns: int = DEFAULT_STALL_NS,
    ) -> None:
        self.node_id = node_id
        self.world = world
        self.server = world.spec.name
        self.kernel: Kernel = world.kernel
        self.port = world.spec.port
        # What is running *now*: re-bound on every committed update
        # (``world`` keeps what was booted, and the program factory).
        self.program = world.program
        self.session = world.session
        self.collector = collector
        self.stall_ns = stall_ns
        self.ctl = McrCtl(self.kernel, self.session)
        self.version = int(self.program.version)
        # The request stream: one connection per request, timed from its
        # connect, retried over a fresh one past ``stall_ns``.
        self.requests = ScriptedClients(
            self.port, world.spec.request, frame="_oneshot_request",
            name=lambda index: f"fleet-client-{node_id}-{index + 1}",
            stall_ns=stall_ns, timed_from_connect=True,
        )
        # Client-perceived bookkeeping, fleet-visible.
        self.latency = self.requests.latency
        self._clients: List[Process] = []
        self.updates: List[UpdateResult] = []
        self.torn_down = False

    # -- construction ---------------------------------------------------------

    @classmethod
    def boot(
        cls,
        server: str,
        node_id: int = 0,
        version: int = 1,
        config: Optional[MCRConfig] = None,
        max_steps: int = 400_000,
    ) -> "Node":
        """Stamp out one node running ``server`` at ``version``.

        The whole boot — world setup, program load, startup — runs under
        the node's own fresh collector, so even startup spans and
        counters land in node-local state.
        """
        kernel = Kernel()
        collector = obs.Collector(kernel.clock)
        with obs.scoped(collector):
            world = boot(
                server, version, kernel=kernel, config=config,
                max_steps=max_steps,
            )
        return cls(node_id, world, collector)

    # -- scheduling -----------------------------------------------------------

    def scope(self):
        """The obs activation every slice of node activity runs under."""
        return obs.scoped(self.collector)

    @property
    def now_ns(self) -> int:
        return self.kernel.clock.now_ns

    def run_for(self, duration_ns: int, max_steps: Optional[int] = None) -> str:
        """Advance this node by exactly ``duration_ns`` of virtual time."""
        with self.scope():
            return self.kernel.run_for(duration_ns, max_steps=max_steps)

    def advance_to(self, deadline_ns: int, max_steps: Optional[int] = None) -> None:
        """Run until the node's clock reaches the fleet-wide deadline."""
        delta = deadline_ns - self.now_ns
        if delta > 0:
            self.run_for(delta, max_steps=max_steps)

    def settle(self, duration_ns: int, max_steps: int = 200_000) -> None:
        """Run ~``duration_ns`` of cleanup without a far-future clock jump.

        ``run_for`` can overshoot its deadline when the only remaining
        event is a periodic timer tens of ms away — the scheduler jumps
        the clock straight to it.  A sleeper process pins the deadline
        horizon to ``duration_ns``, so post-drain housekeeping (EOF
        processing, served-connection fd release) runs while the clock
        moves only that far.  Checkpoint capture uses this: an image cut
        before the fd release holds connection fds a fresh boot cannot
        reproduce, which restore validation rejects.
        """
        with self.scope():
            sleeper = self.kernel.spawn_process(
                _settle_sleeper,
                args=(duration_ns,),
                name=f"settle-{self.node_id}",
            )
            self.kernel.run(until=lambda: sleeper.exited, max_steps=max_steps)

    # -- the request stream ---------------------------------------------------

    @property
    def requests_sent(self) -> int:
        return self.requests.sent

    @property
    def completed(self) -> int:
        return self.requests.completed

    @property
    def lost(self) -> int:
        """Requests whose retry budget ran out: ``completed + lost ==
        requests_sent`` once every issued request has finished."""
        return self.requests.errors

    def serve(self, requests: int) -> None:
        """Queue ``requests`` one-shot clients into this node's kernel.

        The clients run when the node next advances; each records its
        virtual-time latency into ``self.latency`` on completion.  A
        request is *lost* only when its retry budget is exhausted — a
        stall during a live update reconnects and retries instead, so a
        healthy update loses nothing.
        """
        self._clients.extend(self.requests.spawn(self.kernel, requests))

    def pending(self) -> int:
        """Queued/in-flight requests not yet completed or lost."""
        self._clients = [c for c in self._clients if not c.exited]
        return len(self._clients)

    def drain(self, max_steps: int = 2_000_000) -> None:
        """Run until every issued request has completed or been lost."""
        with self.scope():
            self.kernel.run(
                until=lambda: all(c.exited for c in self._clients),
                max_steps=max_steps,
            )
        self._clients = [c for c in self._clients if not c.exited]

    # -- updates --------------------------------------------------------------

    def update(
        self,
        program: Optional[Program] = None,
        to_version: Optional[int] = None,
        config: Optional[MCRConfig] = None,
    ) -> UpdateResult:
        """Run one live update of this node (mid-flight requests ride along).

        The controller records into this node's collector — never into
        whatever other node's scope happens to be ambient.
        """
        if program is None:
            program = self.world.make_program(to_version or self.version + 1)
        with self.scope():
            result = self.ctl.live_update(
                program, config=config, collector=self.collector
            )
        if result.committed:
            self.session = self.ctl.session
            self.program = program
            self.version = int(program.version)
        self.updates.append(result)
        return result

    # -- state inspection -----------------------------------------------------

    @property
    def root(self) -> Process:
        return self.session.root_process

    def fingerprint(self) -> TreeFingerprint:
        """Byte-level capture of this node's entire server tree."""
        return TreeFingerprint.capture(self.kernel, self.root)

    def served_version(self, max_steps: int = 200_000) -> Optional[int]:
        """Ask the *server* which version is live (protocol-level probe).

        Reads what the serving tree itself reports (the catalog row's
        ``version_probe``: ``version`` for the simple server, ``NSTATS``'s
        trailing ``vN`` for memcache; None where the row has none), so
        fleet end-state checks are grounded in observed behaviour, not
        orchestrator bookkeeping.
        """
        if self.world.spec.version_probe is None:
            return None
        line, marker = self.world.spec.version_probe
        probe = ScriptedClients(
            self.port, Script([Step(line)]), frame="version_client",
            name="version-probe".format, stamped=False,
        )
        with self.scope():
            probe.run(self.kernel, max_steps=max_steps)
        text = (probe.last_reply or b"").decode(errors="replace").strip()
        if marker in text:
            tail = text.rsplit(marker, 1)[1].split()[0]
            if tail.isdecimal():
                return int(tail)
        return None

    def teardown(self) -> None:
        """Kill the tree and release every port — node-local only."""
        if self.torn_down:
            return
        self.torn_down = True
        with self.scope():
            for process in self.kernel.live_processes():
                self.kernel.terminate_process(process)


@sim_function
def _settle_sleeper(sys, duration_ns: int):
    yield from sys.nanosleep(duration_ns)

