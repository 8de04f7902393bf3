"""Tests for the fleet plane (``repro.fleet``).

Covers the node factory (cheap stamped-out kernels, strict cross-node
isolation), the deterministic load balancer, lockstep fleet time, and
the SLO-gated canary → wave orchestrator under clean and faulted
rollouts.  The headline invariants: two nodes in one process share no
clock/collector/counter/allocator state (an update on A leaves B's tree
byte-identical), a clean fleet rollout loses zero requests, and a
faulted rollout ends uniform — all-old or all-new, never mixed.
"""

from types import SimpleNamespace

import pytest

from repro import obs
from repro.fleet import (
    Fleet, LoadBalancer, Node, NodeOutcome, Orchestrator, RolloutReport, wave_plan,
)
from repro.mcr.faults import FaultPlan
from repro.servers.catalog import CATALOG


class TestWavePlan:
    def test_serial(self):
        assert wave_plan(4, canary=1, growth=1) == [1, 1, 1, 1]

    def test_geometric(self):
        assert wave_plan(16, canary=1, growth=4) == [1, 4, 11]
        assert wave_plan(16, canary=1, growth=2) == [1, 2, 4, 8, 1]

    def test_covers_total(self):
        for total in (1, 2, 5, 16, 33):
            for growth in (1, 2, 4, 16):
                assert sum(wave_plan(total, growth=growth)) == total


class TestLoadBalancer:
    def test_split_preserves_total(self):
        lb = LoadBalancer([0, 1, 2])
        counts = lb.route(10)
        assert sum(counts.values()) == 10

    def test_even_split_all_nodes(self):
        lb = LoadBalancer([0, 1, 2, 3])
        assert lb.route(8) == {0: 2, 1: 2, 2: 2, 3: 2}

    def test_remainder_rotates_across_windows(self):
        lb = LoadBalancer([0, 1, 2])
        first = lb.route(4)   # remainder lands starting at offset 0
        second = lb.route(4)  # ... then the offset has advanced
        assert first != second
        assert sum(first.values()) == sum(second.values()) == 4

    def test_updating_node_excluded(self):
        lb = LoadBalancer([0, 1, 2])
        lb.mark_updating(1)
        counts = lb.route(6)
        assert 1 not in counts
        assert sum(counts.values()) == 6
        assert lb.requests_shifted == 6
        lb.mark_healthy(1)
        assert 1 in lb.route(6)

    def test_all_out_sheds(self):
        lb = LoadBalancer([0, 1])
        lb.mark_updating(0)
        lb.mark_updating(1)
        assert lb.route(5) == {}

    def test_deterministic(self):
        a, b = LoadBalancer([0, 1, 2]), LoadBalancer([0, 1, 2])
        for _ in range(5):
            assert a.route(7) == b.route(7)


@pytest.fixture(scope="module")
def pair():
    """Two booted simple-server nodes in one process (module-shared)."""
    fleet = Fleet.boot(2, server="simple")
    yield fleet
    fleet.teardown()


class TestNodeIsolation:
    def test_nodes_have_disjoint_kernels_and_collectors(self, pair):
        a, b = pair.nodes
        assert a.kernel is not b.kernel
        assert a.kernel.clock is not b.kernel.clock
        assert a.collector is not b.collector
        assert a.session is not b.session

    def test_no_ambient_collector_outside_scopes(self, pair):
        assert obs.ACTIVE is None

    def test_update_on_a_leaves_b_byte_identical(self):
        fleet = Fleet.boot(2, server="simple")
        try:
            a, b = fleet.nodes
            before_b = b.fingerprint()
            clock_b = b.now_ns
            counters_b = dict(b.collector.counters.snapshot())
            result = a.update(to_version=2)
            assert result.committed
            # B's clock did not move, B's counters did not change, and
            # B's entire tree (memory, fds, allocator) is byte-identical.
            assert b.now_ns == clock_b
            assert dict(b.collector.counters.snapshot()) == counters_b
            assert before_b.matches(b.fingerprint())
            assert b.served_version() == 1
            assert a.served_version() == 2
        finally:
            fleet.teardown()

    def test_update_records_into_own_collector_only(self):
        fleet = Fleet.boot(2, server="simple")
        try:
            a, b = fleet.nodes
            b_spans = len(b.collector.spans.roots)
            a.update(to_version=2)
            assert len(b.collector.spans.roots) == b_spans
            names = {
                span.name
                for root in a.collector.spans.roots
                for span in root.walk()
            }
            assert "update" in names
        finally:
            fleet.teardown()


def test_fleetroll_isolation_reads_the_served_version_not_a_name():
    """The isolation row's ``updated_changed`` asks the updated node which
    version it serves.  An update keeps the root's booted name and a
    fingerprint keys on ``(pid, name)``, so a fingerprint cannot tell an
    updated node from one never updated."""
    from repro.bench import fleetroll

    row = fleetroll._isolation_row()
    assert row["update_committed"]
    assert row["bystanders_identical"]
    assert row["updated_changed"]


class TestFleetServing:
    def test_clean_windows_lose_nothing(self, pair):
        before = pair.requests_sent
        pair.serve_window(8, 2_000_000)
        pair.drain()
        assert pair.requests_sent == before + 8
        assert pair.requests_lost == 0

    def test_sync_advances_all_to_max(self, pair):
        pair.nodes[0].run_for(1_000_000)
        pair.sync()
        assert pair.nodes[0].now_ns == pair.nodes[1].now_ns == pair.now_ns


class TestOrchestrator:
    def test_clean_rollout_zero_loss_and_uniform(self):
        fleet = Fleet.boot(4, server="simple")
        try:
            orch = Orchestrator(fleet, wave_growth=4, requests_per_window=8)
            orch.serve_windows(2)
            report = orch.rollout(to_version=2)
            assert report.outcome == "updated"
            assert report.uniform
            assert fleet.versions() == [2, 2, 2, 2]
            assert fleet.served_versions() == [2, 2, 2, 2]
            assert fleet.requests_lost == 0
            assert all(o.result.client.slo_ok for o in report.outcomes)
        finally:
            fleet.teardown()

    def test_canary_fault_reverts_whole_fleet(self):
        fleet = Fleet.boot(4, server="simple")
        try:
            orch = Orchestrator(fleet, requests_per_window=8)
            report = orch.rollout(
                to_version=2,
                fault_plans={0: FaultPlan().at("transfer.memory")},
            )
            assert report.outcome == "reverted"
            assert report.wave_sizes == [1]  # aborted at the canary gate
            assert set(fleet.versions()) == {1}
            canary = report.outcomes[0].result
            assert canary.rolled_back and canary.rollback_verified
        finally:
            fleet.teardown()

    def test_midwave_fault_revert_policy_ends_all_old(self):
        fleet = Fleet.boot(6, server="simple")
        try:
            orch = Orchestrator(
                fleet, on_fault="revert", requests_per_window=6
            )
            report = orch.rollout(
                to_version=2,
                fault_plans={2: FaultPlan().at("transfer.memory")},
            )
            assert report.outcome == "reverted"
            assert report.uniform
            assert set(fleet.versions()) == {1}
            assert set(fleet.served_versions()) == {1}
            assert report.reverted_nodes  # committed nodes walked back
            assert fleet.requests_lost == 0
        finally:
            fleet.teardown()

    def test_midwave_fault_converge_policy_ends_all_new(self):
        fleet = Fleet.boot(6, server="simple")
        try:
            orch = Orchestrator(
                fleet, on_fault="converge", requests_per_window=6
            )
            report = orch.rollout(
                to_version=2,
                fault_plans={2: FaultPlan().at("transfer.memory")},
            )
            assert report.outcome == "updated"
            assert report.uniform
            assert report.converge_retries >= 1
            assert set(fleet.versions()) == {2}
            assert set(fleet.served_versions()) == {2}
        finally:
            fleet.teardown()

    def test_a_wave_that_takes_every_node_out_sheds_its_window(self):
        # On a 1-node fleet the canary wave leaves no node in rotation, so
        # that wave's window is shed: counted as lost, never dropped silently.
        fleet = Fleet.boot(1, server="simple")
        try:
            orch = Orchestrator(fleet, canary=1, requests_per_window=4)
            orch.serve_windows(1)
            report = orch.rollout(2).to_dict()
            assert report["outcome"] == "updated"
            assert fleet.requests_shed == 4
            assert report["requests_lost"] == 4
            # Four windows of four were offered; each one is sent or shed.
            assert report["requests_sent"] + fleet.requests_shed == 16
        finally:
            fleet.teardown()

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            Orchestrator(Fleet([]), on_fault="shrug")

    def test_rollout_neither_probes_nor_judges(self, monkeypatch):
        # perfbench times ``rollout()`` itself: the probe and the judge run
        # only where a caller asks for them.
        def refuse(*_args):
            raise AssertionError("rollout() probed or judged")

        monkeypatch.setattr(Fleet, "served_versions", refuse)
        monkeypatch.setattr(RolloutReport, "violations", refuse)
        fleet = Fleet.boot(2, server="simple")
        try:
            report = Orchestrator(fleet, requests_per_window=4).rollout(2)
            assert report.served is None and report.uniform
        finally:
            fleet.teardown()


class _Fleet:
    """What ``RolloutReport`` reads of a fleet, with no kernels behind it."""

    now_ns = 0

    def __init__(self, versions, lost):
        self.nodes = [SimpleNamespace(node_id=i) for i in range(len(versions))]
        self._versions = versions
        self.requests_lost = lost

    def versions(self):
        return list(self._versions)


def _attempt(node_id, committed=True, verified=None, slo_ok=True):
    return NodeOutcome(node_id, 0, SimpleNamespace(
        committed=committed, rolled_back=not committed,
        rollback_verified=verified, client=SimpleNamespace(slo_ok=slo_ok),
    ))


def _rolled_back(node_id, verified=True):
    return _attempt(node_id, committed=False, verified=verified)


def _armed(fired=True):
    plan = FaultPlan().at("transfer.memory")
    if fired:
        plan.injected.append(("transfer.memory", 1))
    return plan


# Rollout kind -> the report fields of a rollout that kept its contract, on
# four nodes in waves of 1 and 3, probed.  The fault is armed on node 1, or
# on the canary (node 0), whose failure reverts under either policy.
ROLLOUTS = {
    "clean": lambda: dict(
        versions=[2] * 4, outcome="updated", served=[2] * 4,
        outcomes=[_attempt(n) for n in range(4)]),
    "revert": lambda: dict(
        versions=[1] * 4, outcome="reverted", served=[1] * 4, faults={1: _armed()},
        outcomes=[_attempt(0), _rolled_back(1)], reverted_nodes=[0]),
    "converge": lambda: dict(
        versions=[2] * 4, outcome="updated", served=[2] * 4, on_fault="converge",
        faults={1: _armed()}, converge_retries=1,
        outcomes=[_attempt(0), _rolled_back(1), _attempt(2), _attempt(3), _attempt(1)]),
    "canary-converge": lambda: dict(
        versions=[1] * 4, outcome="reverted", served=[1] * 4, on_fault="converge",
        faults={0: _armed()}, outcomes=[_rolled_back(0)]),
}

# Case -> (rollout kind, what breaks, the violations reported).
VIOLATIONS = {
    "clean": ("clean", {}, []),
    "revert-policy": ("revert", {}, []),
    "converge-policy": ("converge", {}, []),
    "canary-fault-reverts-under-converge": ("canary-converge", {}, []),
    "mixed-end-versions": (
        "clean", dict(versions=[2, 1, 2, 2], served=None),
        ["end versions [2, 1, 2, 2], expected 2"]),
    "failed-revert": (
        "revert", dict(revert_failures=[0]), ["revert failed on nodes [0]"]),
    "served-another-version": (
        "clean", dict(served=[2, 1, 2, 2]),
        ["served versions [2, 1, 2, 2], expected 2"]),
    "served-no-version": (
        "clean", dict(served=[2, None, 2, 2]),
        ["served versions [2, None, 2, 2], expected 2"]),
    "clean-outcome-reverted": (
        "clean", dict(outcome="reverted", versions=[1] * 4, served=[1] * 4),
        ["outcome reverted, promised updated"]),
    "revert-policy-updated": (
        "revert", dict(outcome="updated", versions=[2] * 4, served=[2] * 4),
        ["outcome updated, promised reverted"]),
    "armed-never-fired": (
        "converge", dict(faults={1: _armed(fired=False)}),
        ["node 1: armed and never fired"]),
    "rollback-not-verified": (
        "revert", dict(outcomes=[_attempt(0), _rolled_back(1, verified=False)]),
        ["node 1: rollback not verified"]),
    "request-lost": ("clean", dict(lost=3), ["requests lost: 3"]),
    "blackout-over-budget": (
        "clean", dict(outcomes=[_attempt(0), _attempt(1), _attempt(2, slo_ok=False),
                                _attempt(3)]),
        ["node 2: blackout over budget"]),
}


@pytest.mark.parametrize("case", sorted(VIOLATIONS))
def test_violations_is_the_rollout_contract(case):
    kind, broken, expected = VIOLATIONS[case]
    fields = dict(ROLLOUTS[kind](), **broken)
    fleet = _Fleet(fields.pop("versions"), fields.pop("lost", 0))
    report = RolloutReport(fleet, 1, 2, wave_sizes=[1, 3], **fields)
    assert report.violations() == expected
    assert report.uniform == (not any("end versions" in v or "revert failed" in v
                                      for v in expected))


class TestNodeFactory:
    def test_boot_is_cheap(self):
        import time

        start = time.perf_counter()
        node = Node.boot("simple", node_id=9)
        elapsed_ms = (time.perf_counter() - start) * 1000
        assert node.version == 1
        assert node.served_version() == 1
        assert elapsed_ms < 500  # budget is ~50 ms; generous for CI boxes
        node.teardown()

    def test_memcache_node(self):
        node = Node.boot("memcache")
        try:
            assert node.served_version() == 1
            node.serve(4)
            node.drain()
            assert node.completed == 4 and node.lost == 0
            result = node.update(to_version=2)
            assert result.committed
            assert node.served_version() == 2
        finally:
            node.teardown()

    @pytest.mark.parametrize("server", sorted(CATALOG))
    def test_every_catalog_row_serves_requests(self, server):
        """vsftpd and opensshd greet first: their request reads the banner,
        and a banner can never pass for the reply."""
        node = Node.boot(server)
        try:
            node.serve(4)
            node.drain()
            assert (node.requests_sent, node.completed, node.lost) == (4, 4, 0)
            assert node.pending() == 0 and node.latency.count == 4
        finally:
            node.teardown()
