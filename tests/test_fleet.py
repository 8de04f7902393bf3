"""Tests for the fleet plane (``repro.fleet``).

Covers the node factory (cheap stamped-out kernels, strict cross-node
isolation), the deterministic load balancer, lockstep fleet time, and
the SLO-gated canary → wave orchestrator under clean and faulted
rollouts.  The headline invariants: two nodes in one process share no
clock/collector/counter/allocator state (an update on A leaves B's tree
byte-identical), a clean fleet rollout loses zero requests, and a
faulted rollout ends uniform — all-old or all-new, never mixed.
"""

import pytest

from repro import obs
from repro.fleet import Fleet, LoadBalancer, Node, Orchestrator, wave_plan
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


def test_fleetroll_isolation_reads_the_served_version_not_a_name(monkeypatch):
    """The isolation row's ``updated_changed`` asks the updated node which
    version it serves.  A fingerprint keys on ``(pid, name)``, so it cannot
    tell an update that keeps the root's booted name from no update."""
    import repro.mcr.controller as controller
    from repro.bench import fleetroll

    names = []
    load_program = controller.load_program

    def load_keeping_the_booted_name(*args, name=None, **kwargs):
        names.append(name)
        return load_program(*args, **kwargs)

    monkeypatch.setattr(controller, "load_program", load_keeping_the_booted_name)
    row = fleetroll._isolation_row()
    assert names == ["simple-v2"]  # the restart was spawned, unnamed
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
            assert report.waves_run == 1  # aborted at the canary gate
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

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            Orchestrator(Fleet([]), on_fault="shrug")


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
