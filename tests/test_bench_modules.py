"""Tests for the benchmark harness plumbing (not the experiments)."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    PRIMARY_SERVERS,
    SERVER_BENCHES,
    boot_server,
    build_ladder,
    update_midflight,
)
from repro.bench.reporting import render_table
from repro.bench.table3 import PAPER_TABLE3
from repro.bench.table2 import PAPER_TABLE2
from repro.runtime.instrument import BuildConfig


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], ["xx", "y"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text  # floats formatted
        assert "xx" in text

    def test_render_table_note(self):
        text = render_table("T", ["a"], [[1]], note="compare shapes")
        assert text.endswith("compare shapes")


class TestHarness:
    def test_all_subjects_registered(self):
        assert set(SERVER_BENCHES) == {
            "httpd", "nginx", "nginx_reg", "vsftpd", "opensshd", "memcache"
        }
        assert set(PRIMARY_SERVERS) <= set(SERVER_BENCHES)

    def test_default_build_honors_region_flag(self):
        world = boot_server("nginx_reg")
        assert world.root.build.instrument_regions
        world = boot_server("nginx")
        assert not world.root.build.instrument_regions

    def test_boot_baseline_has_no_session(self):
        world = boot_server("nginx", build=BuildConfig.baseline())
        assert world.session is None
        # nginx daemonizes (the root exits) but the daemon tree serves.
        assert world.root.tree()
        assert 8081 in world.kernel.net._listeners

    def test_build_ladder_order(self):
        ladder = build_ladder()
        assert list(ladder) == ["baseline", "Unblock", "+SInstr", "+DInstr", "+QDet"]
        assert ladder["+QDet"]().updatable

    def test_paper_reference_tables_cover_paper_subjects(self):
        # memcache is a repo-added subject; the paper's tables only
        # report the original five configurations.
        paper_subjects = {"httpd", "nginx", "nginx_reg", "vsftpd", "opensshd"}
        assert set(PAPER_TABLE3) == paper_subjects
        assert set(PAPER_TABLE2) == paper_subjects
        assert paper_subjects <= set(SERVER_BENCHES)

    @pytest.mark.parametrize("name", sorted(SERVER_BENCHES))
    def test_every_subject_boots_and_serves(self, name):
        world = boot_server(name)
        assert world.session.startup_complete
        workload = SERVER_BENCHES[name]["workload"]()
        # Tiny run: shrink the workload where supported.
        if hasattr(workload, "requests"):
            workload.requests = 8
        if hasattr(workload, "users"):
            workload.users = 2
        if hasattr(workload, "sessions"):
            workload.sessions = 2
        workload.run(world.kernel)
        assert workload.errors == 0
        assert workload.completed > 0


class TestMidflightUpdate:
    def test_reports_the_update_and_what_the_clients_saw(self):
        world = boot_server("simple")
        workload = world.spec.small_workload({})
        result, perceived, wall_s = update_midflight(world, workload, None, 2)
        assert result.committed
        # Drained: every reply, not just the two warm-up ones, is measured.
        assert perceived.histogram.count == workload.latency.count > 2
        assert perceived.slo_ok and wall_s > 0

    @pytest.mark.parametrize(
        "phase, budget", [("warm-up", "WARM_STEPS"), ("drain", "DRAIN_STEPS")]
    )
    def test_a_phase_that_runs_out_of_steps_raises_naming_it(
        self, phase, budget, monkeypatch
    ):
        # httpd's benchmark sends far more than the eight warm-up requests,
        # so both phases have work left when a one-step budget runs out.
        monkeypatch.setattr(harness, budget, 1)
        world = boot_server("httpd")
        with pytest.raises(RuntimeError, match=f"{phase} stopped on its 1-step budget"):
            update_midflight(world, world.spec.workload(), None, 8)
