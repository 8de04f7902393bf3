"""Tests for the update-series metadata and full-series walkthroughs."""

import pytest

from repro.bench.harness import boot_server
from repro.mcr.ctl import McrCtl
from repro.servers.updates import ALL_SERIES, make_httpd_update


class TestSeriesMetadata:
    def test_all_series_present(self):
        assert set(ALL_SERIES) == {"httpd", "nginx", "vsftpd", "opensshd"}

    def test_update_counts_match_paper(self):
        assert ALL_SERIES["nginx"].num_updates() == 25
        for name in ("httpd", "vsftpd", "opensshd"):
            assert ALL_SERIES[name].num_updates() == 5

    def test_versions_are_contiguous(self):
        for series in ALL_SERIES.values():
            versions = [u.from_version for u in series.updates]
            for spec in series.updates:
                assert spec.to_version == spec.from_version + 1

    def test_type_changes_computed(self):
        nginx = ALL_SERIES["nginx"]
        changed = [u for u in nginx.updates if u.types_changed(nginx.make) > 0]
        # v2->3 (cycle), v7->8 (connection), v12->13 (stats).
        assert len(changed) >= 3

    def test_st_loc_only_for_semantic_updates(self):
        httpd = ALL_SERIES["httpd"]
        semantic = [u for u in httpd.updates if u.needs_st_handler]
        assert len(semantic) == 1 and semantic[0].st_loc > 0

    def test_annotation_loc_from_registry(self):
        assert ALL_SERIES["httpd"].annotation_loc() == 181
        assert ALL_SERIES["nginx"].annotation_loc() == 22


class TestSemanticUpdateFactory:
    def test_httpd_v6_gains_handler(self):
        program = make_httpd_update(6)
        assert "httpd_scoreboard" in program.annotations.obj_handlers

    def test_httpd_v5_has_no_handler(self):
        program = make_httpd_update(5)
        assert "httpd_scoreboard" not in program.annotations.obj_handlers


@pytest.mark.slow
class TestFullSeriesWalk:
    @pytest.mark.parametrize("name", ["vsftpd", "opensshd", "httpd"])
    def test_walk_all_five_updates(self, name):
        series = ALL_SERIES[name]
        world = boot_server(name)
        ctl = McrCtl(world.kernel, world.session)
        for spec in series.updates:
            program = series.make(spec.to_version)
            result = ctl.live_update(program)
            assert result.committed, (
                f"{name} v{spec.from_version}->v{spec.to_version}: {result.error}"
            )

    def test_walk_nginx_first_ten(self):
        series = ALL_SERIES["nginx"]
        world = boot_server("nginx")
        ctl = McrCtl(world.kernel, world.session)
        for spec in series.updates[:10]:
            result = ctl.live_update(series.make(spec.to_version))
            assert result.committed, (
                f"nginx v{spec.from_version}->v{spec.to_version}: {result.error}"
            )
