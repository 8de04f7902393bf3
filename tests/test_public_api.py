"""Tests for the top-level convenience API (``repro.boot``/``live_update``)."""

import pytest

import repro


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("server", ["simple", "nginx", "vsftpd"])
    def test_boot_and_update(self, server):
        world = repro.boot(server)
        assert world.session.startup_complete
        result = repro.live_update(world, version=2)
        assert result.committed, result.error

    def test_explicit_program(self):
        from repro.servers import simple

        world = repro.boot("simple")
        result = repro.live_update(world, program=simple.make_program(2))
        assert result.committed

    def test_unknown_server(self):
        with pytest.raises(ValueError, match="unknown server 'iis'; choose from simple, "):
            repro.boot("iis")
