"""Tests for the diagnostics renderer and the CLI front end."""

import pytest

from repro.errors import ConflictError, QuiescenceTimeout
from repro.cli import build_parser, main
from repro.kernel import Kernel
from repro.mcr.ctl import McrCtl
from repro.mcr.diagnostics import describe_update, explain_conflict
from repro.servers import simple
from repro.servers.catalog import CATALOG, boot


def _booted_simple(kernel):
    world = boot("simple", kernel=kernel)
    return world.program, world.session, world.root


class TestDiagnostics:
    def test_describe_committed_update(self, kernel):
        _program, session, root = _booted_simple(kernel)
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        text = describe_update(result)
        assert "COMMITTED" in text
        assert "state transfer:" in text
        assert "process pair(s)" in text

    def test_describe_rolled_back_update_has_advice(self, kernel):
        _program, session, root = _booted_simple(kernel)
        kernel.fs.create("/etc/simple.conf", b"9999")  # config drift
        result = McrCtl(kernel, session).live_update(simple.make_program(2))
        assert result.rolled_back
        text = describe_update(result)
        assert "ROLLED BACK" in text
        assert "advice:" in text

    def test_explain_reinit_argument_conflict(self):
        error = ConflictError("reinit", "bind@main", "argument mismatch: ...")
        assert "MCR_ADD_REINIT_HANDLER" in explain_conflict(error)

    def test_explain_reinit_omission(self):
        error = ConflictError("reinit", "socket@main", "never replayed by ...")
        assert "omitted" in explain_conflict(error)

    def test_explain_tracing_type_conflict(self):
        error = ConflictError(
            "tracing", "session", "type of conservatively-handled object changed (x)"
        )
        advice = explain_conflict(error)
        assert "MCR_ADD_OBJ_HANDLER" in advice

    def test_explain_dropped_object(self):
        error = ConflictError(
            "tracing", "0x1", "pointer to an object with no new-version counterpart"
        )
        assert "state-transfer handler" in explain_conflict(error)

    def test_explain_quiescence_timeout(self):
        advice = explain_conflict(QuiescenceTimeout("laggards: x"))
        assert "profiler" in advice

    def test_explain_unknown(self):
        assert "Unrecognized" in explain_conflict(RuntimeError("boom"))


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["demo", "nginx"])
        assert args.server == "nginx"
        args = parser.parse_args(["bench", "table3"])
        assert args.experiment == "table3"

    def test_unknown_server_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["demo", "apache2"])

    def test_status_command(self, capsys):
        assert main(["status", "simple"]) == 0
        out = capsys.readouterr().out
        assert "phase: normal" in out

    def test_demo_command_commits(self, capsys):
        assert main(["demo", "simple"]) == 0
        out = capsys.readouterr().out
        assert "COMMITTED" in out
        # simple is driven by its own line protocol (2 clients x push,
        # push, sum), each reply checked against its expected prefix — not
        # by AB's ``GET sum``, whose 40 ``err unknown`` replies counted.
        assert "workload done: 6 ops, 0 errors" in out

    def test_profile_command_single_server(self, capsys):
        assert main(["profile", "nginx"]) == 0
        out = capsys.readouterr().out
        assert "Quiescence profile for nginx" in out
        assert "SL=1 LL=2" in out

    @pytest.mark.parametrize("server", [name for name in CATALOG if name != "simple"])
    def test_demo_commits_every_server(self, capsys, server):
        """``demo`` drives each row's own small workload error-free, then
        live-updates it to v2."""
        assert main(["demo", server]) == 0
        out = capsys.readouterr().out
        assert f"{server} v1 running on simulated port {CATALOG[server].port}" in out
        assert ", 0 errors" in out
        assert "status: COMMITTED" in out

    @pytest.mark.parametrize("server", [name for name in CATALOG if name != "simple"])
    def test_status_every_server(self, capsys, server):
        assert main(["status", server]) == 0
        out = capsys.readouterr().out
        assert "version: 1\nphase: normal\nstartup_complete: True" in out
