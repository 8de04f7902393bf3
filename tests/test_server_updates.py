"""Live-update tests across the four evaluation servers.

Each test drives a server with real clients, applies one or more updates
from its series, and checks that state, sessions, and connections survive
— plus the failure modes the paper highlights (unprepared httpd, type
conflicts on conservatively-handled objects).
"""

import pytest

from repro.kernel import Kernel, sim_function
from repro.mcr.ctl import McrCtl
from repro.mcr.libmcr import MCRSession
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import load_program
from repro.servers import httpd, nginx, opensshd, vsftpd
from repro.workloads.client import connect_with_retry, recv_line


def _boot(kernel, module, version=1, **kwargs):
    module.setup_world(kernel)
    program = module.make_program(version, **kwargs)
    session = MCRSession(kernel, program, BuildConfig.full())
    root = load_program(kernel, program, build=BuildConfig.full(), session=session)
    return program, session, root


@sim_function
def _oneshot(sys, port, cmds, out, banner=False):
    fd = yield from connect_with_retry(sys, port)
    if banner:
        line = yield from recv_line(sys, fd)
        out.append(line.decode().strip())
    for cmd in cmds:
        yield from sys.send(fd, (cmd + "\n").encode())
        line = yield from recv_line(sys, fd)
        out.append(line.decode().strip()[:70])
    yield from sys.close(fd)


@sim_function
def _staged(sys, port, stage1, stage2, out1, out2, gate, banner=False):
    """Runs stage1 commands, waits for gate['go'], runs stage2 commands."""
    fd = yield from connect_with_retry(sys, port)
    if banner:
        line = yield from recv_line(sys, fd)
        out1.append(line.decode().strip())
    for cmd in stage1:
        yield from sys.send(fd, (cmd + "\n").encode())
        line = yield from recv_line(sys, fd)
        out1.append(line.decode().strip()[:70])
    while not gate.get("go"):
        yield from sys.nanosleep(10_000_000)
    for cmd in stage2:
        yield from sys.send(fd, (cmd + "\n").encode())
        line = yield from recv_line(sys, fd)
        out2.append(line.decode().strip()[:70])
    yield from sys.close(fd)


class TestNginxUpdates:
    def test_update_preserves_stats(self, kernel):
        _program, session, _root = _boot(kernel, nginx)
        out = []
        kernel.spawn_process(_oneshot, args=(8081, ["GET /index.html", "STATS"], out))
        kernel.run(max_steps=400_000, until=lambda: len(out) == 2)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(nginx.make_program(2))
        assert result.committed, result.error
        after = []
        kernel.spawn_process(_oneshot, args=(8081, ["STATS"], after))
        kernel.run(max_steps=400_000, until=lambda: len(after) == 1)
        assert after == ["stats 3 v2"]  # 2 pre-update requests + this one

    def test_type_changing_update_v3(self, kernel):
        """v3 grows the cycle structure (a region-allocated object)."""
        _program, session, _root = _boot(kernel, nginx)
        kernel.run(max_steps=200_000, until=lambda: session.startup_complete)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(nginx.make_program(3))
        assert result.committed, result.error
        out = []
        kernel.spawn_process(_oneshot, args=(8081, ["GET /big.bin", "STATS"], out))
        kernel.run(max_steps=400_000, until=lambda: len(out) == 2)
        assert out[0] == "200 4096"
        assert out[1].endswith("v3")

    def test_connection_survives_update(self, kernel):
        _program, session, _root = _boot(kernel, nginx)
        out1, out2, gate = [], [], {}
        kernel.spawn_process(
            _staged, args=(8081, ["GET /index.html"], ["STATS"], out1, out2, gate)
        )
        kernel.run(max_steps=400_000, until=lambda: len(out1) == 1)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(nginx.make_program(2))
        assert result.committed, result.error
        gate["go"] = True
        kernel.run(max_steps=400_000, until=lambda: len(out2) == 1)
        assert out2[0].endswith("v2")

    def test_many_chained_updates(self, kernel):
        """Walk several releases of the nginx line in one process life."""
        _program, session, _root = _boot(kernel, nginx)
        kernel.run(max_steps=200_000, until=lambda: session.startup_complete)
        ctl = McrCtl(kernel, session)
        for version in (2, 3, 4, 7, 12):
            result = ctl.live_update(nginx.make_program(version))
            assert result.committed, f"v{version}: {result.error}"
        out = []
        kernel.spawn_process(_oneshot, args=(8081, ["STATS"], out))
        kernel.run(max_steps=400_000, until=lambda: len(out) == 1)
        assert out[0].endswith("v12")


class TestVsftpdUpdates:
    def test_session_survives_update(self, kernel):
        _program, session, _root = _boot(kernel, vsftpd)
        out1, out2, gate = [], [], {}
        kernel.spawn_process(
            _staged,
            args=(21, ["USER carol", "PASS pw", "RETR /pub/readme.txt"],
                  ["STAT"], out1, out2, gate, True),
        )
        kernel.run(max_steps=500_000, until=lambda: len(out1) == 4)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(vsftpd.make_program(2))
        assert result.committed, result.error
        gate["go"] = True
        kernel.run(max_steps=500_000, until=lambda: len(out2) == 1)
        assert "user=carol" in out2[0]
        assert "sent=22" in out2[0]
        assert out2[0].endswith("v2")

    def test_session_type_change_v3(self, kernel):
        """v3 grows the session struct; the annotation makes it legal."""
        _program, session, _root = _boot(kernel, vsftpd)
        out1, out2, gate = [], [], {}
        kernel.spawn_process(
            _staged,
            args=(21, ["USER dave", "PASS pw", "RETR /pub/readme.txt"],
                  ["PASS wrong", "STAT"], out1, out2, gate, True),
        )
        kernel.run(max_steps=500_000, until=lambda: len(out1) == 4)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(vsftpd.make_program(3))
        assert result.committed, result.error
        gate["go"] = True
        kernel.run(max_steps=500_000, until=lambda: len(out2) == 2)
        assert out2[0].startswith("530")  # new failed_logins path works
        assert "user=dave" in out2[1]

    def test_multiple_sessions_restored(self, kernel):
        _program, session, _root = _boot(kernel, vsftpd)
        gates = [{} for _ in range(3)]
        outs1 = [[] for _ in range(3)]
        outs2 = [[] for _ in range(3)]
        for index in range(3):
            kernel.spawn_process(
                _staged,
                args=(21, [f"USER u{index}", "PASS pw"], ["STAT"],
                      outs1[index], outs2[index], gates[index], True),
            )
        kernel.run(max_steps=800_000, until=lambda: all(len(o) == 3 for o in outs1))
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(vsftpd.make_program(2))
        assert result.committed, result.error
        for gate in gates:
            gate["go"] = True
        kernel.run(max_steps=800_000, until=lambda: all(len(o) == 1 for o in outs2))
        for index in range(3):
            assert f"user=u{index}" in outs2[index][0]


class TestOpensshdUpdates:
    def test_session_and_exec_survive_update(self, kernel):
        _program, session, _root = _boot(kernel, opensshd)
        out1, out2, gate = [], [], {}
        kernel.spawn_process(
            _staged,
            args=(22, ["AUTH erin pw", "EXEC date"], ["EXEC uptime", "STAT"],
                  out1, out2, gate, True),
        )
        kernel.run(max_steps=500_000, until=lambda: len(out1) == 3)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(opensshd.make_program(3))
        assert result.committed, result.error
        gate["go"] = True
        kernel.run(max_steps=500_000, until=lambda: len(out2) == 2)
        assert out2[0] == "helper-output:uptime"
        assert "user=erin execs=2" in out2[1]
        assert out2[1].endswith("v3")

    def test_auth_state_preserved(self, kernel):
        """An authenticated-but-idle session must stay authenticated."""
        _program, session, _root = _boot(kernel, opensshd)
        out1, out2, gate = [], [], {}
        kernel.spawn_process(
            _staged,
            args=(22, ["AUTH frank pw"], ["EXEC id"], out1, out2, gate, True),
        )
        kernel.run(max_steps=500_000, until=lambda: len(out1) == 2)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(opensshd.make_program(2))
        assert result.committed, result.error
        gate["go"] = True
        kernel.run(max_steps=500_000, until=lambda: len(out2) == 1)
        assert out2[0] == "helper-output:id"  # no re-auth required


class TestHttpdUpdates:
    def test_update_preserves_scoreboard(self, kernel):
        _program, session, _root = _boot(kernel, httpd)
        out = []
        kernel.spawn_process(_oneshot, args=(80, ["GET /index.html", "SCORE"], out))
        kernel.run(max_steps=600_000, until=lambda: len(out) == 2)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(httpd.make_program(2))
        assert result.committed, result.error
        after = []
        kernel.spawn_process(_oneshot, args=(80, ["GET /file1k.bin"], after))
        kernel.run(max_steps=600_000, until=lambda: len(after) == 1)
        assert after == ["200 1024"]

    def test_janitor_thread_restored(self, kernel):
        _program, session, _root = _boot(kernel, httpd)
        out = []
        kernel.spawn_process(_oneshot, args=(80, ["GET /index.html"], out))
        kernel.run(max_steps=600_000, until=lambda: len(out) == 1)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(httpd.make_program(2))
        assert result.committed, result.error
        janitors = [
            t
            for p in result.new_root.tree()
            for t in p.live_threads()
            if t.name == "janitor"
        ]
        assert len(janitors) == 1

    def test_scoreboard_type_change_v3(self, kernel):
        _program, session, _root = _boot(kernel, httpd)
        out = []
        kernel.spawn_process(_oneshot, args=(80, ["GET /index.html"], out))
        kernel.run(max_steps=600_000, until=lambda: len(out) == 1)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(httpd.make_program(3))
        assert result.committed, result.error
        after = []
        kernel.spawn_process(_oneshot, args=(80, ["SCORE", "GET /big.bin"], after))
        kernel.run(max_steps=900_000, until=lambda: len(after) == 2)
        assert after[0].endswith("v3")
        assert after[1] == "200 4096"

    def test_semantic_update_v6_applies_handler(self, kernel):
        """The v6 scoreboard unit change runs the user's ST handler."""
        from repro.servers.updates import make_httpd_update

        _program, session, _root = _boot(kernel, httpd, version=5)
        out = []
        kernel.spawn_process(_oneshot, args=(80, ["GET /index.html"], out))
        kernel.run(max_steps=600_000, until=lambda: len(out) == 1)
        # Find which server process served the request.
        old_server = next(
            p
            for p in session.root_process.tree()
            if p.name.startswith("httpd-server")
            and any(
                p.crt.get(
                    p.crt.global_addr("httpd_scoreboard") + i * p.program.types["scoreboard_t"].size,
                    p.program.types["scoreboard_t"],
                    "access_count",
                )
                for i in range(httpd.SERVER_PROCESSES)
            )
        )
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(make_httpd_update(6))
        assert result.committed, result.error
        new_server = next(
            p for p in result.new_root.tree() if p.name == old_server.name
        )
        score_t = new_server.program.types["scoreboard_t"]
        counts = [
            new_server.crt.get(
                new_server.crt.global_addr("httpd_scoreboard") + i * score_t.size,
                score_t,
                "access_count",
            )
            for i in range(httpd.SERVER_PROCESSES)
        ]
        # One request happened; the v6 unit is milli-requests.
        assert 1000 in counts

    def test_unprepared_httpd_update_rolls_back(self, kernel):
        """Without the 8-LOC preparation the new version aborts when it
        detects the (still running) old instance -> rollback."""
        _program, session, _root = _boot(kernel, httpd, mcr_prepared=True)
        kernel.run(max_steps=300_000, until=lambda: session.startup_complete)
        ctl = McrCtl(kernel, session)
        result = ctl.live_update(httpd.make_program(2, mcr_prepared=False))
        assert result.rolled_back
        # v1 still serves.
        out = []
        kernel.spawn_process(_oneshot, args=(80, ["GET /index.html"], out))
        kernel.run(max_steps=600_000, until=lambda: len(out) == 1)
        assert out == ["200 23"]
