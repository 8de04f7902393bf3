"""Functional tests for the four simulated evaluation servers (v1)."""

import pytest

from repro.kernel import Kernel, sim_function
from repro.mcr.libmcr import MCRSession
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import load_program
from repro.servers import httpd, nginx, opensshd, vsftpd
from repro.workloads.client import connect_with_retry, recv_line


def _boot(kernel, module, version=1, build=None, **kwargs):
    module.setup_world(kernel)
    program = module.make_program(version, **kwargs)
    build = build or BuildConfig.full()
    session = MCRSession(kernel, program, build) if build.mcr_enabled else None
    root = load_program(kernel, program, build=build, session=session)
    return program, session, root


@sim_function
def _liner(sys, port, cmds, out, expect_banner=False):
    fd = yield from connect_with_retry(sys, port)
    if expect_banner:
        line = yield from recv_line(sys, fd)
        out.append(line.decode().strip())
    for cmd in cmds:
        yield from sys.send(fd, (cmd + "\n").encode())
        line = yield from recv_line(sys, fd)
        out.append(line.decode().strip()[:70])
    yield from sys.close(fd)


class TestNginx:
    def test_serves_files(self, kernel):
        _boot(kernel, nginx)
        out = []
        kernel.spawn_process(_liner, args=(8081, ["GET /index.html", "STATS"], out))
        kernel.run(max_steps=400_000, until=lambda: len(out) == 2)
        assert out[0].startswith("200 ")
        assert out[1].startswith("stats 2 v1")

    def test_404(self, kernel):
        _boot(kernel, nginx)
        out = []
        kernel.spawn_process(_liner, args=(8081, ["GET /missing"], out))
        kernel.run(max_steps=400_000, until=lambda: len(out) == 1)
        assert out == ["404 not found"]

    def test_process_model(self, kernel):
        _program, session, _root = _boot(kernel, nginx)
        kernel.run(max_steps=100_000, until=lambda: session.startup_complete)
        tree = session.root_process.tree()
        names = sorted(p.name for p in tree)
        assert names == ["nginx-daemon", "nginx-worker"]  # root daemonized away

    def test_worker_pid_stored_in_cycle(self, kernel):
        _program, session, _root = _boot(kernel, nginx)
        kernel.run(max_steps=100_000, until=lambda: session.startup_complete)
        daemon = next(p for p in session.root_process.tree() if p.name == "nginx-daemon")
        worker = next(p for p in session.root_process.tree() if p.name == "nginx-worker")
        cycle = daemon.crt.gget("ngx_cycle")
        cycle_t = daemon.program.types["ngx_cycle_t"]
        assert daemon.crt.get(cycle, cycle_t, "worker_pid") == worker.pid

    def test_pointer_encoding_global(self, kernel):
        _program, session, _root = _boot(kernel, nginx)
        kernel.run(max_steps=100_000, until=lambda: session.startup_complete)
        daemon = next(p for p in session.root_process.tree() if p.name == "nginx-daemon")
        encoded = daemon.crt.gget("ngx_encoded_conf")
        assert encoded & 0x1  # tag bit set
        assert (encoded & ~0x3) == daemon.crt.gget("ngx_cycle")


class TestVsftpd:
    def test_login_and_retrieve(self, kernel):
        _boot(kernel, vsftpd)
        out = []
        kernel.spawn_process(
            _liner,
            args=(21, ["USER alice", "PASS pw", "STAT"], out, True),
        )
        kernel.run(max_steps=400_000, until=lambda: len(out) == 4)
        assert out[0].startswith("220")
        assert out[1].startswith("331")
        assert out[2].startswith("230")
        assert "user=alice" in out[3]

    def test_wrong_password(self, kernel):
        _boot(kernel, vsftpd)
        out = []
        kernel.spawn_process(
            _liner, args=(21, ["USER eve", "PASS wrong", "RETR /pub/readme.txt"], out, True)
        )
        kernel.run(max_steps=400_000, until=lambda: len(out) == 4)
        assert out[2].startswith("530")
        assert out[3].startswith("530")  # RETR refused: not logged in

    def test_forks_session_per_connection(self, kernel):
        _program, session, _root = _boot(kernel, vsftpd)
        out1, out2 = [], []
        kernel.spawn_process(_liner, args=(21, ["USER a", "PASS x"], out1, True))
        kernel.spawn_process(_liner, args=(21, ["USER b", "PASS y"], out2, True))
        kernel.run(max_steps=400_000, until=lambda: len(out1) == 3 and len(out2) == 3)
        sessions = [p for p in kernel.processes.values() if p.name == "vsftpd-session"]
        assert len(sessions) == 2

    def test_master_slot_table_updated(self, kernel):
        _program, session, root = _boot(kernel, vsftpd)
        out = []
        kernel.spawn_process(_liner, args=(21, ["USER a", "PASS x"], out, True))
        kernel.run(max_steps=400_000, until=lambda: len(out) == 3)
        assert root.crt.gget("vsf_session_count") == 1


class TestOpensshd:
    def test_auth_and_exec(self, kernel):
        _boot(kernel, opensshd)
        out = []
        kernel.spawn_process(
            _liner, args=(22, ["AUTH bob pw", "EXEC whoami", "STAT"], out, True)
        )
        kernel.run(max_steps=500_000, until=lambda: len(out) == 4)
        assert out[0].startswith("SSH-2.0")
        assert out[1] == "auth-ok"
        assert out[2] == "helper-output:whoami"
        assert "user=bob execs=1" in out[3]

    def test_exec_requires_auth(self, kernel):
        _boot(kernel, opensshd)
        out = []
        kernel.spawn_process(_liner, args=(22, ["EXEC ls"], out, True))
        kernel.run(max_steps=400_000, until=lambda: len(out) == 2)
        assert "not authenticated" in out[1]

    def test_rng_state_points_into_library(self, kernel):
        _program, session, _root = _boot(kernel, opensshd)
        kernel.run(max_steps=100_000, until=lambda: session.startup_complete)
        daemon = next(p for p in session.root_process.tree() if p.name == "sshd-daemon")
        rng_ptr = daemon.crt.gget("sshd_rng_state")
        mapping = daemon.space.mapping_at(rng_ptr)
        assert mapping is not None and mapping.kind == "lib"


class TestHttpd:
    def test_serves_with_worker_threads(self, kernel):
        _boot(kernel, httpd)
        out = []
        kernel.spawn_process(_liner, args=(80, ["GET /index.html", "GET /file1k.bin"], out))
        kernel.run(max_steps=600_000, until=lambda: len(out) == 2)
        assert out[0] == "200 23"
        assert out[1] == "200 1024"

    def test_process_and_thread_model(self, kernel):
        _program, session, _root = _boot(kernel, httpd)
        kernel.run(max_steps=200_000, until=lambda: session.startup_complete)
        tree = session.root_process.tree()
        assert len(tree) == 1 + httpd.SERVER_PROCESSES
        for process in tree[1:]:
            # listener + worker threads (janitor comes later, lazily)
            assert len(process.live_threads()) == 1 + httpd.WORKER_THREADS

    def test_janitor_spawned_on_first_connection(self, kernel):
        _program, session, _root = _boot(kernel, httpd)
        out = []
        kernel.spawn_process(_liner, args=(80, ["GET /index.html"], out))
        kernel.run(max_steps=600_000, until=lambda: len(out) == 1)
        janitors = [
            t
            for p in session.root_process.tree()
            for t in p.live_threads()
            if t.name == "janitor"
        ]
        assert len(janitors) == 1

    def test_unprepared_httpd_aborts_on_own_pidfile(self, kernel):
        httpd.setup_world(kernel)
        kernel.fs.create("/var/run/httpd.pid", b"999")  # a running instance
        program = httpd.make_program(1, mcr_prepared=False)
        root = load_program(kernel, program, build=BuildConfig.baseline())
        kernel.run(max_steps=50_000)
        assert root.exited and root.exit_status == 1

    def test_prepared_httpd_ignores_pidfile(self, kernel):
        httpd.setup_world(kernel)
        kernel.fs.create("/var/run/httpd.pid", b"999")
        program = httpd.make_program(1, mcr_prepared=True)
        session = MCRSession(kernel, program, BuildConfig.full())
        root = load_program(kernel, program, build=BuildConfig.full(), session=session)
        kernel.run(max_steps=300_000, until=lambda: session.startup_complete)
        assert not root.exited
        assert session.startup_complete
