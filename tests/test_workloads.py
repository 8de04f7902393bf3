"""Tests for the workload drivers (AB, FTP bench, SSH suite, holders)."""

import ast
from pathlib import Path

import pytest

import repro

from repro.bench.harness import boot_server
from repro.servers.catalog import boot
from repro.workloads.ab import ApacheBench
from repro.workloads.ftpbench import FtpBench
from repro.workloads.holders import ConnectionHolder
from repro.workloads.linebench import LineBench
from repro.workloads.sshsuite import SshSuite


class TestApacheBench:
    def test_completes_all_requests(self):
        world = boot_server("nginx")
        bench = ApacheBench(8081, requests=40, concurrency=4)
        elapsed_ns = bench.run(world.kernel)
        assert bench.completed == 40
        assert bench.errors == 0
        assert elapsed_ns > 0
        assert len(bench.latencies_ns) == 40

    def test_latencies_positive(self):
        world = boot_server("httpd")
        bench = ApacheBench(80, requests=20, concurrency=2)
        bench.run(world.kernel)
        assert all(latency > 0 for latency in bench.latencies_ns)

    def test_connection_refused_counts_errors(self, kernel):
        bench = ApacheBench(5999, requests=10, concurrency=2)
        bench.run(kernel, max_steps=200_000)
        assert bench.errors > 0 and bench.completed == 0


class TestFtpBench:
    def test_all_users_complete(self):
        world = boot_server("vsftpd")
        bench = FtpBench(users=4, retrievals=2)
        bench.run(world.kernel)
        assert bench.completed == 8
        assert bench.errors == 0

    def test_sessions_forked_per_user(self):
        world = boot_server("vsftpd")
        bench = FtpBench(users=3, retrievals=1)
        bench.run(world.kernel)
        sessions = [
            p for p in world.kernel.processes.values() if p.name == "vsftpd-session"
        ]
        assert len(sessions) == 3


class TestSshSuite:
    def test_all_sessions_complete(self):
        world = boot_server("opensshd")
        suite = SshSuite(sessions=3, commands=2)
        suite.run(world.kernel)
        assert suite.completed == 6
        assert suite.errors == 0

    def test_helpers_exec_and_exit(self):
        world = boot_server("opensshd")
        suite = SshSuite(sessions=2, commands=1)
        suite.run(world.kernel)
        helpers = [
            p for p in world.kernel.processes.values() if p.name == "ssh-helper"
        ]
        assert helpers and all(p.exited for p in helpers)


class TestLineBench:
    def test_shares_the_driver_surface(self):
        """``__call__`` spawns, ``run`` drives, every counted reply is
        stamped in ``latency`` — what ``cli metrics`` needs of a driver."""
        world = boot("simple")
        bench = LineBench(
            world.port, [("push 1", "ok"), ("sum", "sum"), ("GET sum", "sum")],
            clients=2,
        )
        clients = bench(world.kernel)
        assert len(clients) == 2 and not any(c.exited for c in clients)
        world.kernel.run(until=lambda: all(c.exited for c in clients))
        # ``GET sum`` draws ``err unknown``: an error, and not a latency sample.
        assert (bench.completed, bench.errors, bench.latency.count) == (4, 2, 4)
        assert all(recv > send for send, recv in bench.latency.samples)

    def test_run_returns_elapsed_virtual_time(self):
        world = boot("memcache")
        bench = LineBench(world.port, [("set k v", "STORED"), ("get k", "VALUE v")])
        before = world.kernel.clock.now_ns
        assert bench.run(world.kernel) == world.kernel.clock.now_ns - before > 0
        assert (bench.completed, bench.errors) == (2, 0)


class TestConnectionHolder:
    @pytest.mark.parametrize("server,kind", [
        ("nginx", "http"), ("vsftpd", "ftp"), ("opensshd", "ssh"),
    ])
    def test_establish_and_release(self, server, kind):
        world = boot_server(server)
        holder = ConnectionHolder(world.port, 3, kind)
        holder.establish(world.kernel)
        assert holder.ready == 3 and holder.errors == 0
        holder.finish(world.kernel)
        assert all(c.exited for c in holder.clients)

    def test_ftp_holders_fork_sessions(self):
        world = boot_server("vsftpd")
        holder = ConnectionHolder(21, 2, "ftp")
        holder.establish(world.kernel)
        live_sessions = [
            p
            for p in world.session.root_process.tree()
            if p.name == "vsftpd-session"
        ]
        assert len(live_sessions) == 2
        holder.finish(world.kernel)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ConnectionHolder(80, 1, "gopher")


# -- the one-loop lint ------------------------------------------------------------

SRC = Path(repro.__file__).resolve().parent
# Client code that may open a connection: the one driver and
# ``connect_with_retry`` itself.
_CONNECTING = {"workloads/scripted.py", "workloads/client.py"}


def _connect_calls(tree):
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id == "connect_with_retry":
            yield call.lineno
        elif (
            isinstance(func, ast.Attribute) and func.attr == "connect"
            and isinstance(func.value, ast.Name) and func.value.id == "sys"
        ):
            yield call.lineno


def test_lint_only_the_driver_runs_a_client_loop():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module, text = path.relative_to(SRC).as_posix(), path.read_text()
        if module not in _CONNECTING and "connect" in text:
            tree = ast.parse(text, filename=module)
            offenders += [f"{module}:{line}" for line in _connect_calls(tree)]
    assert not offenders, f"a client loop outside workloads/scripted.py: {offenders}"
