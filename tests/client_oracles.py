"""The hand-written client loops ``ScriptedClients`` replaced: the reference.

Each body below is one of the seven copies the driver merged, kept as it
was so ``tests/test_scripted_clients.py`` can hold the driver to it:
same counters, same latency samples, same process names, same final
virtual clock and the same scheduler pick order.  Only the success paths
are comparable — the driver's one failure policy (retry under a stall
bound, else stop and charge every operation left) deliberately differs
from the copies' several.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SimError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, sim_function
from repro.replay import rng as replay_rng
from repro.workloads.client import ClientLatencyLog, connect_with_retry


class _Driver:
    """The counters and ``run`` every copy carried."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.completed = 0
        self.errors = 0
        self.reconnects = 0
        self.latency = ClientLatencyLog()

    def run(self, kernel: Kernel, max_steps: int = 5_000_000) -> int:
        start_ns = kernel.clock.now_ns
        clients = self(kernel)
        kernel.run(until=lambda: all(c.exited for c in clients), max_steps=max_steps)
        return kernel.clock.now_ns - start_ns


class ApacheBench(_Driver):
    def __init__(self, port, requests=200, concurrency=4, path="/file1k.bin",
                 reconnect_stall_ns=None, jitter_ns=0):
        super().__init__(port)
        self.requests = requests
        self.concurrency = concurrency
        self.path = path
        self.jitter_ns = jitter_ns
        self.reconnect_stall_ns = reconnect_stall_ns

    def __call__(self, kernel: Kernel) -> List[Process]:
        per_client = max(1, self.requests // self.concurrency)
        bench = self
        jitter = (
            replay_rng.stream("workload.ab.jitter") if self.jitter_ns else None
        )

        @sim_function
        def ab_client(sys):
            clock = sys.kernel.clock
            try:
                fd = yield from connect_with_retry(sys, bench.port)
            except SimError:
                bench.errors += per_client
                return
            for _ in range(per_client):
                if jitter is not None:
                    yield from sys.nanosleep(jitter.randint(0, bench.jitter_ns))
                start = clock.now_ns
                attempts = 0
                while True:
                    try:
                        yield from sys.send(fd, f"GET {bench.path}\n".encode())
                        reply = yield from sys.recv(
                            fd, timeout_ns=bench.reconnect_stall_ns
                        )
                    except SimError:
                        reply = None
                    if isinstance(reply, (bytes, bytearray)) and reply:
                        bench.completed += 1
                        bench.latency.record(start, clock.now_ns)
                        break
                    if bench.reconnect_stall_ns is None or attempts >= 100:
                        bench.errors += 1
                        yield from sys.close(fd)
                        return
                    attempts += 1
                    bench.reconnects += 1
                    yield from sys.close(fd)
                    try:
                        fd = yield from connect_with_retry(sys, bench.port)
                    except SimError:
                        bench.errors += 1
                        return
            yield from sys.close(fd)

        return [
            kernel.spawn_process(ab_client, name=f"ab-{index}")
            for index in range(self.concurrency)
        ]


class McBench(_Driver):
    def __init__(self, port, operations=200, concurrency=4,
                 reconnect_stall_ns=None, jitter_ns=0):
        super().__init__(port)
        self.operations = operations
        self.concurrency = concurrency
        self.jitter_ns = jitter_ns
        self.reconnect_stall_ns = reconnect_stall_ns

    def _script(self, client, per_client):
        ops = []
        for index in range(per_client):
            if index % 8 == 7:
                ops.append(("nstats", "STATS"))
            elif index % 2 == 0:
                ops.append((f"set k{client}_{index % 8} v{index}", "STORED"))
            else:
                ops.append((f"get k{client}_{(index - 1) % 8}", "VALUE"))
        return ops

    def __call__(self, kernel: Kernel) -> List[Process]:
        per_client = max(1, self.operations // self.concurrency)
        bench = self
        jitter = (
            replay_rng.stream("workload.mc.jitter") if self.jitter_ns else None
        )

        @sim_function
        def mc_client(sys, index):
            clock = sys.kernel.clock
            try:
                fd = yield from connect_with_retry(sys, bench.port)
            except SimError:
                bench.errors += per_client
                return
            for line, expect in bench._script(index, per_client):
                if jitter is not None:
                    yield from sys.nanosleep(jitter.randint(0, bench.jitter_ns))
                start = clock.now_ns
                attempts = 0
                while True:
                    try:
                        yield from sys.send(fd, (line + "\n").encode())
                        reply = yield from sys.recv(
                            fd, timeout_ns=bench.reconnect_stall_ns
                        )
                    except SimError:
                        reply = None
                    if (
                        isinstance(reply, (bytes, bytearray))
                        and reply
                        and reply.decode(errors="replace").startswith(expect)
                    ):
                        bench.completed += 1
                        bench.latency.record(start, clock.now_ns)
                        break
                    if bench.reconnect_stall_ns is None or attempts >= 100:
                        bench.errors += 1
                        yield from sys.close(fd)
                        return
                    attempts += 1
                    bench.reconnects += 1
                    yield from sys.close(fd)
                    try:
                        fd = yield from connect_with_retry(sys, bench.port)
                    except SimError:
                        bench.errors += 1
                        return
            yield from sys.close(fd)

        return [
            kernel.spawn_process(mc_client, args=(index,), name=f"mc-{index}")
            for index in range(self.concurrency)
        ]


class LineBench(_Driver):
    def __init__(self, port, script, clients=1):
        super().__init__(port)
        self.script = list(script)
        self.clients = clients

    def __call__(self, kernel: Kernel) -> List[Process]:
        bench = self

        @sim_function
        def line_client(sys):
            clock = sys.kernel.clock
            try:
                fd = yield from connect_with_retry(sys, bench.port)
            except SimError:
                bench.errors += len(bench.script)
                return
            for line, expect in bench.script:
                start = clock.now_ns
                yield from sys.send(fd, (line + "\n").encode())
                reply = yield from sys.recv(fd)
                if reply and reply.decode(errors="replace").startswith(expect):
                    bench.completed += 1
                    bench.latency.record(start, clock.now_ns)
                else:
                    bench.errors += 1
            yield from sys.close(fd)

        return [
            kernel.spawn_process(line_client, name=f"line-{index}")
            for index in range(self.clients)
        ]


class FtpBench(_Driver):
    def __init__(self, port=21, users=10, retrievals=2, path="/pub/file1m.bin"):
        super().__init__(port)
        self.users = users
        self.retrievals = retrievals
        self.path = path

    def __call__(self, kernel: Kernel) -> List[Process]:
        bench = self

        @sim_function
        def ftp_user(sys, user_index):
            clock = sys.kernel.clock
            try:
                fd = yield from connect_with_retry(sys, bench.port)
            except SimError:
                bench.errors += 1
                return
            yield from sys.recv(fd)  # banner
            start = clock.now_ns
            yield from sys.send(fd, f"USER user{user_index}\n".encode())
            yield from sys.recv(fd)
            yield from sys.send(fd, b"PASS secret\n")
            reply = yield from sys.recv(fd)
            if not reply.startswith(b"230"):
                bench.errors += 1
                yield from sys.close(fd)
                return
            bench.latency.record(start, clock.now_ns)  # login exchange
            for _ in range(bench.retrievals):
                start = clock.now_ns
                yield from sys.send(fd, f"RETR {bench.path}\n".encode())
                data = yield from sys.recv(fd)
                while data and b"226" not in data:
                    data = yield from sys.recv(fd)
                if data:
                    bench.completed += 1
                    bench.latency.record(start, clock.now_ns)
                else:
                    bench.errors += 1
                    break
            start = clock.now_ns
            yield from sys.send(fd, b"QUIT\n")
            reply = yield from sys.recv(fd)
            if reply:
                bench.latency.record(start, clock.now_ns)
            yield from sys.close(fd)

        return [
            kernel.spawn_process(ftp_user, args=(index,), name=f"ftp-user-{index}")
            for index in range(self.users)
        ]


class SshSuite(_Driver):
    def __init__(self, port=22, sessions=6, commands=3):
        super().__init__(port)
        self.sessions = sessions
        self.commands = commands

    def __call__(self, kernel: Kernel) -> List[Process]:
        suite = self

        @sim_function
        def ssh_session(sys, index):
            clock = sys.kernel.clock
            try:
                fd = yield from connect_with_retry(sys, suite.port)
            except SimError:
                suite.errors += 1
                return
            yield from sys.recv(fd)  # version banner
            start = clock.now_ns
            yield from sys.send(fd, f"AUTH tester{index} hunter2\n".encode())
            reply = yield from sys.recv(fd)
            if not reply.startswith(b"auth-ok"):
                suite.errors += 1
                yield from sys.close(fd)
                return
            suite.latency.record(start, clock.now_ns)  # auth exchange
            for step in range(suite.commands):
                start = clock.now_ns
                yield from sys.send(fd, f"EXEC test-step-{step}\n".encode())
                reply = yield from sys.recv(fd)
                if reply.startswith(b"helper-output"):
                    suite.completed += 1
                    suite.latency.record(start, clock.now_ns)
                else:
                    suite.errors += 1
            start = clock.now_ns
            yield from sys.send(fd, b"QUIT\n")
            reply = yield from sys.recv(fd)
            if reply:
                suite.latency.record(start, clock.now_ns)
            yield from sys.close(fd)

        return [
            kernel.spawn_process(ssh_session, args=(index,), name=f"ssh-test-{index}")
            for index in range(self.sessions)
        ]


class ConnectionHolder(_Driver):
    def __init__(self, port, count, kind="http"):
        super().__init__(port)
        self.count = count
        self.kind = kind
        self.ready = 0
        self._release = False
        self.clients: List[Process] = []

    def establish(self, kernel: Kernel, max_steps: int = 8_000_000) -> None:
        holder = self

        @sim_function
        def holder_client(sys, index):
            clock = sys.kernel.clock
            try:
                fd = yield from connect_with_retry(sys, holder.port, attempts=200)
            except SimError:
                holder.errors += 1
                return
            if holder.kind == "ftp":
                yield from sys.recv(fd)  # banner
                start = clock.now_ns
                yield from sys.send(fd, f"USER hold{index}\n".encode())
                yield from sys.recv(fd)
                yield from sys.send(fd, b"PASS secret\n")
                yield from sys.recv(fd)
                holder.latency.record(start, clock.now_ns)  # login exchange
                start = clock.now_ns
                yield from sys.send(fd, b"RETR /pub/readme.txt\n")
                data = yield from sys.recv(fd)
                while data and b"226" not in data:
                    data = yield from sys.recv(fd)
                holder.latency.record(start, clock.now_ns)
            elif holder.kind == "ssh":
                yield from sys.recv(fd)  # banner
                start = clock.now_ns
                yield from sys.send(fd, f"AUTH hold{index} pw\n".encode())
                yield from sys.recv(fd)
                holder.latency.record(start, clock.now_ns)
            else:
                start = clock.now_ns
                yield from sys.send(fd, b"GET /index.html\n")
                yield from sys.recv(fd)
                holder.latency.record(start, clock.now_ns)
            holder.ready += 1
            while not holder._release:
                yield from sys.nanosleep(20_000_000)
            yield from sys.close(fd)

        self.clients = [
            kernel.spawn_process(holder_client, args=(index,), name=f"hold-{index}")
            for index in range(self.count)
        ]
        kernel.run(
            until=lambda: self.ready + self.errors >= self.count,
            max_steps=max_steps,
        )

    def finish(self, kernel: Kernel, max_steps: int = 2_000_000) -> None:
        self._release = True
        kernel.run(
            until=lambda: all(c.exited for c in self.clients),
            max_steps=max_steps,
        )


# -- the fleet node's two clients ----------------------------------------------


class OneShotRequests(_Driver):
    """``Node.serve``'s request stream: one connection per request."""

    def __init__(self, node_id, port, request, stall_ns):
        super().__init__(port)
        self.node_id = node_id
        self.request = request
        self.stall_ns = stall_ns
        self.requests_sent = 0

    def serve(self, kernel: Kernel, requests: int) -> List[Process]:
        line, expect = self.request
        clients = []
        for _ in range(requests):
            self.requests_sent += 1
            clients.append(
                kernel.spawn_process(
                    _oneshot_request,
                    args=(self, line, expect),
                    name=f"fleet-client-{self.node_id}-{self.requests_sent}",
                )
            )
        return clients


@sim_function
def _oneshot_request(sys, node: OneShotRequests, line: str, expect: str):
    clock = sys.kernel.clock
    start = clock.now_ns
    try:
        fd = yield from connect_with_retry(sys, node.port)
    except SimError:
        node.errors += 1
        return
    attempts = 0
    while True:
        try:
            yield from sys.send(fd, (line + "\n").encode())
            reply = yield from sys.recv(fd, timeout_ns=node.stall_ns)
        except SimError:
            reply = None
        if (
            isinstance(reply, (bytes, bytearray))
            and reply
            and reply.decode(errors="replace").startswith(expect)
        ):
            node.completed += 1
            node.latency.record(start, clock.now_ns)
            break
        attempts += 1
        if attempts > 100:
            node.errors += 1
            break
        node.reconnects += 1
        yield from sys.close(fd)
        try:
            fd = yield from connect_with_retry(sys, node.port)
        except SimError:
            node.errors += 1
            return
    yield from sys.close(fd)


def served_version(kernel: Kernel, port: int, probe, max_steps=200_000) -> Optional[int]:
    """``Node.served_version``'s inline client, without the node."""
    line, marker = probe
    seen: List[int] = []

    @sim_function
    def version_client(sys):
        try:
            fd = yield from connect_with_retry(sys, port)
        except SimError:
            return
        yield from sys.send(fd, (line + "\n").encode())
        reply = yield from sys.recv(fd)
        if isinstance(reply, (bytes, bytearray)) and reply:
            text = reply.decode(errors="replace").strip()
            if marker in text:
                tail = text.rsplit(marker, 1)[1].split()[0]
                if tail.isdecimal():
                    seen.append(int(tail))
        yield from sys.close(fd)

    process = kernel.spawn_process(version_client, name="version-probe")
    kernel.run(until=lambda: process.exited, max_steps=max_steps)
    return seen[0] if seen else None
