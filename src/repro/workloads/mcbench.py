"""The memcached benchmark analogue (memtier/mc-crusher shape).

Each concurrent client drives one keep-alive connection with a mixed
set/get stream against the simulated memcache server, recording
per-operation virtual latencies.  The interface mirrors
``ApacheBench`` (``__call__`` spawning clients, ``run`` driving to
completion, a ``ClientLatencyLog``), so every bench that accepts a
workload — updatetime's mid-flight client-perceived measurement in
particular — takes memcache as a first-class subject.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, sim_function
from repro.replay import rng as replay_rng
from repro.servers.common import ClientLatencyLog, connect_with_retry


class McBench:
    """Mixed set/get memcache benchmark driver."""

    def __init__(
        self,
        port: int,
        operations: int = 200,
        concurrency: int = 4,
        reconnect_stall_ns: int = None,
        jitter_ns: int = 0,
    ) -> None:
        self.port = port
        self.operations = operations
        self.concurrency = concurrency
        # Same deterministic think-time knob as ApacheBench: uniform
        # 0..jitter_ns sleep per operation, drawn from the named
        # ``workload.mc.jitter`` replay stream; 0 takes zero draws.
        self.jitter_ns = jitter_ns
        # Same timeout/retry posture as ApacheBench: with a stall bound
        # set, a client abandons a wedged connection and retries the
        # operation over a fresh connect; None blocks forever.
        self.reconnect_stall_ns = reconnect_stall_ns
        self.reconnects = 0
        self.completed = 0
        self.errors = 0
        self.latency = ClientLatencyLog()

    def _script(self, client: int, per_client: int) -> List[tuple]:
        """(request line, expected reply prefix) per operation.

        Write-then-read per key so every get hits, with a periodic
        ``nstats`` mixed in — the stats path is what carries the
        server's version tag, so the stream itself would catch a
        wrong-version server mid-rollout.
        """
        ops: List[tuple] = []
        for index in range(per_client):
            if index % 8 == 7:
                ops.append(("nstats", "STATS"))
            elif index % 2 == 0:
                ops.append((f"set k{client}_{index % 8} v{index}", "STORED"))
            else:
                # Read back the key the previous op stored, so every get
                # hits and a wrong reply means the server, not the script.
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

    def run(self, kernel: Kernel, max_steps: int = 5_000_000) -> int:
        """Drive to completion; returns elapsed virtual ns."""
        start_ns = kernel.clock.now_ns
        clients = self(kernel)
        kernel.run(until=lambda: all(c.exited for c in clients), max_steps=max_steps)
        return kernel.clock.now_ns - start_ns
