"""Line-protocol driver for the command servers (simple, memcache).

Each client connects once and plays the scripted ``(line, expected reply
prefix)`` exchanges — AB's ``GET <path>`` shape only draws ``err
unknown`` from these protocols, which would make a probe vacuous.
Shared by the fault matrix and the record/replay scenario runner.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, sim_function
from repro.servers.common import ClientLatencyLog, connect_with_retry


class LineBench:
    """Scripted line-protocol exchange driver."""

    def __init__(self, port: int, script, clients: int = 1) -> None:
        self.port = port
        self.script = list(script)
        self.clients = clients
        self.completed = 0
        self.errors = 0
        self.latency = ClientLatencyLog()

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

    def run(self, kernel: Kernel, max_steps: int = 5_000_000) -> int:
        """Drive to completion; returns elapsed virtual ns."""
        start_ns = kernel.clock.now_ns
        clients = self(kernel)
        kernel.run(until=lambda: all(c.exited for c in clients), max_steps=max_steps)
        return kernel.clock.now_ns - start_ns
