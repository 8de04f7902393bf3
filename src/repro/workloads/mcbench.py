"""The memcached benchmark analogue (memtier/mc-crusher shape).

Each concurrent client drives one keep-alive connection with a mixed
set/get stream, with ``ApacheBench``'s driver surface, so every bench
that accepts a workload (updatetime's mid-flight client-perceived
measurement in particular) takes memcache as a first-class subject.
"""

from __future__ import annotations

from repro.workloads.scripted import Script, ScriptedClients, Step


class McBench(ScriptedClients):
    """Mixed set/get memcache benchmark driver (think time and stall
    bound as ``ApacheBench``'s; jitter stream ``workload.mc.jitter``)."""

    def __init__(
        self,
        port: int,
        operations: int = 200,
        concurrency: int = 4,
        reconnect_stall_ns: int = None,
        jitter_ns: int = 0,
    ) -> None:
        self.operations = operations
        self.concurrency = concurrency
        self.reconnect_stall_ns = reconnect_stall_ns
        super().__init__(
            port, self._script, concurrency, frame="mc_client", name="mc-{}".format,
            stall_ns=reconnect_stall_ns, jitter="workload.mc.jitter", jitter_ns=jitter_ns,
        )

    def _script(self, client: int) -> Script:
        """Write-then-read per key, so every get hits and a wrong reply
        means the server; a periodic ``nstats`` carries the version tag,
        so the stream itself catches a wrong-version server mid-rollout."""
        steps = []
        for index in range(max(1, self.operations // self.concurrency)):
            if index % 8 == 7:
                steps.append(Step("nstats", expect="STATS"))
            elif index % 2 == 0:
                steps.append(Step(f"set k{client}_{index % 8} v{index}", expect="STORED"))
            else:
                steps.append(Step(f"get k{client}_{(index - 1) % 8}", expect="VALUE"))
        return Script(steps)
