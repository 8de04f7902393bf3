"""The Apache benchmark (AB) analogue.

The paper configures AB to issue 100,000 keep-alive requests for a 1 KB
file; we run the same shape scaled down (the virtual clock makes ratios
size-independent).  Each concurrent client issues ``requests //
concurrency`` GETs over one keep-alive connection; any reply counts.
"""

from __future__ import annotations

from repro.workloads.scripted import Script, ScriptedClients, Step


class ApacheBench(ScriptedClients):
    """HTTP GET benchmark driver.  ``jitter_ns`` is think time per request
    (replay stream ``workload.ab.jitter``); with ``reconnect_stall_ns``
    set a stalled client retries over a fresh connect, real AB's
    timeout/retry posture, where None blocks forever."""

    def __init__(
        self,
        port: int,
        requests: int = 200,
        concurrency: int = 4,
        path: str = "/file1k.bin",
        reconnect_stall_ns: int = None,
        jitter_ns: int = 0,
    ) -> None:
        self.requests = requests
        self.concurrency = concurrency
        self.path = path
        self.reconnect_stall_ns = reconnect_stall_ns
        super().__init__(
            port, Script([Step(f"GET {path}")] * max(1, requests // concurrency)),
            concurrency, frame="ab_client", name="ab-{}".format,
            stall_ns=reconnect_stall_ns, jitter="workload.ab.jitter", jitter_ns=jitter_ns,
        )
