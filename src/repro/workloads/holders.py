"""Connection holders: keep N client connections open across an update.

Figure 3 measures state-transfer time as a function of the number of open
connections at live-update time.  A ``ConnectionHolder`` connects N
clients, performs each protocol's minimal setup, then parks them until
released — the paper's "allowed a number of users to connect to our test
programs after completing the execution of our benchmarks".
"""

from __future__ import annotations

from repro.kernel.kernel import Kernel
from repro.workloads.scripted import Script, ScriptedClients, Step

SETUP = {
    # One request: the connection is accepted and registered server-side.
    "http": lambda index: Script([Step("GET /index.html")], park=True),
    # A login forks the session process; one retrieval leaves transfer
    # state (and its type-unsafe cached pointers) in it.
    "ftp": lambda index: Script(
        [Step(f"USER hold{index}", "PASS secret"), Step("RETR /pub/readme.txt", until="226")],
        banner=True, park=True,
    ),
    "ssh": lambda index: Script([Step(f"AUTH hold{index} pw")], banner=True, park=True),
}


class ConnectionHolder(ScriptedClients):
    """Opens and parks ``count`` connections of the given protocol kind."""

    def __init__(self, port: int, count: int, kind: str = "http") -> None:
        if kind not in SETUP:
            raise ValueError(f"unknown connection kind: {kind}")
        self.kind = kind
        self.clients = []
        super().__init__(
            port, SETUP[kind], count, frame="holder_client", name="hold-{}".format,
            connect_attempts=200,
        )

    def establish(self, kernel: Kernel, max_steps: int = 8_000_000) -> None:
        """Spawn the clients and run until every one is parked or gone."""
        self.clients = self(kernel)
        kernel.run(until=lambda: self.ready + self.stopped >= self.count, max_steps=max_steps)

    def finish(self, kernel: Kernel, max_steps: int = 2_000_000) -> None:
        self.release()
        kernel.run(until=lambda: all(c.exited for c in self.clients), max_steps=max_steps)
