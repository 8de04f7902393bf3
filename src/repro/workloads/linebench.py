"""Line-protocol driver for the command servers (simple, memcache).

Each client connects once and plays the scripted ``(line, expected reply
prefix)`` exchanges — AB's ``GET <path>`` shape only draws ``err
unknown`` from these protocols, which would make a probe vacuous.
Shared by the fault matrix and the record/replay scenario runner.
"""

from __future__ import annotations

from repro.workloads.scripted import Script, ScriptedClients, Step


class LineBench(ScriptedClients):
    """Scripted line-protocol exchange driver."""

    def __init__(self, port: int, script, clients: int = 1) -> None:
        self.clients = clients
        steps = [Step(line, expect=expect) for line, expect in script]
        super().__init__(
            port, Script(steps), clients, frame="line_client", name="line-{}".format
        )
