"""The OpenSSH built-in test-suite analogue.

Each test session authenticates, runs a handful of remote commands (each
of which makes the server fork+exec a helper), and disconnects.  The
commands are the operations; auth and logout are only stamped.
"""

from __future__ import annotations

from repro.workloads.scripted import Script, ScriptedClients, Step


class SshSuite(ScriptedClients):
    """SSH auth + exec test-suite driver."""

    def __init__(self, port: int = 22, sessions: int = 6, commands: int = 3) -> None:
        self.sessions = sessions
        self.commands = commands
        tail = [
            Step(f"EXEC test-step-{step}", expect="helper-output") for step in range(commands)
        ] + [Step("QUIT", counted=False)]
        super().__init__(
            port,
            lambda index: Script(
                [Step(f"AUTH tester{index} hunter2", expect="auth-ok", counted=False)] + tail,
                banner=True,
            ),
            sessions, frame="ssh_session", name="ssh-test-{}".format,
        )
