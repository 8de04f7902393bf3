"""The pyftpdlib FTP benchmark analogue.

The paper allows 100 users retrieving a 1 MB file; we run the same shape
scaled down.  Each user logs in (USER/PASS), retrieves the file, and
quits — against our vsftpd, the fork-per-connection path on every user.
The retrievals are the operations; login and logout are only stamped.
"""

from __future__ import annotations

from repro.workloads.scripted import Script, ScriptedClients, Step


# The file every user retrieves: the paper's 1 MB download.
FILE_PATH = "/pub/file1m.bin"


class FtpBench(ScriptedClients):
    """FTP login + retrieve benchmark driver."""

    def __init__(
        self, port: int = 21, users: int = 10, retrievals: int = 2
    ) -> None:
        self.users = users
        self.retrievals = retrievals
        tail = [Step(f"RETR {FILE_PATH}", until="226")] * retrievals + [Step("QUIT", counted=False)]
        super().__init__(
            port,
            lambda index: Script(
                [Step(f"USER user{index}", "PASS secret", expect="230", counted=False)] + tail,
                banner=True,
            ),
            users, frame="ftp_user", name="ftp-user-{}".format,
        )
