"""``mcr-ctl``: the user-facing update trigger.

The paper's ``mcr-ctl`` tool signals the MCR backend of a running program
over a Unix domain socket.  Here the control channel is a direct handle on
the session, and the tool exposes the same operations: query status,
request a live update to a new version, and report the outcome.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.kernel.kernel import Kernel
from repro.mcr.config import MCRConfig
from repro.mcr.controller import LiveUpdateController, UpdateResult
from repro.mcr.libmcr import MCRSession
from repro.runtime.program import Program


class McrCtl:
    """Control-plane front end for one MCR-enabled program instance."""

    def __init__(self, kernel: Kernel, session: MCRSession) -> None:
        self.kernel = kernel
        self.session = session
        self.history: list = []

    def status(self) -> Dict[str, object]:
        """What ``mcr-ctl status`` would print."""
        session = self.session
        root = session.root_process
        tree = root.tree() if root is not None else []
        status: Dict[str, object] = {
            "program": session.program.name,
            "version": session.program.version,
            "phase": session.phase,
            "startup_complete": session.startup_complete,
            "processes": len(tree),
            "threads": sum(len(p.live_threads()) for p in tree),
            "startup_log_records": len(session.startup_log),
            "metadata_bytes": session.metadata_bytes(),
        }
        if self.history:
            last = self.history[-1]
            status["last_update"] = "committed" if last.committed else "rolled_back"
            status["last_update_failure_site"] = last.failure_site
            status["last_update_retries"] = last.retries
            if last.rolled_back:
                status["last_update_rollback_verified"] = last.rollback_verified
            if last.client is not None:
                client = last.client.to_dict()
                status["last_update_client_p99_ms"] = client["p99_ms"]
                status["last_update_blackout_ms"] = client["blackout_ms"]
                status["last_update_slo_ok"] = client["slo_ok"]
            if last.blackbox_path is not None:
                status["last_update_blackbox"] = last.blackbox_path
        return status

    def live_update(
        self,
        new_program: Program,
        config: Optional[MCRConfig] = None,
        collector=None,
    ) -> UpdateResult:
        """Signal a live update; returns when committed or rolled back.

        On success the ctl handle re-binds to the new version's session so
        successive updates can be chained (v1 -> v2 -> v3 ...).
        ``collector`` pins the update's observability output to one
        collector (a fleet node's own) instead of whatever is ambient.
        """
        controller = LiveUpdateController(
            self.kernel, self.session, new_program, config=config,
            collector=collector,
        )
        result = controller.run_update()
        self.history.append(result)
        if result.committed and result.new_session is not None:
            self.session = result.new_session
        return result
