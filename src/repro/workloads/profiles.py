"""Quiescence-profiling workloads (paper §8, "Engineering effort").

Three scripts, matching the paper's description:

* ``web_profile``  — "opens a number of long-lived HTTP connections and
  issues one HTTP request for a very large file in parallel";
* ``ssh_profile``  — "open[s] a number of long-lived SSH connections in
  authentication/post-authentication state";
* ``ftp_profile``  — long-lived FTP connections plus "one FTP request for
  a very large file in parallel".

Each must drive the server into every execution-stalling state that is a
legal quiescent state at update time, then let the clients exit so the
profiler can classify thread lifetimes.
"""

from __future__ import annotations

from typing import Callable, List

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.workloads.ftpbench import FILE_PATH
from repro.workloads.scripted import Script, ScriptedClients, Step

# How long idle connections stall the server before the script lets go:
# long enough to dominate every thread's blocking-time profile.
IDLE_HOLD_NS = 400_000_000
# Idle connections each profile parks beside its one active client.
IDLE_CLIENTS = 3

Workload = Callable[[Kernel], List[Process]]


def _parallel_profile(
    port: int, idle: Callable[[int], Script], active: Script
) -> Workload:
    """``IDLE_CLIENTS`` clients set up by ``idle`` and linger; one more runs
    ``active`` (the large transfer) and stays connected half as long."""

    def workload(kernel: Kernel) -> List[Process]:
        clients = dict(connect_attempts=200, stamped=False)
        return ScriptedClients(
            port, lambda index: idle(index)._replace(linger_ns=IDLE_HOLD_NS), IDLE_CLIENTS,
            frame="idle_client", name="profile-idle-{}".format, **clients,
        )(kernel) + ScriptedClients(
            port, active._replace(linger_ns=IDLE_HOLD_NS // 2),
            frame="active_client", name="profile-active".format, **clients,
        )(kernel)

    return workload


def web_profile(port: int, big_path: str = "/big.bin") -> Workload:
    return _parallel_profile(
        port, lambda index: Script([Step("GET /index.html")]), Script([Step(f"GET {big_path}")])
    )


def ftp_profile(port: int = 21) -> Workload:
    def login(user: str) -> Step:
        return Step(f"USER {user}", "PASS secret")

    return _parallel_profile(
        port,
        lambda index: Script([login(f"prof{index}")], banner=True),
        Script([login("active"), Step(f"RETR {FILE_PATH}", until="226")], banner=True),
    )


def ssh_profile(port: int = 22) -> Workload:
    # Post-authentication state for half the idle connections.
    return _parallel_profile(
        port,
        lambda index: Script([Step(f"AUTH prof{index} pw")] if index % 2 == 0 else [], banner=True),
        Script([Step("AUTH active pw"), Step("EXEC big-task")], banner=True),
    )
