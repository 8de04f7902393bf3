#!/usr/bin/env python3
"""Walk nginx through a whole release line without dropping a connection.

The paper evaluates 25 consecutive nginx updates (v0.8.54–v1.0.15); this
example live-updates the simulated nginx through several releases of its
series — including the type-changing ones — while a client keeps one
keep-alive connection open through *all* of them.

Run:  python examples/rolling_nginx_releases.py
"""

import repro
from repro.kernel import sim_function
from repro.mcr.ctl import McrCtl
from repro.servers.common import PORT_NGINX
from repro.workloads.client import connect_with_retry, recv_line

RELEASES = (2, 3, 4, 7, 8, 12, 13)  # 3, 7, 12 change structure layouts

state = {"stop": False, "log": []}


@sim_function
def long_lived_client(sys):
    """Holds one connection open across every update, polling STATS."""
    fd = yield from connect_with_retry(sys, PORT_NGINX)
    while not state["stop"]:
        yield from sys.send(fd, b"STATS\n")
        line = yield from recv_line(sys, fd)
        state["log"].append(line.decode().strip())
        yield from sys.nanosleep(30_000_000)
    yield from sys.close(fd)


def main() -> None:
    world = repro.boot("nginx")  # kernel + nginx v1 under the full MCR build
    kernel = world.kernel

    kernel.spawn_process(long_lived_client, name="poller")
    kernel.run(max_steps=300_000, until=lambda: len(state["log"]) >= 2)
    print("v1 serving:", state["log"][-1])

    ctl = McrCtl(kernel, world.session)
    for version in RELEASES:
        before = len(state["log"])
        result = ctl.live_update(world.make_program(version))
        if not result.committed:
            raise SystemExit(f"update to v{version} failed: {result.error}")
        kernel.run(max_steps=400_000, until=lambda: len(state["log"]) > before + 1)
        print(
            f"updated to v{version} in {result.total_ms():6.2f} ms "
            f"(transfer {result.transfer_ns / 1e6:5.2f} ms); "
            f"same connection now sees: {state['log'][-1]}"
        )
        assert state["log"][-1].endswith(f"v{version}")

    state["stop"] = True
    kernel.run(max_steps=400_000)
    total_polls = len(state["log"])
    print(f"\nOK: one connection survived {len(RELEASES)} live updates "
          f"({total_polls} polls, request counter never reset).")


if __name__ == "__main__":
    main()
