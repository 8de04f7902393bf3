#!/usr/bin/env python3
"""Quickstart: live-update the Listing-1 example server.

Walks the paper's §3 workflow end to end on the simulated machine:

1. build & run the MCR-enabled server (v1);
2. push some state into it from a client;
3. signal a live update to v2 (whose list-node type grows a field —
   the paper's Figure 2 transformation);
4. verify the state survived and the new code is serving.

Run:  python examples/quickstart.py
"""

from repro.kernel import Kernel, sim_function
from repro.mcr.ctl import McrCtl
from repro.mcr.libmcr import MCRSession
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import load_program
from repro.servers import simple
from repro.servers.common import PORT_SIMPLE
from repro.workloads.client import connect_with_retry, recv_line


@sim_function
def client(sys, commands, replies):
    fd = yield from connect_with_retry(sys, PORT_SIMPLE)
    for command in commands:
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        replies.append(line.decode().strip())
    yield from sys.close(fd)


def main() -> None:
    # --- build & run v1 -------------------------------------------------
    kernel = Kernel()
    simple.setup_world(kernel)
    program_v1 = simple.make_program(1)
    session = MCRSession(kernel, program_v1, BuildConfig.full())
    load_program(kernel, program_v1, build=BuildConfig.full(), session=session)

    print("== v1 serving ==")
    replies = []
    kernel.spawn_process(client, args=(["push 10", "push 20", "version"], replies))
    kernel.run(max_steps=200_000, until=lambda: len(replies) == 3)
    for reply in replies:
        print("  client <-", reply)

    ctl = McrCtl(kernel, session)
    print("\n== mcr-ctl status ==")
    for key, value in ctl.status().items():
        print(f"  {key}: {value}")

    # --- live update to v2 ----------------------------------------------
    print("\n== live update v1 -> v2 ==")
    result = ctl.live_update(simple.make_program(2))
    print(f"  committed: {result.committed}")
    print(f"  quiescence:        {result.quiescence_ns / 1e6:7.2f} ms")
    print(f"  control migration: {result.control_migration_ns / 1e6:7.2f} ms")
    print(f"  state transfer:    {result.transfer_ns / 1e6:7.2f} ms")
    print(f"  total:             {result.total_ms():7.2f} ms")

    # --- v2 serving with v1's state --------------------------------------
    print("\n== v2 serving (state transferred) ==")
    replies = []
    kernel.spawn_process(client, args=(["sum", "version", "push 5", "sum"], replies))
    kernel.run(max_steps=300_000, until=lambda: len(replies) == 4)
    for reply in replies:
        print("  client <-", reply)
    assert replies == ["sum 30", "version 2", "ok 3", "sum 35"]
    print("\nOK: the v1 list survived the update and v2 extends it.")


if __name__ == "__main__":
    main()
