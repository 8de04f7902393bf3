#!/usr/bin/env python3
"""Semantic state transformation: when automation isn't enough.

A memcached-style cache is live-updated to a release that adds a per-entry
integrity checksum which the new code *verifies on every read*.  Mutable
tracing happily transfers the entries and default-initializes the new
field — and every cached value then reads back CORRUPT.  The shipped
``MCR_ADD_OBJ_HANDLER`` on the entry type derives the checksum during
transfer; with it the whole cache survives.

This is the paper's "state transfer code" category (793 LOC across their
40 updates): transformations whose *meaning* no tracer can infer.

Run:  python examples/cache_semantic_update.py
"""

import repro
from repro.kernel import sim_function
from repro.servers import memcache
from repro.workloads.client import connect_with_retry, recv_line


@sim_function
def client(sys, commands, replies):
    fd = yield from connect_with_retry(sys, memcache.PORT_MEMCACHE)
    for command in commands:
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        replies.append(line.decode().strip())
    yield from sys.close(fd)


def talk(world, commands):
    replies = []
    world.kernel.spawn_process(client, args=(commands, replies))
    world.kernel.run(max_steps=500_000, until=lambda: len(replies) == len(commands))
    return replies


def run_scenario(with_handler: bool):
    world = repro.boot("memcache")
    talk(world, [f"SET user:{i} payload-{i}" for i in range(5)])
    print(f"  cached 5 entries under v1; updating to v3 "
          f"({'with' if with_handler else 'WITHOUT'} the ST handler)...")
    program_v3 = memcache.make_program(3, with_st_handler=with_handler)
    result = repro.live_update(world, program=program_v3)
    assert result.committed, result.error
    replies = talk(world, ["GET user:0", "GET user:3", "NSTATS"])
    for reply in replies:
        print(f"    v3 replies: {reply}")
    return replies


def main() -> None:
    print("== scenario A: automated transfer only ==")
    replies = run_scenario(with_handler=False)
    assert replies[0] == replies[1] == "CORRUPT"
    print("  -> transferred entries fail the new integrity check.\n")

    print("== scenario B: with the semantic MCR_ADD_OBJ_HANDLER ==")
    replies = run_scenario(with_handler=True)
    assert replies[0] == "VALUE payload-0"
    assert replies[1] == "VALUE payload-3"
    print("  -> the handler derived every checksum during transfer.")
    print("\nOK: semantic transformations need user code; MCR gives it a hook.")


if __name__ == "__main__":
    main()
