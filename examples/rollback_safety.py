#!/usr/bin/env python3
"""Atomic rollback: failed updates are invisible to clients.

Demonstrates the paper's reversibility guarantee on Apache httpd:

1. a *hostile* update — the new version still carries Apache's
   "detect my own running instance and abort" behaviour (no MCR
   preparation) — fails during control migration and rolls back;
2. a *conflicting* update — the running config was changed, so the
   recorded startup no longer matches — is flagged by mutable
   reinitialization and rolls back;
3. in both cases the old version resumes from its checkpoint and the
   same client connection keeps working;
4. the properly prepared update then commits.

Run:  python examples/rollback_safety.py
"""

import repro
from repro.kernel import sim_function
from repro.mcr.ctl import McrCtl
from repro.servers import httpd
from repro.workloads.client import connect_with_retry, recv_line


@sim_function
def one_get(sys, port, path, replies):
    fd = yield from connect_with_retry(sys, port)
    yield from sys.send(fd, f"GET {path}\n".encode())
    line = yield from recv_line(sys, fd)
    replies.append(line.decode().strip())
    yield from sys.close(fd)


def main() -> None:
    world = repro.boot("httpd")  # kernel + httpd v1 under the full MCR build
    kernel = world.kernel
    replies = []
    kernel.spawn_process(one_get, args=(80, "/index.html", replies))
    kernel.run(max_steps=600_000, until=lambda: len(replies) == 1)
    print("v1 serving:", replies[-1])
    ctl = McrCtl(kernel, world.session)

    # 1. The unprepared v2 aborts when it sees the running instance.
    print("\n-- attempt 1: unprepared v2 (aborts on own pidfile) --")
    result = ctl.live_update(httpd.make_program(2, mcr_prepared=False))
    print(f"   rolled back: {result.rolled_back}  ({result.error})")
    assert result.rolled_back

    kernel.spawn_process(one_get, args=(80, "/file1k.bin", replies))
    kernel.run(max_steps=600_000, until=lambda: len(replies) == 2)
    print("   v1 still serving:", replies[-1])

    # 2. A config change makes the recorded startup unmatchable.
    print("\n-- attempt 2: config changed under the server's feet --")
    kernel.fs.create("/etc/httpd.conf", b"8088")  # different port now
    result = ctl.live_update(httpd.make_program(2))
    print(f"   rolled back: {result.rolled_back}  ({result.error})")
    assert result.rolled_back
    kernel.fs.create("/etc/httpd.conf", b"80")  # restore

    kernel.spawn_process(one_get, args=(80, "/index.html", replies))
    kernel.run(max_steps=600_000, until=lambda: len(replies) == 3)
    print("   v1 still serving:", replies[-1])

    # 3. The prepared update commits.
    print("\n-- attempt 3: properly prepared v2 --")
    result = ctl.live_update(httpd.make_program(2))
    print(f"   committed: {result.committed} in {result.total_ms():.2f} ms")
    assert result.committed

    kernel.spawn_process(one_get, args=(80, "/big.bin", replies))
    kernel.run(max_steps=600_000, until=lambda: len(replies) == 4)
    print("   v2 serving:", replies[-1])
    print("\nOK: two failed attempts were invisible; the third committed.")


if __name__ == "__main__":
    main()
