#!/usr/bin/env python3
"""Per-connection FTP sessions (whole processes) survive a live update.

vsftpd forks one process per connection; at update time those session
processes hold the paper's hardest state: in-kernel connection fds plus
per-process session structures.  This example logs three users in,
transfers a file, live-updates to a release whose session structure has a
*new field*, and shows every session continuing — still authenticated,
byte counters intact — inside freshly recreated v2 processes.

Run:  python examples/ftp_sessions_survive.py
"""

import repro
from repro.kernel import sim_function
from repro.mcr.ctl import McrCtl
from repro.servers.common import PORT_VSFTPD
from repro.workloads.client import connect_with_retry, recv_line

USERS = ("alice", "bob", "carol")
gate = {"go": False}
pre = {user: [] for user in USERS}
post = {user: [] for user in USERS}


@sim_function
def ftp_user(sys, user):
    fd = yield from connect_with_retry(sys, PORT_VSFTPD)
    yield from recv_line(sys, fd)  # banner
    for command in (f"USER {user}", "PASS pw", "RETR /pub/readme.txt"):
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        pre[user].append(line.decode().strip()[:40])
    while not gate["go"]:
        yield from sys.nanosleep(10_000_000)
    # After the update: same socket, same session, new server version.
    for command in ("STAT", "RETR /pub/readme.txt", "STAT"):
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        post[user].append(line.decode().strip()[:60])
    yield from sys.send(fd, b"QUIT\n")
    yield from sys.close(fd)


def main() -> None:
    world = repro.boot("vsftpd")  # kernel + vsftpd v1 under the full MCR build
    kernel, session = world.kernel, world.session

    for user in USERS:
        kernel.spawn_process(ftp_user, args=(user,), name=f"ftp-{user}")
    kernel.run(max_steps=900_000, until=lambda: all(len(v) == 3 for v in pre.values()))
    print("== sessions established under v1 ==")
    for user in USERS:
        print(f"  {user}: {pre[user]}")

    tree = session.root_process.tree()
    print(f"\nprocess tree before update: "
          f"{[(p.name, p.pid) for p in tree]}")

    ctl = McrCtl(kernel, session)
    result = ctl.live_update(world.make_program(3))  # v3 grows the session
    if not result.committed:
        raise SystemExit(f"update failed: {result.error}")
    print(f"\nlive update committed in {result.total_ms():.2f} ms "
          f"(sessions recreated by the post-startup reinit handler)")
    print(f"process tree after update:  "
          f"{[(p.name, p.pid) for p in result.new_root.tree()]}")

    gate["go"] = True
    kernel.run(max_steps=900_000, until=lambda: all(len(v) == 3 for v in post.values()))
    print("\n== same connections against v3 ==")
    for user in USERS:
        print(f"  {user}: {post[user]}")
        assert f"user={user}" in post[user][0]
        assert "sent=22" in post[user][0]   # v1's byte counter survived
        assert post[user][2].endswith("v3")
        assert "sent=44" in post[user][2]   # and keeps counting under v3
    print("\nOK: all three forked sessions survived the update.")


if __name__ == "__main__":
    main()
