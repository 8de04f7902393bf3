"""Simulated Apache httpd: multiprocess + multithreaded web server.

Captures the httpd properties the paper calls out:

* **worker-MPM structure**: a master process (``wait_child`` quiescent
  point) forks N server processes; each runs a listener thread
  (``epoll_wait`` QP) and K worker threads blocking on an in-process job
  queue (``recvmsg`` QP) implemented — as in Apache's fd queues — over a
  Unix socketpair, which is in-kernel state MCR inherits wholesale
  (in-flight jobs survive the update).
* **nested region allocation** (APR pools): per-connection state lives in
  pool memory, uninstrumented — the dominant source of likely pointers in
  Table 2, including pool pointers into static string tables.
* **"detects its own running instance"**: startup aborts when the pidfile
  exists.  The MCR-prepared build disables the check (the paper's 8-LOC
  preparation); building with ``mcr_prepared=False`` demonstrates the
  rollback this behaviour otherwise forces.
* a **volatile** thread class: a janitor thread spawned lazily on the
  first accepted connection, recreated after updates by a
  ``post_startup`` handler (part of the paper's 163-LOC extension).

Protocol: ``GET <path>`` (keep-alive) and ``SCORE`` (scoreboard dump).
"""

from __future__ import annotations

import struct as _struct
from typing import Dict, Optional

from repro.errors import SimError
from repro.kernel.process import sim_function
from repro.runtime.program import GlobalVar, Program
from repro.servers.common import PORT_HTTPD, parse_command
from repro.types.descriptors import (
    ArrayType,
    CHAR,
    FuncType,
    INT32,
    INT64,
    PointerType,
    StructType,
)

SERVER_PROCESSES = 2
WORKER_THREADS = 3
SCOREBOARD_SLOTS = 8
CONN_REC_SIZE = 64  # raw pool object: fd, requests, mime ptr, scratch
# Each server process's startup directive table: 256 entries of 512 bytes.
DIRECTIVES = tuple(f"directive-{index}".encode().ljust(64, b".") for index in range(256))


def make_types(version: int) -> Dict[str, object]:
    brigade_fields = [("length", INT32), ("flags", INT32), ("next", PointerType(None))]
    score_fields = [
        ("pid", INT32),
        ("state", INT32),
        ("access_count", INT64),
    ]
    if version >= 3:
        score_fields.append(("bytes_served", INT64))
    scoreboard_t = StructType("scoreboard_t", score_fields)
    stats_fields = [("requests", INT64), ("connections", INT64)]
    if version >= 4:
        stats_fields.append(("keepalives", INT64))
    httpd_stats_t = StructType("httpd_stats_t", stats_fields)
    bucket_t = StructType("bucket_t", brigade_fields)
    return {
        "scoreboard_t": scoreboard_t,
        "httpd_stats_t": httpd_stats_t,
        "bucket_t": bucket_t,
    }


def make_globals(types: Dict[str, object]) -> list:
    return [
        GlobalVar("httpd_listen_fd", INT32, init=-1),
        GlobalVar("httpd_scoreboard", ArrayType(types["scoreboard_t"], SCOREBOARD_SLOTS)),
        GlobalVar("httpd_stats", types["httpd_stats_t"]),
        GlobalVar("httpd_janitor_ticks", INT64),
        # Root pointer to the per-process pool hierarchy (ap_pglobal).
        GlobalVar("httpd_pool_root", PointerType(None, name="void*")),
        GlobalVar("mime_html", ArrayType(CHAR, 16), init=b"text/html"),
        GlobalVar("mime_bin", ArrayType(CHAR, 16), init=b"application/bin"),
        GlobalVar("server_banner", ArrayType(CHAR, 32), init=b"Apache-sim/2.2"),
        # Module hook table (ap_hook_* style): code pointers remapped by
        # function symbol across versions.
        GlobalVar("httpd_hooks", ArrayType(PointerType(FuncType("hook"), name="hook*"), 4)),
    ]


def _make_main(
    version: int,
    types: Dict[str, object],
    mcr_prepared: bool,
    server_processes: int = SERVER_PROCESSES,
):
    scoreboard_t = types["scoreboard_t"]
    httpd_stats_t = types["httpd_stats_t"]
    bucket_t = types["bucket_t"]

    @sim_function
    def httpd_janitor_loop(sys):
        crt = sys.process.crt
        while True:
            sys.loop_iter("janitor")
            yield from sys.nanosleep(50_000_000)
            crt.gset("httpd_janitor_ticks", crt.gget("httpd_janitor_ticks") + 1)

    @sim_function
    def httpd_janitor_main(sys):
        yield from httpd_janitor_loop(sys)

    @sim_function
    def httpd_handle_request(sys, conn_fd, conn_rec, pool, slot_index):
        crt = sys.process.crt
        data = yield from sys.recv(conn_fd)
        if not data:
            return False
        words = parse_command(data)
        stats = crt.global_addr("httpd_stats")
        crt.set(stats, httpd_stats_t, "requests",
                crt.get(stats, httpd_stats_t, "requests") + 1)
        slot = crt.global_addr("httpd_scoreboard") + slot_index * scoreboard_t.size
        crt.set(slot, scoreboard_t, "access_count",
                crt.get(slot, scoreboard_t, "access_count") + 1)
        hooks_addr = crt.global_addr("httpd_hooks")
        if sys.process.space.read_word(hooks_addr) == 0:
            sys.process.space.write_word(hooks_addr, crt.func_addr("httpd_handle_request"))
            sys.process.space.write_word(hooks_addr + 8, crt.func_addr("httpd_listener_loop"))
        space = sys.process.space
        space.write_word(conn_rec + 8, space.read_word(conn_rec + 8) + 1)  # requests++
        if not words:
            yield from sys.send(conn_fd, b"400 empty\n")
            return True
        if words[0] == "GET":
            path = words[1] if len(words) > 1 else "/index.html"
            full = "/srv/www" + path
            info = yield from sys.stat(full)
            if info is None:
                yield from sys.send(conn_fd, b"404 not found\n")
                return True
            fd = yield from sys.open(full)
            body = yield from sys.read(fd, info["size"])
            yield from sys.close(fd)
            # Bucket-brigade buffers: plain malloc (instrumented call
            # sites under +SInstr — the Table-3 httpd allocator cost).
            buckets = []
            for _ in range(4):
                bucket = crt.malloc_typed(sys.thread, bucket_t)
                crt.set(bucket, bucket_t, "length", len(body))
                buckets.append(bucket)
            for bucket in buckets:
                crt.free(bucket)
            # Per-request buffer from the connection pool (uninstrumented):
            # stores a pointer to the static mime table -> likely pointer.
            buf = crt.region_alloc_raw(pool._region, 48) if hasattr(pool, "_region") else pool.alloc(48)
            mime = "mime_html" if path.endswith(".html") else "mime_bin"
            space.write_word(buf, crt.global_addr(mime))
            space.write_word(buf + 8, conn_rec)
            if version >= 3:
                crt.set(slot, scoreboard_t, "bytes_served",
                        crt.get(slot, scoreboard_t, "bytes_served") + len(body))
            yield from sys.cpu(len(body) * 2)
            yield from sys.send(conn_fd, f"200 {len(body)}\n".encode() + body)
            return True
        if words[0] == "SCORE":
            total = crt.get(stats, httpd_stats_t, "requests")
            ticks = crt.gget("httpd_janitor_ticks")
            yield from sys.send(
                conn_fd, f"score requests={total} ticks={ticks} v{version}\n".encode()
            )
            return True
        yield from sys.send(conn_fd, b"400 bad\n")
        return True

    @sim_function
    def httpd_worker_loop(sys, job_rx, done_tx, conns, pools, proc_pool, slot_index):
        space = sys.process.space
        while True:
            sys.loop_iter("worker")
            data, _fds = yield from sys.recvmsg(job_rx)
            conn_fd = int(data)
            conn_rec = conns.get(conn_fd)
            pool = pools.get(conn_fd)
            if conn_rec is None or pool is None:
                # Connection restored across a live update: its fd (and
                # epoll registration) was inherited, but the new version
                # never saw the accept.  Materialize fresh pool state.
                pool = proc_pool.create_child(f"conn-{conn_fd}")
                conn_rec = pool.alloc(CONN_REC_SIZE)
                space.write_word(conn_rec, conn_fd)
                conns[conn_fd] = conn_rec
                pools[conn_fd] = pool
            try:
                keep = yield from httpd_handle_request(sys, conn_fd, conn_rec, pool, slot_index)
            except SimError:
                keep = False  # peer vanished mid-request (EPIPE)
            if keep:
                yield from sys.sendmsg(done_tx, f"ok:{conn_fd}".encode())
            else:
                yield from sys.close(conn_fd)
                pool.destroy()
                conns.pop(conn_fd, None)
                pools.pop(conn_fd, None)
                yield from sys.sendmsg(done_tx, f"closed:{conn_fd}".encode())

    @sim_function
    def httpd_worker_main(sys, job_rx, done_tx, conns, pools, proc_pool, slot_index):
        yield from httpd_worker_loop(sys, job_rx, done_tx, conns, pools, proc_pool, slot_index)

    @sim_function
    def httpd_listener_loop(sys, listen_fd, epoll_fd, job_tx, done_rx, conns, pools, proc_pool, state):
        crt = sys.process.crt
        while True:
            sys.loop_iter("listener")
            ready = yield from sys.epoll_wait(epoll_fd)
            if not isinstance(ready, list):
                continue
            for fd in ready:
                if fd == listen_fd:
                    # Non-blocking accept: both server processes poll the
                    # same listener (thundering herd); the loser gets
                    # EAGAIN (TIMEOUT here) and goes back to epoll.
                    conn_fd = yield from sys.accept(listen_fd, timeout_ns=100_000)
                    if not isinstance(conn_fd, int):
                        continue
                    pool = proc_pool.create_child(f"conn-{conn_fd}")
                    conn_rec = pool.alloc(CONN_REC_SIZE)
                    space = sys.process.space
                    space.write_word(conn_rec, conn_fd)
                    space.write_word(conn_rec + 16, crt.global_addr("server_banner"))
                    # Header-table entries (APR-style): small pool objects
                    # pointing at static strings and back at the conn_rec
                    # — the bulk of httpd's likely-pointer population.
                    for header_index in range(6):
                        entry = pool.alloc(32)
                        mime_name = "mime_html" if header_index % 2 == 0 else "mime_bin"
                        space.write_word(entry, crt.global_addr(mime_name))
                        space.write_word(entry + 8, conn_rec)
                    io_buf = pool.alloc(4 * 1024)
                    space.write_bytes(io_buf, b"\x41" * 1024)
                    conns[conn_fd] = conn_rec
                    pools[conn_fd] = pool
                    stats = crt.global_addr("httpd_stats")
                    crt.set(stats, httpd_stats_t, "connections",
                            crt.get(stats, httpd_stats_t, "connections") + 1)
                    yield from sys.epoll_ctl(epoll_fd, "add", conn_fd)
                    if not state.get("janitor_started"):
                        state["janitor_started"] = True
                        yield from sys.thread_create(httpd_janitor_main, name="janitor")
                    continue
                if fd == done_rx:
                    data, _fds = yield from sys.recvmsg(done_rx)
                    kind, _, num = data.decode().partition(":")
                    if kind == "ok":
                        yield from sys.epoll_ctl(epoll_fd, "add", int(num))
                    continue
                # Connection data: hand the fd to a worker thread.
                yield from sys.epoll_ctl(epoll_fd, "del", fd)
                yield from sys.sendmsg(job_tx, str(fd).encode())

    @sim_function
    def httpd_server_process(sys, listen_fd, proc_index):
        crt = sys.process.crt
        # Scoreboard slots are a fixed global array; scaled-up prefork
        # pools (bench scaling curves) share them round-robin.  Identity
        # for the default configuration (server_processes <= slots).
        slot_index = proc_index % SCOREBOARD_SLOTS
        slot = crt.global_addr("httpd_scoreboard") + slot_index * scoreboard_t.size
        pid = yield from sys.getpid()
        crt.set(slot, scoreboard_t, "pid", pid)
        crt.set(slot, scoreboard_t, "state", 1)
        proc_pool = crt.pool_create(name=f"proc-{proc_index}")
        crt.gset("httpd_pool_root", proc_pool.first_block_base)
        # Startup configuration tables (directives, mime maps): clean at
        # update time, re-created by the new version's own startup.
        proc_pool.alloc_table(512, DIRECTIVES)
        job_rx, job_tx = yield from sys.socketpair()
        done_rx, done_tx = yield from sys.socketpair()
        epoll_fd = yield from sys.epoll_create()
        yield from sys.epoll_ctl(epoll_fd, "add", listen_fd)
        yield from sys.epoll_ctl(epoll_fd, "add", done_rx)
        conns: Dict[int, int] = {}
        pools: Dict[int, object] = {}
        state: Dict[str, bool] = {}
        for index in range(WORKER_THREADS):
            yield from sys.thread_create(
                httpd_worker_main,
                args=(job_rx, done_tx, conns, pools, proc_pool, slot_index),
                name=f"worker-{index}",
            )
        yield from httpd_listener_loop(
            sys, listen_fd, epoll_fd, job_tx, done_rx, conns, pools, proc_pool, state
        )

    @sim_function
    def httpd_check_instance(sys):
        """Apache aborts when it detects its own running instance."""
        info = yield from sys.stat("/var/run/httpd.pid")
        if info is not None and not mcr_prepared:
            yield from sys.exit(1)
        pid = yield from sys.getpid()
        fd = yield from sys.open("/var/run/httpd.pid", "w")
        yield from sys.write(fd, str(pid).encode())
        yield from sys.close(fd)

    @sim_function
    def httpd_master_loop(sys):
        while True:
            sys.loop_iter("master")
            yield from sys.wait_child()

    @sim_function
    def httpd_main(sys):
        crt = sys.process.crt
        yield from httpd_check_instance(sys)
        cfg_fd = yield from sys.open("/etc/httpd.conf")
        raw = yield from sys.read(cfg_fd)
        yield from sys.close(cfg_fd)
        port = int(raw.decode().strip() or PORT_HTTPD)
        listen_fd = yield from sys.socket()
        yield from sys.bind(listen_fd, port)
        yield from sys.listen(listen_fd, 512)
        crt.gset("httpd_listen_fd", listen_fd)
        for index in range(server_processes):
            yield from sys.fork(
                httpd_server_process, args=(listen_fd, index), name=f"httpd-server-{index}"
            )
        yield from httpd_master_loop(sys)

    return httpd_main, httpd_janitor_main


def make_program(
    version: int = 1,
    mcr_prepared: bool = True,
    server_processes: Optional[int] = None,
) -> Program:
    """Build the httpd program.

    ``server_processes`` overrides the prefork pool size (default
    ``SERVER_PROCESSES``); the bench scaling curves use it to stand up
    hundreds-of-workers trees on the stock program.
    """
    types = make_types(version)
    if server_processes is None:
        server_processes = SERVER_PROCESSES
    main, janitor_main = _make_main(
        version, types, mcr_prepared, server_processes=server_processes
    )
    program = Program(
        name="httpd",
        version=str(version),
        globals_=make_globals(types),
        main=main,
        types=types,
        quiescent_points={
            ("httpd_master_loop", "wait_child"),
            ("httpd_listener_loop", "epoll_wait"),
            ("httpd_worker_loop", "recvmsg"),
            ("httpd_janitor_loop", "nanosleep"),
        },
        metadata={
            "port": PORT_HTTPD,
            "mcr_prepared": mcr_prepared,
            # Rolling-update hook: the prefork server pool, master excluded
            # (the janitor and master ride in the final remainder batch).
            "enumerate_workers": lambda root: [
                p for p in root.tree() if p.name.startswith("httpd-server-")
            ],
        },
        functions=[
            "httpd_main", "httpd_master_loop", "httpd_server_process",
            "httpd_listener_loop", "httpd_worker_loop", "httpd_handle_request",
            "httpd_janitor_loop", "httpd_check_instance",
        ],
    )
    program.metadata["janitor_main"] = janitor_main
    # Checkpoint-restore hook: threads that are not part of the
    # deterministic startup shape, keyed by name so the image restorer
    # can respawn them before validating the booted tree.
    program.metadata["volatile_thread_mains"] = {"janitor": janitor_main}
    if mcr_prepared:
        # The paper's 8 LOC (skip own-instance detection) + 10 LOC
        # (deterministic custom allocation behaviour).
        program.annotations.note_preparation_loc(18)
    # Volatile janitor-thread recreation (part of httpd's 163-LOC
    # extension to nonpersistent quiescent points).
    program.annotations.MCR_ADD_REINIT_HANDLER(
        restore_janitor_handler, stage="post_startup", loc=163
    )
    return program


def restore_janitor_handler(context) -> None:
    """Recreate janitor threads in paired new-version server processes."""
    program = context.new_session.program
    janitor_main = program.metadata["janitor_main"]
    for old_process in context.old_root.tree():
        for thread in old_process.live_threads():
            if thread.name != "janitor":
                continue
            new_process = context.paired_new_process(old_process)
            if new_process is None:
                continue
            already = any(t.name == "janitor" for t in new_process.live_threads())
            if not already:
                context.respawn_thread(new_process, janitor_main, (), thread)


def setup_world(kernel) -> None:
    kernel.fs.create("/etc/httpd.conf", str(PORT_HTTPD).encode())
    kernel.fs.create("/srv/www/index.html", b"<html>apache-sim</html>")
    kernel.fs.create("/srv/www/file1k.bin", b"A" * 1024)
    kernel.fs.create("/srv/www/big.bin", b"Z" * 4096)
