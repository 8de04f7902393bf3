"""Simulated nginx: rigorously event-driven master/worker web server.

Captures the properties the paper attributes to nginx:

* **Purely event-driven**: one persistent quiescent point per long-lived
  thread class (master's ``wait_child``, worker's ``epoll_wait``); no
  volatile quiescent points (Table 1: Per=2, Vol=0).
* **Custom allocators**: configuration and per-request state live in an
  nginx-style *region* (cycle pool) and connection slots in a *slab* —
  uninstrumented by default, so the objects are opaque to precise tracing
  and generate likely pointers (Table 2); building with
  ``instrument_regions`` (the ``nginx_reg`` configuration) tags region
  allocations instead.
* **Pointer encoding**: a global stores a heap pointer with metadata in
  its two least-significant bits — the real-world idiom that required a
  22-LOC annotation in the paper (handled by an object handler in
  ``servers.updates``).

Protocol: ``GET <path>`` returns the simulated file's contents;
``STATS`` returns the request counter; connections are keep-alive.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimError
from repro.kernel.process import sim_function
from repro.runtime.program import GlobalVar, Program
from repro.servers.common import PORT_NGINX, parse_command
from repro.types.descriptors import (
    ArrayType,
    CHAR,
    FuncType,
    INT32,
    INT64,
    PointerType,
    StructType,
    UINT64,
)

WORKER_CONNECTIONS = 64
# The cycle's startup locale table: 256 C strings in 512-byte entries.
LOCALES = tuple(f"locale-{index}:{'x' * 400}".encode() + b"\0" for index in range(256))


def make_types(version: int) -> Dict[str, object]:
    cycle_fields = [
        ("listen_fd", INT32),
        ("epoll_fd", INT32),
        ("worker_pid", INT32),
        ("connection_count", INT32),
        ("doc_root", PointerType(None, name="char*")),
    ]
    if version >= 3:
        cycle_fields.append(("keepalive_timeout", INT32))
    ngx_cycle_t = StructType("ngx_cycle_t", cycle_fields)
    conn_fields = [
        ("fd", INT32),
        ("requests", INT32),
        ("log", PointerType(None, name="char*")),
        ("buffer", PointerType(None, name="void*")),
    ]
    if version >= 7:
        conn_fields.append(("bytes_sent", INT64))
    ngx_connection_t = StructType("ngx_connection_t", conn_fields)
    stats_fields = [("requests", INT64), ("connections", INT64)]
    if version >= 12:
        stats_fields.append(("errors", INT64))
    ngx_stats_t = StructType("ngx_stats_t", stats_fields)
    return {
        "ngx_cycle_t": ngx_cycle_t,
        "ngx_connection_t": ngx_connection_t,
        "ngx_stats_t": ngx_stats_t,
    }


def make_globals(types: Dict[str, object]) -> list:
    return [
        GlobalVar("ngx_cycle", PointerType(types["ngx_cycle_t"], name="ngx_cycle_t*")),
        GlobalVar("ngx_stats", types["ngx_stats_t"]),
        # The pointer-encoding idiom: a pointer stored as an integer with
        # tag bits — to precise tracing this is just a pointer-sized int.
        GlobalVar("ngx_encoded_conf", UINT64),
        GlobalVar("ngx_banner", ArrayType(CHAR, 32), init=b"nginx-sim"),
        # Root pointers into the (custom-allocated) region memory: this is
        # what makes pool state reachable to GC-style tracing.
        GlobalVar("ngx_cycle_pool", PointerType(None, name="void*")),
        GlobalVar("ngx_conn_pool", PointerType(None, name="void*")),
        GlobalVar("ngx_conn_slots", ArrayType(INT32, WORKER_CONNECTIONS), init=[-1] * WORKER_CONNECTIONS),
        # Module dispatch pointer (nginx's handler-phase pointers): a code
        # pointer remapped by function symbol across versions.
        GlobalVar("ngx_request_handler", PointerType(FuncType("handler"), name="handler*")),
    ]


def _make_main(version: int, types: Dict[str, object], worker_processes: int = 1):
    ngx_cycle_t = types["ngx_cycle_t"]
    ngx_connection_t = types["ngx_connection_t"]
    ngx_stats_t = types["ngx_stats_t"]
    multi_worker = worker_processes > 1

    @sim_function
    def ngx_serve_request(sys, conn_fd, conn_addr, region):
        crt = sys.process.crt
        data = yield from sys.recv(conn_fd)
        if not data:
            return False
        words = parse_command(data)
        crt.set(conn_addr, ngx_connection_t, "requests",
                crt.get(conn_addr, ngx_connection_t, "requests") + 1)
        if crt.gget("ngx_request_handler") == 0:
            crt.gset("ngx_request_handler", crt.func_addr("ngx_serve_request"))
        stats_addr = crt.global_addr("ngx_stats")
        crt.set(stats_addr, ngx_stats_t, "requests",
                crt.get(stats_addr, ngx_stats_t, "requests") + 1)
        if not words:
            yield from sys.send(conn_fd, b"400 empty\n")
            return True
        if words[0] == "GET":
            path = words[1] if len(words) > 1 else "/index.html"
            cycle = crt.gget("ngx_cycle")
            doc_root = crt.read_cstr(crt.get(cycle, ngx_cycle_t, "doc_root"))
            full = doc_root + path
            info = yield from sys.stat(full)
            if info is None:
                yield from sys.send(conn_fd, b"404 not found\n")
                return True
            fd = yield from sys.open(full)
            body = yield from sys.read(fd, info["size"])
            yield from sys.close(fd)
            # nginx is pool-allocation-heavy per request: header entries,
            # buffer chain links, and the response buffer all come from a
            # request pool that dies with the request (this is what makes
            # the instrumented nginx_reg configuration the Table-3
            # outlier).
            request_region = crt.region_create(block_size=8192)
            for _ in range(10):
                crt.region_alloc_raw(request_region, 48)  # header/chain links
            buf = crt.region_alloc_raw(request_region, max(len(body) + 32, 64))
            header = f"200 {len(body)}\n".encode()
            sys.process.space.write_bytes(buf, header + body[: 4096 - len(header)])
            yield from sys.cpu(len(body) * 2)  # body processing cost
            yield from sys.send(conn_fd, header + body)
            crt.region_destroy(request_region)
            return True
        if words[0] == "STATS":
            total = crt.get(stats_addr, ngx_stats_t, "requests")
            yield from sys.send(conn_fd, f"stats {total} v{version}\n".encode())
            return True
        yield from sys.send(conn_fd, b"400 bad request\n")
        return True

    @sim_function
    def ngx_worker_cycle(sys, listen_fd, epoll_fd):
        crt = sys.process.crt
        if epoll_fd is None:
            # Multi-worker mode: each worker owns a private epoll (the
            # real nginx idiom), so sibling workers never share one
            # readiness queue; the shared listener is registered in each.
            epoll_fd = yield from sys.epoll_create()
            yield from sys.epoll_ctl(epoll_fd, "add", listen_fd)
        region = crt.region_create()
        crt.gset("ngx_conn_pool", region.first_block_base)
        slab = crt.slab_create()
        connections = {}  # fd -> connection object address (slab slot)
        while True:
            sys.loop_iter("worker")
            ready = yield from sys.epoll_wait(epoll_fd)
            if not isinstance(ready, list):
                continue
            for fd in ready:
                if fd == listen_fd:
                    if multi_worker:
                        # Thundering herd: every worker's epoll reports the
                        # shared listener; a bounded accept lets the losers
                        # return to their event loop.
                        conn_fd = yield from sys.accept(
                            listen_fd, timeout_ns=100_000
                        )
                        if not isinstance(conn_fd, int):
                            continue
                    else:
                        conn_fd = yield from sys.accept(listen_fd)
                    yield from sys.epoll_ctl(epoll_fd, "add", conn_fd)
                    conn = crt.region_alloc_typed(sys.thread, region, ngx_connection_t)
                    crt.set(conn, ngx_connection_t, "fd", conn_fd)
                    crt.set(conn, ngx_connection_t, "log", crt.global_addr("ngx_banner"))
                    # Per-connection read buffer from the *slab* allocator:
                    # never instrumented (the paper's prototype does not
                    # support slabs), so these stay conservative even in
                    # the nginx_reg configuration.
                    read_buf = slab.alloc(128)
                    crt.set(conn, ngx_connection_t, "buffer", read_buf)
                    sys.process.space.write_word(read_buf, conn)
                    sys.process.space.write_word(read_buf + 8, crt.global_addr("ngx_banner"))
                    # Bulk per-connection I/O buffer: live heap state that
                    # grows transfer time with the connection count (Fig 3).
                    bulk = crt.region_alloc_raw(region, 4 * 1024)
                    sys.process.space.write_bytes(bulk, b"\x5a" * 1024)
                    connections[conn_fd] = conn
                    slots = crt.gget("ngx_conn_slots")
                    for index, slot in enumerate(slots):
                        if slot < 0:
                            slots[index] = conn_fd
                            break
                    crt.gset("ngx_conn_slots", slots)
                    stats_addr = crt.global_addr("ngx_stats")
                    crt.set(stats_addr, ngx_stats_t, "connections",
                            crt.get(stats_addr, ngx_stats_t, "connections") + 1)
                    continue
                conn = connections.get(fd)
                if conn is None:
                    conn = crt.region_alloc_typed(sys.thread, region, ngx_connection_t)
                    crt.set(conn, ngx_connection_t, "fd", fd)
                    connections[fd] = conn
                try:
                    keep = yield from ngx_serve_request(sys, fd, conn, region)
                except SimError:
                    keep = False  # peer vanished mid-request (EPIPE)
                if not keep:
                    yield from sys.epoll_ctl(epoll_fd, "del", fd)
                    yield from sys.close(fd)
                    connections.pop(fd, None)
                    slots = crt.gget("ngx_conn_slots")
                    crt.gset("ngx_conn_slots", [(-1 if s == fd else s) for s in slots])

    @sim_function
    def ngx_worker_main(sys, listen_fd, epoll_fd):
        yield from ngx_worker_cycle(sys, listen_fd, epoll_fd)

    @sim_function
    def ngx_master_cycle(sys):
        while True:
            sys.loop_iter("master")
            yield from sys.wait_child()

    @sim_function
    def ngx_init_cycle(sys):
        crt = sys.process.crt
        cfg_fd = yield from sys.open("/etc/nginx.conf")
        raw = yield from sys.read(cfg_fd)
        yield from sys.close(cfg_fd)
        conf = dict(
            line.split("=", 1) for line in raw.decode().splitlines() if "=" in line
        )
        port = int(conf.get("port", PORT_NGINX))
        listen_fd = yield from sys.socket()
        yield from sys.bind(listen_fd, port)
        yield from sys.listen(listen_fd, 512)
        epoll_fd = yield from sys.epoll_create()
        yield from sys.epoll_ctl(epoll_fd, "add", listen_fd)
        # The cycle structure lives in a region (the cycle pool):
        # uninstrumented by default -> opaque to precise tracing.
        region = crt.region_create()
        cycle = crt.region_alloc_typed(sys.thread, region, ngx_cycle_t)
        crt.gset("ngx_cycle_pool", region.first_block_base)
        crt.set(cycle, ngx_cycle_t, "listen_fd", listen_fd)
        crt.set(cycle, ngx_cycle_t, "epoll_fd", epoll_fd)
        doc_root = crt.strdup(sys.thread, conf.get("root", "/srv/www"))
        crt.set(cycle, ngx_cycle_t, "doc_root", doc_root)
        if version >= 3:
            crt.set(cycle, ngx_cycle_t, "keepalive_timeout", int(conf.get("keepalive", 65)))
        # Startup configuration tables: the bulk state that mutable
        # reinitialization re-creates for free (clean at update time, so
        # dirty tracking skips it -- the paper's 68-86% reduction).
        crt.region_alloc_table(region, 512, LOCALES)
        crt.gset("ngx_cycle", cycle)
        # Pointer-encoding idiom: conf pointer | 0b01 in a uint64 global.
        crt.gset("ngx_encoded_conf", cycle | 0x1)
        return listen_fd, epoll_fd, cycle

    @sim_function
    def ngx_daemonize(sys, worker_body):
        """fork-and-exit daemonization (the short-lived thread class)."""
        pid = yield from sys.fork(worker_body, name="nginx-daemon")
        return pid

    @sim_function
    def nginx_main(sys):
        @sim_function
        def daemon_body(sys2):
            crt = sys2.process.crt
            listen_fd, epoll_fd, cycle = yield from ngx_init_cycle(sys2)
            if multi_worker:
                worker_pid = 0
                for worker_index in range(worker_processes):
                    worker_pid = yield from sys2.fork(
                        ngx_worker_main,
                        args=(listen_fd, None),
                        name=f"nginx-worker-{worker_index}",
                    )
            else:
                worker_pid = yield from sys2.fork(
                    ngx_worker_main, args=(listen_fd, epoll_fd), name="nginx-worker"
                )
            crt.set(cycle, ngx_cycle_t, "worker_pid", worker_pid)
            yield from ngx_master_cycle(sys2)

        yield from ngx_daemonize(sys, daemon_body)
        yield from sys.exit(0)

    return nginx_main


def _enumerate_workers(root) -> list:
    """Rolling-update hook: worker processes in fork order, master excluded."""
    return [p for p in root.tree() if p.name.startswith("nginx-worker")]


def make_program(
    version: int = 1,
    instrument_regions: bool = False,
    worker_processes: int = 1,
) -> Program:
    types = make_types(version)
    program = Program(
        name="nginx",
        version=str(version),
        globals_=make_globals(types),
        main=_make_main(version, types, worker_processes=worker_processes),
        types=types,
        quiescent_points={
            ("ngx_worker_cycle", "epoll_wait"),
            ("ngx_master_cycle", "wait_child"),
        },
        metadata={
            "port": PORT_NGINX,
            "instrument_regions": instrument_regions,
            "worker_processes": worker_processes,
            "enumerate_workers": _enumerate_workers,
        },
        functions=[
            "ngx_init_cycle", "ngx_master_cycle", "ngx_worker_cycle",
            "ngx_serve_request", "nginx_main",
        ],
    )
    # "nginx required 22 LOC to annotate a number of global pointers using
    # special data encoding — storing metadata in the 2 least significant
    # bits" (paper §8): decode the tagged cycle pointer precisely.
    program.annotations.MCR_ANNOTATE_ENCODED_POINTER("ngx_encoded_conf", tag_bits=0x3, loc=22)
    return program


def setup_world(kernel) -> None:
    kernel.fs.create("/etc/nginx.conf", b"port=8081\nroot=/srv/www\nkeepalive=65\n")
    kernel.fs.create("/srv/www/index.html", b"<html>hello nginx</html>")
    kernel.fs.create("/srv/www/big.bin", b"B" * 4096)
    kernel.fs.create("/srv/www/file1k.bin", b"K" * 1024)
