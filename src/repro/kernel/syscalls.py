"""Syscall requests, the cost model, and per-syscall semantics.

A simulated thread performs a syscall by yielding a ``SyscallRequest``; the
kernel looks its handler and cost up in ``SyscallTable.entries``.  A handler
returns either an immediate result or a ``Blocked`` marker carrying a
readiness predicate and what can make it true — the scheduler parks the
thread and polls the predicate when one of those changes (or the caller's
timeout runs out).

This module is *the* interception boundary of the reproduction: MCR's
dynamic instrumentation wraps requests before they reach the kernel
(recording, replay, unblockification), exactly as ``libmcr.so`` interposes
on libc in the paper.

The deterministic cost model (`BASE_COSTS`, nanoseconds of virtual time)
stands in for hardware timing; Table-3 style overhead ratios come from
instrumented builds charging extra work through the same clock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import BadFileDescriptor, SimError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Thread


class _Timeout:
    """Sentinel returned by timed blocking calls that expired."""

    def __repr__(self) -> str:
        return "TIMEOUT"

    def __bool__(self) -> bool:
        return False


TIMEOUT = _Timeout()


class SyscallRequest:
    """What a simulated thread yields to enter the kernel."""

    __slots__ = ("name", "args", "timeout_ns")

    def __init__(self, name: str, args: Optional[Dict[str, Any]] = None, timeout_ns: Optional[int] = None) -> None:
        self.name = name
        self.args = args or {}
        self.timeout_ns = timeout_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<syscall {self.name}({self.args})>"


class SlicedWait(SyscallRequest):
    """A blocking call issued in ``slice_ns`` timeout slices (MCR's
    unblockification): at each expiry the kernel re-arms it in place --
    ``waited_ns`` grows by the slice, ``rearm_ns`` is charged and
    ``rearm_counter`` counted -- and resumes the caller only with the
    call's result, or with TIMEOUT once ``divert(process)`` holds or
    ``caller_timeout_ns`` has run out."""

    __slots__ = (
        "slice_ns", "rearm_ns", "rearm_counter", "caller_timeout_ns", "waited_ns", "divert",
    )

    def __init__(
        self,
        name: str,
        args: Dict[str, Any],
        slice_ns: int,
        rearm_ns: int,
        rearm_counter: str,
        caller_timeout_ns: Optional[int],
        divert: Optional[Callable[[Any], bool]],
    ) -> None:
        self.name = name
        self.args = args
        self.timeout_ns = self.slice_ns = slice_ns
        self.rearm_ns = rearm_ns
        self.rearm_counter = rearm_counter
        self.caller_timeout_ns = caller_timeout_ns
        self.waited_ns = 0
        self.divert = divert

    def arm(self) -> bool:
        """Size the next slice; False when the caller's timeout ran out."""
        if self.caller_timeout_ns is None:
            return True  # every slice is ``slice_ns``
        self.timeout_ns = min(self.slice_ns, self.caller_timeout_ns - self.waited_ns)
        return self.timeout_ns > 0


class Blocked:
    """Handler result: park the thread until ``ready`` returns (True, v).

    ``channels`` names the kernel objects (each owning a
    ``process.WaitQueue``) whose state changes can make ``ready`` flip
    true; the scheduler parks the thread on them and re-polls only when
    one is kicked.

    ``wake_ns`` is an absolute virtual time at which ``ready`` is true
    (nanosleep): the scheduler polls the thread then, jumping the clock
    there when nothing else is runnable.

    A ``Blocked`` names at least one channel or a ``wake_ns``; the kernel
    refuses a park that names neither, since nothing would wake it.
    """

    __slots__ = ("ready", "reason", "wake_ns", "channels")

    def __init__(
        self,
        ready: Callable[[], Any],
        reason: str,
        wake_ns: Optional[int] = None,
        channels: tuple = (),
    ) -> None:
        self.ready = ready  # returns (is_ready, value)
        self.reason = reason
        self.wake_ns = wake_ns
        self.channels = channels


class ExitProcess:
    """Handler result: terminate the calling process."""

    __slots__ = ("status",)

    def __init__(self, status: int) -> None:
        self.status = status


class ReplaceImage:
    """Handler result: exec() replaced the process image."""

    __slots__ = ()


# Virtual-time cost of each syscall, in nanoseconds.  Values are ballpark
# figures for a 2014-era Linux box; only *ratios* matter for the evaluation.
BASE_COSTS: Dict[str, int] = {
    "socket": 2_000,
    "bind": 1_500,
    "listen": 1_500,
    "accept": 3_000,
    "connect": 6_000,
    "send": 2_000,
    "recv": 2_000,
    "close": 1_000,
    "epoll_create": 2_000,
    "epoll_ctl": 1_200,
    "epoll_wait": 1_500,
    "socketpair": 3_000,
    "sendmsg": 2_500,
    "recvmsg": 2_500,
    "open": 4_000,
    "read": 2_500,
    "write": 2_500,
    "stat": 1_000,
    "fork": 150_000,
    "exec": 250_000,
    "exit": 1_000,
    "wait_child": 1_000,
    "thread_create": 30_000,
    "getpid": 200,
    "nanosleep": 700,
    "cpu": 0,
    "barrier_wait": 500,
    "sched_yield": 300,
}


# Charged for a name with no ``BASE_COSTS`` entry — in particular for an
# unknown syscall, which costs a kernel entry before it fails.
DEFAULT_COST_NS = 1_000


class SyscallTable:
    """The syscall handlers and their costs; owned by the kernel.

    ``entries`` is the one ``name -> (handler, cost_ns)`` table:
    ``Kernel._step`` looks a request up in it once and adds the cost to the
    clock directly, so a negative cost is refused here, at construction.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.entries: Dict[str, Tuple[Callable, int]] = {}
        for attr in dir(self):
            if attr.startswith("sys_"):
                name = attr[len("sys_"):]
                cost_ns = BASE_COSTS.get(name, DEFAULT_COST_NS)
                if cost_ns < 0:
                    raise ValueError(f"negative cost for syscall {name}: {cost_ns}")
                self.entries[name] = (getattr(self, attr), cost_ns)

    def _install(self, thread: "Thread", obj: Any, reserved: bool) -> int:
        """Install a new descriptor.

        ``reserved`` is injected by the MCR runtime for *startup-time* fd
        creation: numbers come from the reserved (non-reusable) range at
        the end of the fd space, enforcing global separability (paper §5)
        — a startup descriptor number can never be reused, so replay can
        always tell which recorded operation an inherited number belongs
        to.
        """
        table = thread.process.fdtable
        if reserved:
            return table.install_reserved(obj)
        return table.install(obj)

    # -- network -------------------------------------------------------------

    def sys_socket(self, thread: "Thread", reserved: bool = False) -> int:
        sock = self.kernel.net.new_socket()
        return self._install(thread, sock, reserved)

    def sys_bind(self, thread: "Thread", fd: int, port: int) -> int:
        table = thread.process.fdtable
        sock = table.get(fd)
        if sock.kind != "socket":
            raise BadFileDescriptor(fd)
        listener = self.kernel.net.bind_listen(sock, port)
        # bind+listen collapsed into the bind object swap; listen() below
        # is then a no-op state check, which keeps fd identity stable.
        table.close(fd)
        table.install(listener, fd=fd)
        return 0

    def sys_listen(self, thread: "Thread", fd: int, backlog: int = 128) -> int:
        listener = thread.process.fdtable.get(fd)
        if listener.kind != "listener":
            raise BadFileDescriptor(fd)
        listener.backlog = backlog
        return 0

    def sys_accept(self, thread: "Thread", fd: int, reserved: bool = False) -> Any:
        listener = thread.process.fdtable.get(fd)
        if listener.kind != "listener":
            raise BadFileDescriptor(fd)

        def ready():
            if listener.can_accept():
                endpoint = listener.pop_connection()
                new_fd = self._install(thread, endpoint, reserved)
                return True, new_fd
            return False, None

        is_ready, value = ready()
        if is_ready:
            return value
        return Blocked(ready, f"accept:{listener.port}", channels=(listener,))

    def sys_connect(self, thread: "Thread", port: int, reserved: bool = False) -> int:
        endpoint = self.kernel.net.connect(port)
        return self._install(thread, endpoint, reserved)

    def sys_send(self, thread: "Thread", fd: int, data: bytes) -> int:
        endpoint = thread.process.fdtable.get(fd)
        if endpoint.kind != "stream":
            raise BadFileDescriptor(fd)
        return endpoint.send(bytes(data))

    def sys_recv(self, thread: "Thread", fd: int, size: int = 65536) -> Any:
        endpoint = thread.process.fdtable.get(fd)
        if endpoint.kind != "stream":
            raise BadFileDescriptor(fd)

        def ready():
            if endpoint.inbox:
                return True, endpoint.recv(size)
            if endpoint.peer_closed or endpoint.closed:
                return True, b""
            return False, None

        is_ready, value = ready()
        if is_ready:
            return value
        return Blocked(ready, f"recv:{endpoint.conn_id}", channels=(endpoint,))

    def sys_epoll_create(self, thread: "Thread", reserved: bool = False) -> int:
        epoll = self.kernel.net.new_epoll()
        return self._install(thread, epoll, reserved)

    def sys_epoll_ctl(self, thread: "Thread", epfd: int, op: str, fd: int) -> int:
        epoll = thread.process.fdtable.get(epfd)
        if epoll.kind != "epoll":
            raise BadFileDescriptor(epfd)
        if op == "add":
            epoll.add(fd, thread.process.fdtable.get(fd))
        elif op == "del":
            epoll.remove(fd)
        else:
            raise SimError(f"epoll_ctl: unknown op {op!r}")
        return 0

    def sys_epoll_wait(self, thread: "Thread", epfd: int) -> Any:
        epoll = thread.process.fdtable.get(epfd)
        if epoll.kind != "epoll":
            raise BadFileDescriptor(epfd)

        def ready():
            fds = epoll.ready_fds()
            if fds:
                return True, fds
            return False, None

        is_ready, value = ready()
        if is_ready:
            return value
        return Blocked(ready, "epoll_wait", channels=(epoll,))

    def sys_socketpair(self, thread: "Thread", reserved: bool = False) -> Any:
        a, b = self.kernel.net.socketpair()
        return (self._install(thread, a, reserved), self._install(thread, b, reserved))

    def sys_sendmsg(self, thread: "Thread", fd: int, data: bytes, pass_fds: Optional[List[int]] = None) -> int:
        endpoint = thread.process.fdtable.get(fd)
        if endpoint.kind != "unix":
            raise BadFileDescriptor(fd)
        objects = []
        for passed in pass_fds or []:
            objects.append(thread.process.fdtable.get(passed))
        endpoint.sendmsg(bytes(data), objects)
        return len(data)

    def sys_recvmsg(self, thread: "Thread", fd: int, install_reserved: bool = False) -> Any:
        """Receive (data, passed objects); install objects as fds.

        ``install_reserved`` installs them in the reserved (non-reusable)
        range instead — the MCR global-inheritance path stashes inherited
        descriptors there until replay claims them.
        """
        endpoint = thread.process.fdtable.get(fd)
        if endpoint.kind != "unix":
            raise BadFileDescriptor(fd)

        def ready():
            if not endpoint.readable():
                return False, None
            data, objects = endpoint.recvmsg()
            new_fds = []
            for obj in objects:
                acquire = getattr(obj, "acquire", None)
                if acquire is not None:
                    acquire()
                if install_reserved:
                    # Inheritance stash: its own fd region, disjoint from
                    # the reserved startup range, so stash numbers never
                    # collide with recorded startup fd numbers.
                    new_fds.append(thread.process.fdtable.install_stash(obj))
                    continue
                new_fds.append(thread.process.fdtable.install(obj))
            return True, (data, new_fds)

        is_ready, value = ready()
        if is_ready:
            return value
        return Blocked(ready, "recvmsg", channels=(endpoint,))

    def sys_close(self, thread: "Thread", fd: int) -> int:
        self.kernel.drop_reference(thread.process.fdtable.close(fd))
        return 0

    # -- filesystem ------------------------------------------------------------

    def sys_open(self, thread: "Thread", path: str, flags: str = "r", reserved: bool = False) -> int:
        open_file = self.kernel.fs.open(path, flags)
        return self._install(thread, open_file, reserved)

    def sys_read(self, thread: "Thread", fd: int, size: int = 65536) -> bytes:
        obj = thread.process.fdtable.get(fd)
        if obj.kind == "file":
            return obj.read(size)
        raise BadFileDescriptor(fd)

    def sys_write(self, thread: "Thread", fd: int, data: bytes) -> int:
        obj = thread.process.fdtable.get(fd)
        if obj.kind == "file":
            return obj.write(bytes(data))
        raise BadFileDescriptor(fd)

    def sys_stat(self, thread: "Thread", path: str) -> Any:
        size = self.kernel.fs.size(path)
        if size is None:
            return None
        return {"path": path, "size": size}

    # -- processes & threads -----------------------------------------------------

    def sys_fork(self, thread: "Thread", child_main: Callable, args: tuple = (), name: str = "") -> int:
        child = self.kernel.do_fork(thread, child_main, args, name)
        return child.pid

    def sys_exec(self, thread: "Thread", image_name: str, main: Callable, args: tuple = ()) -> Any:
        self.kernel.do_exec(thread, image_name, main, args)
        return ReplaceImage()

    def sys_exit(self, thread: "Thread", status: int = 0) -> ExitProcess:
        return ExitProcess(status)

    def sys_wait_child(self, thread: "Thread") -> Any:
        process = thread.process

        def ready():
            for child in process.children:
                if child.exited and not getattr(child, "_reaped", False):
                    child._reaped = True
                    return True, (child.pid, child.exit_status)
            return False, None

        is_ready, value = ready()
        if is_ready:
            return value
        return Blocked(ready, "wait_child", channels=(process,))

    def sys_thread_create(self, thread: "Thread", main: Callable, args: tuple = (), name: str = "thread") -> int:
        new_thread = self.kernel.do_thread_create(thread, main, args, name)
        return new_thread.tid

    def sys_getpid(self, thread: "Thread") -> int:
        return thread.process.pid

    # -- time & scheduling ----------------------------------------------------

    def sys_nanosleep(self, thread: "Thread", duration_ns: int) -> Any:
        deadline = self.kernel.clock.now_ns + duration_ns

        def ready():
            if self.kernel.clock.now_ns >= deadline:
                return True, None
            return False, None

        return Blocked(ready, "nanosleep", wake_ns=deadline)

    def sys_cpu(self, thread: "Thread", duration_ns: int) -> None:
        """Charge pure compute time to the virtual clock."""
        self.kernel.clock.advance(duration_ns)
        return None

    def sys_sched_yield(self, thread: "Thread") -> None:
        return None

    def sys_barrier_wait(self, thread: "Thread", barrier: Any) -> Any:
        thread.at_barrier = True
        thread.process.retally(0, 1, 0)
        barrier.arrived += 1

        def ready():
            if barrier.released:
                thread.at_barrier = False
                thread.process.retally(0, -1, 0)
                return True, None
            return False, None

        return Blocked(ready, "barrier", channels=(barrier,))
