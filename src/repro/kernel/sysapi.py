"""The per-thread system API that simulated programs call.

``Sys`` is the "libc" of the simulated machine: every syscall method
returns a generator that yields ``SyscallRequest``s (to be driven by the
kernel via ``yield from``).  That generator is ``_invoke``, the one place
that decides whether a call is intercepted: when the owning process has an
MCR runtime attached (``libmcr.so`` preloaded, in paper terms) and the
runtime has something to do for this call — startup recording, replay,
unblockification — the request is routed through it first; in steady
state, away from quiescent points, it goes straight to the kernel.

The non-yielding ``loop_iter`` marks a loop iteration for the quiescence
profiler.  The bookkeeping exists only in a profiling run: the profiler
keeps it for the kernel it profiles, and everywhere else an iteration
costs one attribute test.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kernel.process import Thread
from repro.kernel.syscalls import SyscallRequest


class Sys:
    """System interface bound to one simulated thread."""

    def __init__(self, thread: Thread) -> None:
        self.thread = thread
        self.process = thread.process  # a thread never changes process

    @property
    def kernel(self):
        return self.process.kernel

    # -- the interception funnel ------------------------------------------------

    def _invoke(self, name: str, args: Dict[str, Any], timeout_ns: Optional[int] = None):
        """Issue one syscall, through ``libmcr`` when it has work to do.

        ``MCRRuntime.intercept`` acts on a call only while its session is
        starting up (record / replay / reserved fds) or, afterwards, at a
        quiescent point of an unblockified build; every other call it would
        pass through unchanged, so those skip it and cost one generator
        between the program and the kernel.
        """
        runtime = self.process.runtime
        if runtime is not None:
            program = runtime.process.program
            if not runtime.session.startup_complete or (
                runtime.build.unblockify
                and program is not None
                and (self.thread.top_function(), name) in program.quiescent_points
            ):
                return (yield from runtime.intercept(self, name, args, timeout_ns))
        return (yield SyscallRequest(name, args, timeout_ns))

    def raw(self, name: str, args: Dict[str, Any], timeout_ns: Optional[int] = None):
        """Issue a syscall bypassing MCR interception (runtime-internal)."""
        result = yield SyscallRequest(name, args, timeout_ns)
        return result

    # -- network ---------------------------------------------------------------

    def socket(self):
        return self._invoke("socket", {})

    def bind(self, fd: int, port: int):
        return self._invoke("bind", {"fd": fd, "port": port})

    def listen(self, fd: int, backlog: int = 128):
        return self._invoke("listen", {"fd": fd, "backlog": backlog})

    def accept(self, fd: int, timeout_ns: Optional[int] = None):
        return self._invoke("accept", {"fd": fd}, timeout_ns)

    def connect(self, port: int):
        return self._invoke("connect", {"port": port})

    def send(self, fd: int, data: bytes):
        return self._invoke("send", {"fd": fd, "data": data})

    def recv(self, fd: int, size: int = 65536, timeout_ns: Optional[int] = None):
        return self._invoke("recv", {"fd": fd, "size": size}, timeout_ns)

    def epoll_create(self):
        return self._invoke("epoll_create", {})

    def epoll_ctl(self, epfd: int, op: str, fd: int):
        return self._invoke("epoll_ctl", {"epfd": epfd, "op": op, "fd": fd})

    def epoll_wait(self, epfd: int, timeout_ns: Optional[int] = None):
        return self._invoke("epoll_wait", {"epfd": epfd}, timeout_ns)

    def socketpair(self):
        return self._invoke("socketpair", {})

    def sendmsg(self, fd: int, data: bytes, pass_fds: Optional[List[int]] = None):
        return self._invoke("sendmsg", {"fd": fd, "data": data, "pass_fds": pass_fds})

    def recvmsg(self, fd: int, timeout_ns: Optional[int] = None):
        return self._invoke("recvmsg", {"fd": fd}, timeout_ns)

    def close(self, fd: int):
        return self._invoke("close", {"fd": fd})

    # -- filesystem -------------------------------------------------------------

    def open(self, path: str, flags: str = "r"):
        return self._invoke("open", {"path": path, "flags": flags})

    def read(self, fd: int, size: int = 65536):
        return self._invoke("read", {"fd": fd, "size": size})

    def write(self, fd: int, data: bytes):
        return self._invoke("write", {"fd": fd, "data": data})

    def stat(self, path: str):
        return self._invoke("stat", {"path": path})

    # -- processes & threads -------------------------------------------------------

    def fork(self, child_main: Callable, args: Tuple = (), name: str = ""):
        return self._invoke(
            "fork", {"child_main": child_main, "args": args, "name": name}
        )

    def exec(self, image_name: str, main: Callable, args: Tuple = ()):
        return self._invoke(
            "exec", {"image_name": image_name, "main": main, "args": args}
        )

    def exit(self, status: int = 0):
        return self._invoke("exit", {"status": status})

    def wait_child(self, timeout_ns: Optional[int] = None):
        return self._invoke("wait_child", {}, timeout_ns)

    def thread_create(self, main: Callable, args: Tuple = (), name: str = "thread"):
        return self._invoke("thread_create", {"main": main, "args": args, "name": name})

    def getpid(self):
        return self._invoke("getpid", {})

    # -- time / compute -----------------------------------------------------------

    def nanosleep(self, duration_ns: int):
        return self._invoke("nanosleep", {"duration_ns": duration_ns})

    def cpu(self, duration_ns: int):
        """Model pure computation taking ``duration_ns`` of virtual time."""
        return self._invoke("cpu", {"duration_ns": duration_ns})

    def sched_yield(self):
        return self._invoke("sched_yield", {})

    # -- loop bookkeeping (profiler input; no kernel involvement) ------------------

    def loop_iter(self, loop_name: str) -> None:
        """Mark one iteration of a named loop in the current function.

        Recorded only when a ``QuiescenceProfiler`` owns the kernel; a
        no-op otherwise.
        """
        profiler = self.process.kernel.profiler
        if profiler is not None:
            profiler.on_loop_iter(self.thread, loop_name)
