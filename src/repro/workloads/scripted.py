"""The one client driver: every workload's client loop, written once.

A script is data.  A ``Step`` sends its lines, reading a reply after
each, and is one latency sample; its last reply must start with
``expect`` (``until`` first keeps receiving until a chunk carries that
marker: FTP's ``226``).  A ``Script`` may add a banner read after every
connect, a park-until-released tail and a fixed linger before closing.
Every client in the tree is a ``ScriptedClients``: the benchmarks, the
holders, the §8 profiling scripts, the fleet node's requests and its
version probe.

Accounting: ``sent`` is the counted steps of every spawned client, and
each ends ``completed`` or charged to ``errors``.  Under a stall bound a
failed step retries over a fresh connect (up to ``MAX_RETRIES`` times)
and still counts once; otherwise, or once retries run out, the client
stops and is charged every counted step it did not complete.

Black boxes name a client by its process name and by the frame it
blocks in (``sched.wake`` sites are ``call_stack[-1]:syscall``), so both
are parameters, and every syscall is issued from the one frame ``frame``
rather than from a helper ``sim_function``.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Union

from repro.errors import SimError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.replay import rng as replay_rng
from repro.workloads.client import ClientLatencyLog, connect_with_retry

MAX_RETRIES = 100
PARK_POLL_NS = 20_000_000  # how often a parked client looks for its release


class Step:
    """One exchange; only ``counted`` steps are operations (a login or a
    logout is stamped, not counted)."""

    __slots__ = ("lines", "expect", "until", "counted")

    def __init__(
        self, *lines: str, expect: str = "", until: Optional[str] = None,
        counted: bool = True,
    ) -> None:
        self.lines = tuple((line + "\n").encode() for line in lines)
        self.expect = expect.encode()
        self.until = until.encode() if until else None
        self.counted = counted


class Script(NamedTuple):
    steps: Sequence[Step]
    banner: bool = False  # the server greets first
    park: bool = False  # hold the connection until ``release``
    linger_ns: int = 0  # then stay connected this long


class ScriptedClients:
    """Spawns clients that each play a ``Script``; counts what they saw.

    ``script`` is one ``Script``, or a function from a client's index to
    its own; ``name`` maps the index to the process name.  ``jitter_ns``
    sleeps a uniform 0..jitter_ns before each step, drawn from the named
    replay stream ``jitter``.  ``timed_from_connect`` starts the first
    sample before the connect; ``stamped=False`` records no latency.
    """

    def __init__(
        self,
        port: int,
        script: Union[Script, Callable[[int], Script]],
        count: int = 1,
        *,
        frame: str,
        name: Callable[[int], str],
        stall_ns: Optional[int] = None,
        jitter: str = "",
        jitter_ns: int = 0,
        timed_from_connect: bool = False,
        connect_attempts: int = 50,
        stamped: bool = True,
    ) -> None:
        self.port = port
        self.script = script if callable(script) else (lambda _index: script)
        self.count = count
        self.frame = frame
        self.name = name
        self.stall_ns = stall_ns
        self.jitter = jitter
        self.jitter_ns = jitter_ns
        self.timed_from_connect = timed_from_connect
        self.connect_attempts = connect_attempts
        self.latency = ClientLatencyLog() if stamped else None
        self.spawned = self.sent = self.completed = self.errors = self.reconnects = 0
        self.ready = 0  # clients that played every step
        self.stopped = 0  # clients that gave up before their last step
        self.released = False
        self.last_reply: Optional[bytes] = None
        self._jitter = None

    @property
    def latencies_ns(self) -> List[int]:
        return self.latency.latencies_ns()

    def __call__(self, kernel: Kernel) -> List[Process]:
        """Spawn ``count`` clients; they run when the kernel next does."""
        self._jitter = replay_rng.stream(self.jitter) if self.jitter_ns else None
        return self.spawn(kernel, self.count)

    def spawn(self, kernel: Kernel, count: int) -> List[Process]:
        clients = []
        for index in range(self.spawned, self.spawned + count):
            script = self.script(index)
            self.sent += sum(step.counted for step in script.steps)
            clients.append(
                kernel.spawn_process(self._client, args=(script,), name=self.name(index))
            )
        self.spawned += count
        return clients

    def run(self, kernel: Kernel, max_steps: int = 5_000_000) -> int:
        """Drive to completion; returns elapsed virtual ns."""
        start_ns = kernel.clock.now_ns
        clients = self(kernel)
        kernel.run(until=lambda: all(c.exited for c in clients), max_steps=max_steps)
        return kernel.clock.now_ns - start_ns

    def release(self) -> None:
        self.released = True

    def _stop(self, script: Script, done: int) -> None:
        self.stopped += 1
        self.errors += sum(step.counted for step in script.steps[done:])

    def _connect(self, sys, banner: bool):
        """A fresh connection, or None.  A plain generator, not a
        ``sim_function``: the banner read blocks in the client's frame."""
        try:
            fd = yield from connect_with_retry(sys, self.port, attempts=self.connect_attempts)
        except SimError:
            return None
        if banner:
            yield from sys.recv(fd, timeout_ns=self.stall_ns)
        return fd

    def _client(self, sys, script: Script):
        stack = sys.thread.call_stack
        stack.append(self.frame)
        try:
            clock = sys.kernel.clock
            stall_ns, jitter, log = self.stall_ns, self._jitter, self.latency
            first_start = clock.now_ns if self.timed_from_connect else None
            fd = yield from self._connect(sys, script.banner)
            if fd is None:
                self._stop(script, 0)
                return
            for done, step in enumerate(script.steps):
                if jitter is not None:
                    yield from sys.nanosleep(jitter.randint(0, self.jitter_ns))
                start = clock.now_ns if first_start is None else first_start
                first_start = None
                attempts = 0
                while True:
                    try:
                        for line in step.lines:
                            yield from sys.send(fd, line)
                            reply = yield from sys.recv(fd, timeout_ns=stall_ns)
                        while step.until and reply and step.until not in reply:
                            reply = yield from sys.recv(fd, timeout_ns=stall_ns)
                    except SimError:
                        reply = None
                    # bytes, or falsy: None, b"" (EOF), TIMEOUT.
                    if reply and reply.startswith(step.expect):
                        break
                    if stall_ns is None or attempts == MAX_RETRIES:
                        self._stop(script, done)
                        yield from sys.close(fd)
                        return
                    # Stalled or dropped mid-update: a fresh connect lands
                    # on whichever worker is live.
                    attempts += 1
                    self.reconnects += 1
                    yield from sys.close(fd)
                    fd = yield from self._connect(sys, script.banner)
                    if fd is None:
                        self._stop(script, done)
                        return
                self.last_reply = reply
                self.completed += step.counted
                if log is not None:
                    log.record(start, clock.now_ns)
            self.ready += 1
            while script.park and not self.released:
                yield from sys.nanosleep(PARK_POLL_NS)
            if script.linger_ns:
                yield from sys.nanosleep(script.linger_ns)
            yield from sys.close(fd)
        finally:
            stack.pop()
