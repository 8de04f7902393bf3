"""The syscall fast path, held against the bodies it replaced.

Three per-call chains were shortened without moving a scheduled step, so
each is pinned against its old body, kept here as the oracle:

* ``Sys._invoke`` decides inline whether ``MCRRuntime.intercept`` has
  anything to do — against the old ``_invoke``, which sent every call of an
  MCR process through it, cell by cell and on a whole serving run;
* ``Kernel.run`` evaluates ``until`` once per step and polls blocked
  threads only when one can wake — against the old loop, which polled
  every round and polled every blocked thread before going idle, so a
  missing wait-channel kick shows as a difference;
* ``Kernel._step`` enters the kernel through one ``(handler, cost)`` lookup
  and adds costs to the clock itself — so the unknown-syscall route and the
  sign checks ``clock.advance`` made per call are pinned here.

The guards at the end hold the costs themselves — profile events per
kernel step, generators per syscall, ``_poll_blocked`` entries — without
reading a clock, so they run in tier-1 on every interpreter.
"""

from __future__ import annotations

import inspect
import sys as host_sys
import types

import pytest

from repro import obs
from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.errors import SimError
from repro.kernel import syscalls
from repro.kernel.kernel import (
    MAX_STEPS_DEFAULT,
    SOFT_DIRTY_FAULT_COST_NS,
    STEP_COST_NS,
    Kernel,
)
from repro.kernel.namespaces import PidNamespace
from repro.kernel.process import BLOCKED, RUNNABLE, WaitQueue, sim_function
from repro.kernel.sysapi import Sys
from repro.kernel.syscalls import Blocked, SyscallRequest, TIMEOUT
from repro.mem.pages import PAGE_SIZE
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import (
    MCRSession,
    PHASE_NORMAL,
    PHASE_RECORD,
    PHASE_RESTART,
    UNBLOCKIFY_SLICE_NS as SLICE_NS,
)
from repro.runtime.program import Program
from repro.workloads.ab import ApacheBench

from tests.helpers import boot_test_program, make_test_program


# -- (a) who decides interception ------------------------------------------------


def always_intercept(sys_api, name, args, timeout_ns=None):
    """``Sys._invoke`` as it was: every call of an MCR process is intercepted."""
    runtime = sys_api.process.runtime
    if runtime is not None:
        result = yield from runtime.intercept(sys_api, name, args, timeout_ns)
        return result
    result = yield SyscallRequest(name, args, timeout_ns)
    return result


class CannedReplay:
    """Stands in for ``ReplayEngine``: marks the request, wraps the result."""

    def handle(self, sys_api, name, args, timeout_ns):
        result = yield SyscallRequest(name, dict(args, replayed=True), timeout_ns)
        return ("replayed", result)


def _parked(sys_api):
    yield from sys_api.raw("nanosleep", {"duration_ns": 1})


PHASES = [
    (PHASE_RECORD, False),
    (PHASE_RESTART, False),
    (PHASE_RESTART, True),
    (PHASE_NORMAL, False),
]


def _cell(phase, engine, complete, unblockify, dynamic_instr, at_qp):
    """One thread of one MCR process, put by hand into the cell's state."""
    kernel = Kernel()
    program = Program(
        "cell", "1", [], main=_parked, quiescent_points={("qp_site", "accept")}
    )
    build = BuildConfig(unblockify=unblockify, dynamic_instr=dynamic_instr)
    role = "restart" if phase == PHASE_RESTART else "primary"
    session = MCRSession(kernel, program, build, role=role)
    session.phase = phase
    session.startup_complete = complete
    if engine:
        session.replay_engine = CannedReplay()
    process = kernel.spawn_process(_parked)
    process.program = program
    process.runtime = session.attach_process(process)
    (thread,) = process.threads.values()
    thread.call_stack[:] = ["main", "qp_site" if at_qp else "elsewhere"]
    return kernel, session, Sys(thread)


def _drive(generator):
    """Answer TIMEOUT, TIMEOUT, 42; returns (requests seen, return value)."""
    seen = []
    answers = iter([TIMEOUT, TIMEOUT, 42])
    try:
        request = next(generator)
        while True:
            seen.append((request.name, dict(request.args), request.timeout_ns))
            request = generator.send(next(answers))
    except StopIteration as stop:
        return seen, stop.value


def _log(session):
    return [
        (r.pid, r.stack_names, r.stack_id, r.name, r.args, r.result)
        for r in session.startup_log.records()
    ]


@pytest.mark.parametrize("timeout_ns", [None, SLICE_NS * 3 // 2])
@pytest.mark.parametrize("at_qp", [False, True])
@pytest.mark.parametrize("dynamic_instr", [False, True])
@pytest.mark.parametrize("unblockify", [False, True])
@pytest.mark.parametrize("complete", [False, True])
@pytest.mark.parametrize("phase,engine", PHASES)
def test_invoke_equals_unconditional_intercept(
    phase, engine, complete, unblockify, dynamic_instr, at_qp, timeout_ns
):
    outcomes = []
    for funnel in (Sys._invoke, always_intercept):
        kernel, session, sys_api = _cell(
            phase, engine, complete, unblockify, dynamic_instr, at_qp
        )
        seen, value = _drive(funnel(sys_api, "accept", {"fd": 3}, timeout_ns))
        outcomes.append(
            (seen, value, _log(session), kernel.clock.now_ns,
             session.startup_complete, session.phase)
        )
    assert outcomes[0] == outcomes[1]
    seen, value = outcomes[0][:2]
    if at_qp and unblockify:  # sliced, whatever the phase
        assert [t for _, _, t in seen][0] == SLICE_NS
    elif engine and not complete:
        assert seen[0][1].get("replayed") and value == ("replayed", TIMEOUT)
    else:
        assert len(seen) == 1 and seen[0][2] == timeout_ns and value is TIMEOUT
    reserved = dynamic_instr and not complete and phase != PHASE_NORMAL
    assert all(args.get("reserved", False) == reserved for _, args, _ in seen) or (
        at_qp and unblockify  # unblockified calls never reach the reserve step
    )


def test_process_without_a_runtime_goes_straight_to_the_kernel(kernel):
    process = kernel.spawn_process(_parked)
    (thread,) = process.threads.values()
    seen, value = _drive(Sys(thread).recv(5, timeout_ns=9))
    assert seen == [("recv", {"fd": 5, "size": 65536}, 9)] and value is TIMEOUT


@pytest.mark.parametrize("server", ["httpd", "nginx"])
def test_serving_run_is_step_identical_under_unconditional_intercept(server, monkeypatch):
    def serve():
        world = boot_server(server)
        bench = ApacheBench(SERVER_BENCHES[server]["port"], requests=40, concurrency=4)
        bench.run(world.kernel)
        return (
            bench.completed,
            world.kernel.steps_executed,
            world.kernel.clock.now_ns,
            _log(world.session),
        )

    fast = serve()
    monkeypatch.setattr(Sys, "_invoke", always_intercept)
    assert serve() == fast
    assert fast[0] == 40


# -- (b) the scheduler loop --------------------------------------------------------


def _poll_every_blocked(kernel):
    """Poll every blocked thread once, in park order; True if one woke."""
    for thread in kernel._hot:
        thread.poll_hot = False
    kernel._hot = []
    now = kernel.clock.now_ns
    woken = False
    for thread in list(kernel._blocked):
        if thread.state != BLOCKED:
            continue
        is_ready, value = thread.wait_ready()
        if is_ready:
            kernel._wake(thread, value)
        elif thread.wait_deadline_ns is not None and now >= thread.wait_deadline_ns:
            kernel._wake(thread, TIMEOUT)
        else:
            continue
        woken = True
    return woken


def reference_run(kernel, max_steps=None, until=None, max_ns=None):
    """``Kernel.run`` as it was: ``until`` before every pop, poll every
    round, and poll every blocked thread before declaring the world idle."""
    budget = max_steps if max_steps is not None else MAX_STEPS_DEFAULT
    deadline_ns = None if max_ns is None else kernel.clock.now_ns + max_ns
    while True:
        if until is not None and until():
            return "until"
        if budget <= 0:
            return "max_steps"
        if deadline_ns is not None and kernel.clock.now_ns >= deadline_ns:
            return "max_ns"
        made_progress = False
        for _ in range(len(kernel._run_queue)):
            if until is not None and until():
                return "until"
            if budget <= 0:
                return "max_steps"
            thread = kernel._run_queue.popleft()
            if thread.state != RUNNABLE:
                continue
            kernel._step(thread)
            budget -= 1
            made_progress = True
        woken = kernel._poll_blocked()
        made_progress = made_progress or woken
        if not made_progress and not kernel._run_queue:
            if kernel._advance_to_next_deadline():
                continue
            if _poll_every_blocked(kernel):
                continue
            return "idle"


def _mixed_world():
    """Echo server + two clients + a sleeper + a watcher: busy rounds, idle
    rounds with clock jumps, timeouts and a test-only wait channel."""
    kernel = Kernel()
    echoed = []
    # The watcher's wait channel: each client kicks it after an echo.
    echoes = types.SimpleNamespace(waitq=WaitQueue())

    def sys_await_echoes(thread, count):
        def ready():
            return (True, len(echoed)) if len(echoed) >= count else (False, None)

        is_ready, value = ready()
        return value if is_ready else Blocked(ready, "await_echoes", channels=(echoes,))

    kernel.syscalls.entries["await_echoes"] = (sys_await_echoes, 1_500)

    @sim_function
    def server(sys):
        fd = yield from sys.socket()
        yield from sys.bind(fd, 9300)
        yield from sys.listen(fd)
        while True:
            conn = yield from sys.accept(fd, timeout_ns=2_000_000)
            if conn is TIMEOUT:
                continue
            yield from sys.thread_create(session, args=(conn,))

    @sim_function
    def session(sys, conn):
        while True:
            data = yield from sys.recv(conn)
            if not data:
                return
            yield from sys.cpu(700)
            yield from sys.send(conn, data)

    @sim_function
    def client(sys, tag, pause_ns):
        yield from sys.nanosleep(pause_ns)
        fd = yield from sys.connect(9300)
        for index in range(6):
            yield from sys.send(fd, b"%s%d" % (tag, index))
            echoed.append((yield from sys.recv(fd)))
            echoes.waitq.kick()
            yield from sys.nanosleep(pause_ns)
        yield from sys.close(fd)

    @sim_function
    def sleeper(sys):
        for _ in range(40):
            yield from sys.nanosleep(333_333)

    @sim_function
    def watcher(sys):
        for count in (3, 8):
            seen = yield from sys.raw("await_echoes", {"count": count})
            echoed.append(b"watched %d" % seen)

    kernel.spawn_process(server)
    kernel.spawn_process(client, args=(b"a", 150_000))
    kernel.spawn_process(client, args=(b"b", 410_000))
    kernel.spawn_process(sleeper)
    kernel.spawn_process(watcher)
    return kernel, echoed


@sim_function
def _spinner(sys):
    while True:
        yield from sys.sched_yield()


STOPS = [
    ("until steps", lambda k, e: dict(until=lambda: k.steps_executed >= 57)),
    ("until clock", lambda k, e: dict(until=lambda: k.clock.now_ns >= 1_234_567)),
    ("until program state", lambda k, e: dict(until=lambda: len(e) >= 7)),
    ("max_steps", lambda k, e: dict(max_steps=83)),
    ("max_ns", lambda k, e: dict(max_ns=2_500_000)),
    ("until + max_ns", lambda k, e: dict(until=lambda: len(e) >= 12, max_ns=900_000)),
    ("to idle", lambda k, e: dict(max_steps=100_000, until=lambda: False, max_ns=50_000_000)),
]


class TestRunLoop:
    @pytest.mark.parametrize("label,stop", STOPS, ids=[s[0] for s in STOPS])
    def test_stops_where_the_reference_loop_stops(self, label, stop):
        outcomes = []
        for run in (Kernel.run, reference_run):
            kernel, echoed = _mixed_world()
            reason = run(kernel, **stop(kernel, echoed))
            # ...and again from there, so state left mid-round counts too.
            reason2 = run(kernel, max_steps=40)
            outcomes.append(
                (reason, reason2, kernel.steps_executed, kernel.clock.now_ns, list(echoed))
            )
        assert outcomes[0] == outcomes[1]

    def test_until_is_called_exactly_once_before_each_step(self, kernel):
        for _ in range(3):
            kernel.spawn_process(_spinner)
        asked_at = []

        def until():
            asked_at.append(kernel.steps_executed)
            return kernel.steps_executed >= 50

        assert kernel.run(until=until) == "until"
        assert asked_at == list(range(51))  # the old loop asked twice per round head

    def test_poll_blocked_is_not_entered_when_nothing_can_wake(self, kernel):
        @sim_function
        def acceptor(sys):
            fd = yield from sys.socket()
            yield from sys.bind(fd, 9301)
            yield from sys.listen(fd)
            yield from sys.accept(fd)  # parked on a channel, no deadline

        @sim_function
        def napper(sys):
            yield from sys.nanosleep(1)

        kernel.spawn_process(acceptor)
        kernel.spawn_process(_spinner)
        kernel.run(max_steps=20)
        assert len(kernel._blocked) == 1
        entered = []
        poll = kernel._poll_blocked
        kernel._poll_blocked = lambda: entered.append(True) or poll()
        kernel.run(max_steps=200)
        assert entered == []  # 200 rounds, nothing hot or due
        kernel.spawn_process(napper)
        kernel.run(max_steps=20)
        assert entered == [True]  # the nap's deadline came due exactly once


# -- (c), (d) the kernel entry -----------------------------------------------------


class TestKernelEntry:
    def test_unknown_syscall_costs_an_entry_and_fails_on_the_next_resume(self, kernel):
        seen = []

        def program(sys):
            try:
                yield from sys.raw("frobnicate", {"x": 1})
            except SimError as error:
                seen.append((str(error), kernel.clock.now_ns, kernel.steps_executed))
            yield from sys.getpid()

        kernel.spawn_process(program)
        with obs.collecting(kernel.clock) as collector:
            kernel.run(max_steps=1)
            # One step: step cost + the 1 000 ns entry; nothing delivered yet.
            assert kernel.clock.now_ns == STEP_COST_NS + 1_000
            assert seen == []
            kernel.run(max_steps=1)
        step = STEP_COST_NS
        assert seen == [("unknown syscall: frobnicate", 2 * step + 1_000, 2)]
        counters = collector.counters
        assert counters.get("syscall.total") == counters.get("syscall.getpid") == 1
        assert counters.get("syscall.frobnicate") == 0

    def test_one_table_maps_a_name_to_its_handler_and_cost(self, kernel):
        table = kernel.syscalls
        assert set(table.entries) == set(syscalls.BASE_COSTS)
        for name, (handler, cost_ns) in table.entries.items():
            assert handler == getattr(table, "sys_" + name)
            assert cost_ns == syscalls.BASE_COSTS[name]
        assert not hasattr(table, "dispatch") and not hasattr(table, "cost_of")

    def test_a_negative_syscall_cost_is_refused_at_construction(self, monkeypatch):
        monkeypatch.setitem(syscalls.BASE_COSTS, "recv", -1)
        with pytest.raises(ValueError, match="recv"):
            Kernel()


def _touch_pages_then_yield(sys, pages):
    space = sys.process.space
    mapping = space.map((pages + 1) * PAGE_SIZE)
    space.clear_soft_dirty()
    for page in range(pages):
        space.write_word(mapping.base + page * PAGE_SIZE, 1)
    yield from sys.sched_yield()


def _fault_charges(kernel, processes):
    """Virtual ns charged for soft-dirty faults in each process's one step."""
    plain_step = STEP_COST_NS + syscalls.BASE_COSTS["sched_yield"]
    charges = []
    for _ in processes:
        before = kernel.clock.now_ns
        kernel.run(max_steps=1)
        charges.append(kernel.clock.now_ns - before - plain_step)
    return charges


class TestSoftDirtyFaultCharging:
    def test_faults_are_charged_to_the_step_that_took_them(self, kernel):
        procs = [
            kernel.spawn_process(_touch_pages_then_yield, args=(pages,))
            for pages in (5, 3, 0)
        ]
        cost = SOFT_DIRTY_FAULT_COST_NS
        assert _fault_charges(kernel, procs) == [5 * cost, 3 * cost, 0]

    def test_every_process_is_charged_for_its_own_faults(self, kernel):
        old = kernel.spawn_process(_touch_pages_then_yield, args=(5,))
        new = kernel.spawn_process(
            _touch_pages_then_yield, args=(3,), namespace=PidNamespace()
        )
        assert old.pid == new.pid  # mirrored, as after a live update
        cost = SOFT_DIRTY_FAULT_COST_NS
        assert _fault_charges(kernel, [old, new]) == [5 * cost, 3 * cost]


# -- clock-free cost guards ----------------------------------------------------------

# ``call`` + ``c_call`` profile events per kernel step while a booted httpd
# serves 200 requests.  Measured 55.5 with this fast path (CPython 3.11,
# 3 432 steps); the always-intercept, dispatch-per-call kernel it replaced
# measures 78.7.  Pinned about 10 % above the former.
MAX_CALLS_PER_STEP = 61.0


class _ProfileEvents:
    """Counts profile events between ``__enter__`` and ``__exit__``."""

    def __init__(self, *events):
        self.events = events
        self.count = 0
        # By name, not by event: 3.11 also reports a generator's creation.
        self.generators = set()

    def _hook(self, frame, event, arg):
        if event in self.events:
            self.count += 1
            if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
                self.generators.add(frame.f_code.co_name)

    def __enter__(self):
        host_sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        host_sys.setprofile(None)


class TestCostGuards:
    def test_calls_per_kernel_step_while_serving(self):
        world = boot_server("httpd")
        kernel = world.kernel
        bench = ApacheBench(SERVER_BENCHES["httpd"]["port"], requests=200, concurrency=4)
        clients = bench(kernel)
        steps_before = kernel.steps_executed
        with _ProfileEvents("call", "c_call") as events:
            kernel.run(until=lambda: all(c.exited for c in clients), max_steps=200_000)
        assert bench.completed == 200
        steps = kernel.steps_executed - steps_before
        assert steps > 2_000
        assert events.count / steps <= MAX_CALLS_PER_STEP, events.count / steps

    def test_a_steady_state_syscall_costs_one_generator(self):
        _kernel, session, process = boot_test_program(make_test_program([]))
        assert session.startup_complete
        (thread,) = process.threads.values()
        sys_api = Sys(thread)
        thread.call_stack.append("helper")  # idle_main's QP is not this site
        try:
            with _ProfileEvents("call") as events:
                request = next(sys_api.nanosleep(5))
            assert isinstance(request, SyscallRequest) and request.name == "nanosleep"
            assert events.generators == {"_invoke"}
        finally:
            thread.call_stack.pop()
        # At the quiescent point itself libmcr is — and must be — in the path.
        with _ProfileEvents("call") as events:
            request = next(sys_api.nanosleep(5))
        assert request.timeout_ns == SLICE_NS
        assert events.generators == {"_invoke", "intercept", "_unblockified"}
