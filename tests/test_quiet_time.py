"""Quiet time under unblockification, held against the stepped loop.

MCR's unblockification re-arms a quiescent-point call every
``UNBLOCKIFY_SLICE_NS``.  The kernel re-arms it in place (``SlicedWait``,
``Kernel._rearm``) and takes quiet stretches one expiry at a time
(``Kernel._quiet_stretch``); the scheduler's events are recorded raw and
rendered when read.  The oracles: ``stepped_unblockified``, the generator
loop that re-armed every slice itself, under either
``test_syscall_fastpath.reference_run`` or ``Kernel.run`` with its
stretches turned off (which asks ``until`` exactly where ``run`` does).
"""

from __future__ import annotations

import contextlib
import json

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bench.harness import boot_server
from repro.kernel.kernel import Kernel
from repro.kernel.process import sim_function
from repro.kernel.syscalls import SyscallRequest, TIMEOUT
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mcr.libmcr import (
    MCRRuntime,
    UNBLOCKIFY_ENTRY_COST_NS,
    UNBLOCKIFY_POLL_COST_NS,
    UNBLOCKIFY_SLICE_NS,
)
from repro.servers import httpd

from tests.helpers import collector_to_dict
from tests.test_syscall_fastpath import reference_run


def stepped_unblockified(self, sys_api, name, args, caller_timeout_ns):
    """``MCRRuntime._unblockified`` as it was: one request per slice, the
    re-arm charged by the generator after each TIMEOUT."""
    thread = sys_api.thread
    session = self.session
    session.kernel.clock.advance(UNBLOCKIFY_ENTRY_COST_NS)
    if not thread.reached_qp:
        session.note_qp_reached(thread)
    waited_ns = 0
    while True:
        if self.build.qdet and session.quiescence.hook_should_block(thread.process):
            yield SyscallRequest("barrier_wait", {"barrier": session.quiescence.barrier})
            continue
        slice_ns = UNBLOCKIFY_SLICE_NS
        if caller_timeout_ns is not None:
            slice_ns = min(slice_ns, caller_timeout_ns - waited_ns)
            if slice_ns <= 0:
                return TIMEOUT
        result = yield SyscallRequest(name, args, slice_ns)
        if result is not TIMEOUT:
            return result
        waited_ns += slice_ns
        session.kernel.clock.advance(UNBLOCKIFY_POLL_COST_NS)
        obs.incr("mcr.unblockify_rearms")


def use_stepped_oracle(monkeypatch):
    monkeypatch.setattr(Kernel, "run", reference_run)
    monkeypatch.setattr(MCRRuntime, "_unblockified", stepped_unblockified)


# -- a real failed rolling update --------------------------------------------


def _rolling_blackbox():
    world = boot_server(
        "httpd", make_program=lambda version=1: httpd.make_program(version, server_processes=8)
    )
    world.kernel.run(max_ns=200_000_000)
    config = MCRConfig(
        update_mode="rolling", rolling_batch=2,
        faults=FaultPlan().at("transfer.memory", nth=150),  # the fourth of five batches
    )
    result = McrCtl(world.kernel, world.session).live_update(world.make_program(2), config=config)
    assert result.rolled_back
    return json.dumps(result.blackbox, sort_keys=True)


def test_a_failed_rolling_update_keeps_its_black_box(monkeypatch):
    computed = _rolling_blackbox()
    use_stepped_oracle(monkeypatch)
    stepped = _rolling_blackbox()
    assert computed == stepped
    document = json.loads(computed)
    names = {entry["name"] for entry in document["entries"]}
    assert {"sched.wake", "sched.block", "fault.injected"} <= names


# -- item 5's precondition: quiet time resumes no generator -------------------


class CountingBody:
    """A thread body that counts how often the scheduler resumes it."""

    def __init__(self, body):
        self.body = body
        self.resumed = 0

    def send(self, value):
        self.resumed += 1
        return self.body.send(value)

    def throw(self, error):
        self.resumed += 1
        return self.body.throw(error)

    def close(self):
        self.body.close()


def test_an_idle_server_resumes_no_thread():
    """An idle minute of an 8-server httpd (33 threads, each re-armed every
    slice) under a private collector: the kernel re-arms every wait and
    resumes no generator.  The minute stands for item 5's virtual hour,
    which costs 60 times its wall time."""
    world = boot_server(
        "httpd", make_program=lambda version=1: httpd.make_program(version, server_processes=8)
    )
    kernel = world.kernel
    kernel.run(max_ns=200_000_000)  # every thread is parked in its sliced wait
    bodies = []
    for process in kernel.live_processes():
        for thread in process.live_threads():
            thread.body = CountingBody(thread.body)
            bodies.append(thread.body)
    collector = obs.Collector.private(kernel.clock)
    steps = kernel.steps_executed
    minute_ns = 60 * 1_000_000_000
    with obs.scoped(collector):
        budget = 2 * len(bodies) * (minute_ns // UNBLOCKIFY_SLICE_NS)
        assert kernel.run(max_ns=minute_ns, max_steps=budget) == "max_ns"
    assert [body.resumed for body in bodies] == [0] * len(bodies)
    slices = minute_ns // UNBLOCKIFY_SLICE_NS
    assert kernel.steps_executed - steps >= (len(bodies) - 1) * (slices - 1)
    recorder = collector.recorder
    assert len(recorder) <= recorder.max_entries
    assert recorder.bytes_used <= recorder.max_bytes


# -- exact, by oracle -------------------------------------------------------------


@sim_function
def _sliced_server(sys, port, timeout_ns):
    fd = yield from sys.socket()
    yield from sys.bind(fd, port)
    yield from sys.listen(fd)
    while True:
        conn = yield from sys.accept(fd, timeout_ns=timeout_ns)
        if conn is TIMEOUT:
            yield from sys.cpu(1_000)
            continue
        data = yield from sys.recv(conn)
        yield from sys.send(conn, data)
        yield from sys.close(conn)


@sim_function
def _client(sys, port, pause_ns, rounds):
    for index in range(rounds):
        yield from sys.nanosleep(pause_ns)
        fd = yield from sys.connect(port)
        yield from sys.send(fd, b"ping%d" % index)
        yield from sys.recv(fd)
        yield from sys.close(fd)


def _world(servers, timeouts, clients, pause_ns):
    """``servers`` unblockified acceptors (caller timeouts drawn per
    server), and ``clients`` closed-loop clients for the busy worlds."""
    from repro.mcr.libmcr import MCRSession
    from repro.runtime.instrument import BuildConfig
    from repro.runtime.program import Program

    kernel = Kernel()
    program = Program(
        "quiet", "1", [], main=_sliced_server,
        quiescent_points={("_sliced_server", "accept")},
    )
    session = MCRSession(kernel, program, BuildConfig(unblockify=True, qdet=True))
    session.startup_complete = True
    for index in range(servers):
        process = kernel.spawn_process(
            _sliced_server, args=(9400 + index, timeouts[index % len(timeouts)]),
            name=f"server{index}",
        )
        process.program = program
        process.runtime = session.attach_process(process)
    for index in range(clients):
        kernel.spawn_process(
            _client, args=(9400 + index % max(servers, 1), pause_ns, 3), name=f"client{index}"
        )
    return kernel, session


def _state(kernel):
    threads = []
    for process in kernel.processes.values():
        for thread in process.threads.values():
            threads.append(
                (process.name, thread.name, thread.state, thread.park_seq,
                 list(thread.call_stack), thread.blocked_on, thread.wait_deadline_ns)
            )
    return (kernel.clock.now_ns, kernel.steps_executed, kernel._park_counter,
            kernel._heap_counter, threads)


_STOPS = st.one_of(
    st.builds(lambda n: {"max_steps": n}, st.integers(1, 400)),
    st.builds(lambda t: {"max_ns": t}, st.integers(1, 300_000_000)),
    st.builds(lambda n: ("until", n), st.integers(0, 300)),
    # An ``until`` that changes the world: it starts a client when asked
    # at step n, so a stretch must hand the round back after asking it.
    st.builds(lambda n: ("poke", n), st.integers(0, 300)),
)


@given(
    servers=st.integers(1, 4),
    timeouts=st.lists(
        st.one_of(st.none(), st.integers(1, 3 * UNBLOCKIFY_SLICE_NS)), min_size=1, max_size=3
    ),
    clients=st.integers(0, 2),
    pause_ns=st.integers(1_000_000, 60_000_000),
    stops=st.lists(_STOPS, min_size=1, max_size=3),
    request_at=st.one_of(st.none(), st.integers(0, 2)),
    collector=st.sampled_from(["none", "private", "full"]),
)
@settings(max_examples=40, deadline=None)
def test_runs_equal_the_stepped_loop(
    servers, timeouts, clients, pause_ns, stops, request_at, collector
):
    """Idle, busy and mixed worlds; caller timeouts; a quiescence request
    between runs, so it lands mid-stretch; an ``until`` that starts a
    client; no, private and full collectors.  ``until`` is asked where
    ``run`` without its stretches asks it; the reference loop asks it more
    often, so only its verdicts count there, and only for a pure ``until``."""
    world = (servers, timeouts, clients, pause_ns, stops, request_at, collector)
    computed = _outcome("computed", *world)
    assert computed == _outcome("stepped", *world)
    if not any(stop[0] == "poke" for stop in stops if isinstance(stop, tuple)):
        reference = _outcome("reference", *world)
        assert computed[:1] + computed[2:] == reference[:1] + reference[2:]


def _no_stretch(kernel, until, budget, deadline_ns):
    return None, budget, False


def _outcome(loop, servers, timeouts, clients, pause_ns, stops, request_at, collector):
    saved = (Kernel.run, Kernel._quiet_stretch, MCRRuntime._unblockified)
    if loop != "computed":
        MCRRuntime._unblockified = stepped_unblockified
        if loop == "stepped":
            Kernel._quiet_stretch = _no_stretch
        else:
            Kernel.run = reference_run
    try:
        kernel, session = _world(servers, timeouts, clients, pause_ns)
        made = {
            "none": None,
            "private": obs.Collector.private(kernel.clock),
            "full": obs.Collector(kernel.clock),
        }[collector]
        asked = []
        reasons = []
        with obs.scoped(made) if made is not None else contextlib.nullcontext():
            for index, stop in enumerate(stops):
                if index == request_at:
                    session.quiescence.request()
                if isinstance(stop, tuple):
                    target = kernel.steps_executed + stop[1]
                    poked = stop[0] != "poke"

                    def until(target=target):
                        nonlocal poked
                        asked.append(kernel.steps_executed)
                        if not poked and kernel.steps_executed >= target:
                            poked = True
                            kernel.spawn_process(_client, args=(9400, 1_000_000, 1), name="poke")
                            return False
                        return kernel.steps_executed >= target + (0 if poked else 20)

                    reasons.append(Kernel.run(kernel, until=until, max_ns=400_000_000))
                else:
                    reasons.append(Kernel.run(kernel, **stop))
        recorded = collector_to_dict(made) if made is not None else None
        blackbox = made.recorder.dump("why") if made is not None else None
        return reasons, asked, _state(kernel), recorded, blackbox
    finally:
        Kernel.run, Kernel._quiet_stretch, MCRRuntime._unblockified = saved
