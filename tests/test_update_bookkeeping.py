"""What an update keeps while it runs: convergence tallies and the black box.

Two pieces of bookkeeping ride on every scheduler step of an update.

* **Convergence tallies.**  ``Process.tally`` counts a subtree's live
  threads, how many are parked at the barrier and how many have passed
  their first quiescent point, kept by the writers of those facts.  The
  whole-tree branch of ``QuiescenceProtocol.is_quiescent`` and the
  startup-completion check of ``MCRSession.note_qp_reached`` read it
  instead of walking the tree.  Held here against the walk after every
  kernel step — on generated worlds and on real updates — and against
  the walking bodies those two predicates had, which must answer at the
  same kernel steps.
* **The black box.**  An update with no collector of its own runs under
  ``obs.Collector.private``: the same spans and flight recorder, no
  counters, metrics or event ring.  Its ``result.blackbox`` must be the
  one a full collector would have dumped, byte for byte.

Clock-free: every assertion is on virtual state or on counts.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.fleet.failover import FailoverDrill
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.mcr.config import MCRConfig
from repro.mcr.controller import LiveUpdateController
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mcr.libmcr import MCRSession
from repro.mcr.quiescence.detection import QuiescenceProtocol, tree_live_threads
from repro.runtime.instrument import BuildConfig
from repro.servers import httpd
from repro.workloads.ab import ApacheBench


def _walked(process):
    """The tally a walk of ``process``'s tree gives (the oracle)."""
    live = tree_live_threads(process)
    return [
        len(live),
        sum(thread.at_barrier for thread in live),
        sum(thread.reached_qp for thread in live),
    ]


def _assert_tallies(kernel):
    tallied = [p for p in kernel.processes.values() if p.tally is not None]
    for process in tallied:
        assert process.tally == _walked(process), (process, kernel.steps_executed)
    return len(tallied)


# -- generated worlds ----------------------------------------------------------------

THREAD_OPS = ("fork", "thread", "exit", "return", "exec", "barrier", "qp", "yield", "sleep")
OUTSIDE_OPS = ("run", "run", "run", "crash", "terminate", "spawn", "ask", "request", "release")
_MAX_THREADS = 24


class _ScriptedWorld:
    """A kernel whose threads each run one drawn script of thread ops.

    Thread number ``n`` runs ``scripts[n % len(scripts)]``; forks, thread
    creations and execs stop once ``_MAX_THREADS`` have started, so a
    world stays small.  ``qp`` marks the running thread's first quiescent
    point through the session exactly as ``libmcr`` does; ``barrier``
    parks it at the session's barrier while the protocol is requested.
    """

    def __init__(self, scripts):
        self.scripts = scripts
        self.started = 0
        self.kernel = Kernel()
        self.session = MCRSession(self.kernel, None, BuildConfig.baseline())
        self.root = self.kernel.spawn_process(self.main, name="root")
        self.session.attach_process(self.root)

    def _room(self):
        return self.started < _MAX_THREADS

    def main(self, sys):
        script = self.scripts[self.started % len(self.scripts)]
        self.started += 1
        for op in script:
            if op == "fork" and self._room():
                yield from sys.fork(self.main, name="forked")
            elif op == "thread" and self._room():
                yield from sys.thread_create(self.main, name="extra")
            elif op == "exec" and self._room():
                yield from sys.exec("helper", self.main)
            elif op == "exit":
                yield from sys.exit(0)
            elif op == "return":
                return
            elif op == "barrier" and self.session.quiescence.hook_should_block():
                yield from sys.raw("barrier_wait", {"barrier": self.session.quiescence.barrier})
            elif op == "qp":
                self.session.note_qp_reached(sys.thread)
                yield from sys.sched_yield()
            elif op == "sleep":
                yield from sys.nanosleep(1_000)
            else:
                yield from sys.sched_yield()


def _pick(items, index):
    return items[index % len(items)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scripts=st.lists(
        st.lists(st.sampled_from(THREAD_OPS), max_size=10), min_size=1, max_size=6
    ),
    outside=st.lists(
        st.tuples(st.sampled_from(OUTSIDE_OPS), st.integers(min_value=0, max_value=63)),
        max_size=24,
    ),
)
def test_every_tally_equals_the_walk_after_every_step(scripts, outside):
    world = _ScriptedWorld(scripts)
    kernel = world.kernel
    step = kernel._step

    def checked(thread):
        step(thread)
        _assert_tallies(kernel)

    kernel._step = checked
    protocol = world.session.quiescence
    for op, index in outside:
        processes = list(kernel.processes.values())
        live = kernel.live_processes()
        if op == "run":
            kernel.run(max_steps=index % 40 + 1)
        elif op == "crash" and live:
            kernel.crash_tree(_pick(live, index))
        elif op == "terminate" and live:
            kernel.terminate_process(_pick(live, index))
        elif op == "spawn":
            parent = None if index % 4 == 0 else _pick(processes, index)
            kernel.spawn_process(world.main, name="spawned", parent=parent)
        elif op == "ask":
            _pick(processes, index).convergence()
        elif op == "request":
            protocol.request()
        elif op == "release":
            protocol.release()
        _assert_tallies(kernel)
        # The whole-tree predicate answers from the tally.
        if protocol.barrier is not None:
            protocol._arrivals_floor = 0
            live_threads = tree_live_threads(world.root)
            assert protocol.is_quiescent(world.root) == (
                bool(live_threads) and all(t.at_barrier for t in live_threads)
            )
    kernel.run(max_steps=2_000)
    assert _assert_tallies(kernel) >= 1  # at least the session root's


# -- the walking predicates, kept verbatim as oracles --------------------------------


def _walking_is_quiescent(self, root: Process) -> bool:
    # Hot path: evaluated once per kernel step while an update drives
    # the world to the barrier.  Short-circuit on the first straggler
    # instead of materializing the whole tree's thread list, and when
    # the protocol is scoped (rolling updates) iterate only the scoped
    # batch — walking the whole tree per step is O(tree x steps),
    # which is what made 1000-worker rolling updates crawl.
    barrier = self.barrier
    if barrier is not None and barrier.arrived < self._arrivals_floor:
        self._skipped_checks += 1
        if self._skipped_checks & 63:
            return False
    any_thread = False
    scope = self.scope
    candidates = root.tree() if scope is None else scope
    for process in candidates:
        if process.exited:
            continue
        for thread in process.live_threads():
            any_thread = True
            if not thread.at_barrier:
                if barrier is not None:
                    self._arrivals_floor = barrier.arrived + 1
                return False
    # Converged: disable the floor so every subsequent call (the
    # post-run re-check in ``wait``) answers deterministically.
    self._arrivals_floor = 0
    return any_thread


def _walking_note_qp_reached(self, thread) -> None:
    if self.startup_complete:
        return
    if not thread.reached_qp:
        thread.reached_qp = True
        self._qp_marked += 1
        if self._qp_marked < self._qp_check_floor:
            return
    else:
        # Re-visits can only complete startup when a not-yet-reached
        # thread exited meanwhile; sample them rather than re-walking
        # the whole tree on every loop iteration.
        self._qp_repeat_notes += 1
        if self._qp_repeat_notes & 63:
            return
    root = self.root_process
    if root is None:
        return
    live = tree_live_threads(root)
    if live and all(t.reached_qp for t in live):
        self.finish_startup()
        return
    # Not there yet: no walk can succeed before every currently-live
    # thread has flipped, so defer the next one until then.
    self._qp_check_floor = len(live)


# -- real runs -------------------------------------------------------------------------


def _update(world, config=None, expect="committed"):
    result = McrCtl(world.kernel, world.session).live_update(
        world.make_program(2), config=config
    )
    assert getattr(result, expect), result.error
    return {"total_ns": result.total_ns, "now_ns": world.kernel.clock.now_ns}


def _httpd_rolling():
    world = boot_server(
        "httpd",
        make_program=lambda version=1: httpd.make_program(version, server_processes=32),
    )
    return _update(world, MCRConfig(update_mode="rolling", rolling_batch=8))


def _vsftpd_sessions():
    world = boot_server("vsftpd")
    SERVER_BENCHES["vsftpd"]["workload"]().run(world.kernel)
    holder = world.hold(40)
    holder.establish(world.kernel)
    assert holder.ready == 40
    return _update(world)


def _opensshd_exec():
    world = boot_server("opensshd")
    SERVER_BENCHES["opensshd"]["workload"]().run(world.kernel)
    assert any(p.name == "ssh-helper" for p in world.kernel.processes.values())
    return _update(world)


def _rolled_back():
    world = boot_server("nginx")
    config = MCRConfig(faults=FaultPlan().at("transfer.memory"))
    return _update(world, config, expect="rolled_back")


def _crash_drill():
    result = FailoverDrill("simple", config=MCRConfig(checkpoint_interval_ns=25_000_000)).run()
    assert result.promoted and result.requests_lost == 0, result.error
    return result.to_dict()


REAL_RUNS = {
    "httpd-rolling-32": _httpd_rolling,
    "vsftpd-40": _vsftpd_sessions,
    "opensshd-exec": _opensshd_exec,
    "rolled-back": _rolled_back,
    "crash-drill": _crash_drill,
}


def _run_recorded(monkeypatch, scenario, walking):
    """Run ``scenario`` with the tallied or the walking predicates.

    Returns the scenario's own outcome plus every predicate answer with
    the kernel step it was given at.  The tallied run also checks every
    tally against the walk after every step, and counts the tree walks
    the predicates make while an update drives the new tree to its
    barrier.
    """
    is_quiescent = _walking_is_quiescent if walking else QuiescenceProtocol.is_quiescent
    note_qp_reached = _walking_note_qp_reached if walking else MCRSession.note_qp_reached
    finish_startup = MCRSession.finish_startup
    answers = []
    where = {"predicate": False, "drive": False}
    walks = {"in_drive": 0, "drives": 0, "checked_steps": 0}

    def recorded_is_quiescent(protocol, root):
        where["predicate"] = True
        try:
            answer = is_quiescent(protocol, root)
        finally:
            where["predicate"] = False
        answers.append(("quiescent", protocol.session.kernel.steps_executed, answer))
        return answer

    def recorded_note_qp_reached(session, thread):
        where["predicate"] = True
        try:
            note_qp_reached(session, thread)
        finally:
            where["predicate"] = False

    def recorded_finish_startup(session):
        # The walk that ends startup is the action, not the check.
        where["predicate"] = False
        answers.append(("startup", session.kernel.steps_executed, session.role))
        finish_startup(session)

    monkeypatch.setattr(QuiescenceProtocol, "is_quiescent", recorded_is_quiescent)
    monkeypatch.setattr(MCRSession, "note_qp_reached", recorded_note_qp_reached)
    monkeypatch.setattr(MCRSession, "finish_startup", recorded_finish_startup)
    if not walking:
        step = Kernel._step
        descendants = Process.descendants
        drive = LiveUpdateController._drive_to_barrier

        def checked_step(kernel, thread):
            step(kernel, thread)
            _assert_tallies(kernel)
            walks["checked_steps"] += 1

        def counted_descendants(process):
            if where["predicate"] and where["drive"]:
                walks["in_drive"] += 1
            return descendants(process)

        def watched_drive(controller, new_root):
            where["drive"] = True
            walks["drives"] += 1
            try:
                return drive(controller, new_root)
            finally:
                where["drive"] = False

        monkeypatch.setattr(Kernel, "_step", checked_step)
        monkeypatch.setattr(Process, "descendants", counted_descendants)
        monkeypatch.setattr(LiveUpdateController, "_drive_to_barrier", watched_drive)
    try:
        outcome = scenario()
    finally:
        monkeypatch.undo()
    return outcome, answers, walks


@pytest.mark.parametrize("case", REAL_RUNS)
def test_tallied_predicates_answer_like_the_walks_at_the_same_steps(case, monkeypatch):
    scenario = REAL_RUNS[case]
    walked, walked_answers, _ = _run_recorded(monkeypatch, scenario, walking=True)
    tallied, tallied_answers, walks = _run_recorded(monkeypatch, scenario, walking=False)
    assert walks["checked_steps"] > 0
    assert tallied == walked
    assert [a for a in tallied_answers if a[0] == "startup"]
    assert tallied_answers == walked_answers
    if case != "crash-drill":
        # Count guard: whole-tree convergence of the new tree reads
        # tallies; neither predicate walks the tree while it is driven.
        assert walks["drives"] >= 1
        assert walks["in_drive"] == 0


# -- the black box -------------------------------------------------------------------


def _boot_for(server):
    if server == "httpd-rolling":
        world = boot_server(
            "httpd",
            make_program=lambda version=1: httpd.make_program(version, server_processes=16),
        )
        return world, {"update_mode": "rolling", "rolling_batch": 4}
    return boot_server(server), {}


def _failed_update_blackbox(server, site, explicit):
    world, mode = _boot_for(server)
    # Armed past the retries, so even a retried phase fails for good.
    config = MCRConfig(faults=FaultPlan().at(site, times=8), **mode)
    collector = obs.Collector(world.kernel.clock) if explicit else None
    result = McrCtl(world.kernel, world.session).live_update(
        world.make_program(2), config=config, collector=collector
    )
    assert not result.committed and result.blackbox is not None
    return json.dumps(result.blackbox, sort_keys=True)


@pytest.mark.parametrize(
    "server,site",
    [
        ("httpd-rolling", "transfer.memory"),
        ("nginx", "quiescence.wait"),
        ("vsftpd", "restart.spawn"),
        ("memcache", "reinit.replay"),
    ],
)
def test_a_private_black_box_dumps_what_a_full_collector_dumps(server, site):
    private = _failed_update_blackbox(server, site, explicit=False)
    full = _failed_update_blackbox(server, site, explicit=True)
    assert private == full


def test_a_saturated_private_black_box_dumps_what_a_full_collector_dumps():
    """64 workers rolled in batches of 16 fill and wrap the ring."""

    def run(explicit):
        world = boot_server(
            "httpd",
            make_program=lambda version=1: httpd.make_program(version, server_processes=64),
        )
        config = MCRConfig(
            update_mode="rolling", rolling_batch=16,
            faults=FaultPlan().at("transfer.memory", nth=3),
        )
        collector = obs.Collector(world.kernel.clock) if explicit else None
        result = McrCtl(world.kernel, world.session).live_update(
            world.make_program(2), config=config, collector=collector
        )
        assert result.rolled_back
        return result.blackbox

    private, full = run(False), run(True)
    assert private["entries_dropped"] > 0
    assert len(private["entries"]) == private["max_entries"]
    assert json.dumps(private, sort_keys=True) == json.dumps(full, sort_keys=True)


def test_a_private_update_keeps_nothing_but_its_black_box_and_spans(monkeypatch):
    world = boot_server("simple")
    seen = {}
    prepare = LiveUpdateController._commit_prepare

    def look(controller, new_root):
        collector = obs.ACTIVE
        seen.update(
            counters=len(collector.counters),
            metrics=collector.metrics.names(),
            events=(len(collector.events), collector.events.emitted),
            recorded=collector.recorder.recorded,
            spans=len(collector.spans.roots) + len(collector.spans._stack),
        )
        return prepare(controller, new_root)

    monkeypatch.setattr(LiveUpdateController, "_commit_prepare", look)
    # Clients in flight: their latencies are observed during the update.
    clients = ApacheBench(world.port, requests=24, concurrency=2, path="sum")(world.kernel)
    world.kernel.run(max_steps=20_000)
    result = McrCtl(world.kernel, world.session).live_update(world.make_program(2))
    world.kernel.run(until=lambda: all(c.exited for c in clients), max_steps=2_000_000)
    assert result.committed and obs.ACTIVE is None
    assert seen["counters"] == 0 and seen["metrics"] == [] and seen["events"] == (0, 0)
    assert seen["recorded"] > 0 and seen["spans"] > 0
