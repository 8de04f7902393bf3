"""Direct tests of mutable reinitialization's matching semantics (§5).

The paper's argument: call-stack-ID matching "is generally more robust to
addition/deletion/reordering of system calls and changes to their
arguments than alternative strategies based on global or partial orderings
of operations".  These tests build server versions whose startup differs
in exactly one way and check what each strategy does.
"""

import pytest

from repro.errors import ConflictError
from repro.kernel import Kernel, sim_function
from repro.mcr import controller as controller_module
from repro.mcr.controller import LiveUpdateController
from repro.mcr.libmcr import MCRSession
from repro.mcr.reinit.replay import ReplayContext, ReplayEngine
from repro.runtime.instrument import BuildConfig
from repro.runtime.program import GlobalVar, Program, load_program
from repro.types.descriptors import INT64


def _make_program(startup_steps, version="1", extra_annotation=None):
    """A tiny server whose startup is a scripted list of operations.

    ``startup_steps`` is a list of callables ``(sys, state) -> generator``
    run inside ``scripted_init``; the program then parks at its QP.
    """

    @sim_function
    def scripted_init(sys, state):
        for step in startup_steps:
            yield from step(sys, state)

    @sim_function
    def scripted_main(sys):
        state = {}
        yield from scripted_init(sys, state)
        while True:
            sys.loop_iter("main")
            yield from sys.nanosleep(10_000_000)

    program = Program(
        name="scripted",
        version=version,
        globals_=[GlobalVar("g", INT64)],
        main=scripted_main,
        types={},
        quiescent_points={("scripted_main", "nanosleep")},
    )
    if extra_annotation is not None:
        extra_annotation(program.annotations)
    return program


# -- startup step vocabulary ---------------------------------------------------


def open_config(path="/etc/scripted.conf"):
    def step(sys, state):
        fd = yield from sys.open(path)
        state["cfg"] = (yield from sys.read(fd))
        yield from sys.close(fd)

    return step


def bind_port(port=6100):
    def step(sys, state):
        fd = yield from sys.socket()
        yield from sys.bind(fd, port)
        yield from sys.listen(fd)
        state["listen"] = fd

    return step


def make_epoll():
    def step(sys, state):
        state["ep"] = yield from sys.epoll_create()

    return step


def sleep_step(ns=1_000_000):
    def step(sys, state):
        yield from sys.nanosleep(ns)

    return step


def _boot(kernel, program):
    session = MCRSession(kernel, program, BuildConfig.full())
    root = load_program(kernel, program, build=BuildConfig.full(), session=session)
    kernel.run(until=lambda: session.startup_complete, max_steps=100_000)
    assert session.startup_complete
    return session, root


def _update(kernel, session, new_program, **kwargs):
    controller = LiveUpdateController(kernel, session, new_program, **kwargs)
    return controller.run_update()


V1_STEPS = [open_config(), bind_port(), make_epoll()]


class TestCallstackMatching:
    def test_identical_startup_replays(self, kernel):
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))
        result = _update(kernel, session, _make_program(V1_STEPS, "2"))
        assert result.committed, result.error

    def test_added_syscall_runs_live(self, kernel):
        """New operations in the new version execute live (no conflict)."""
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))
        v2_steps = V1_STEPS + [sleep_step()]
        result = _update(kernel, session, _make_program(v2_steps, "2"))
        assert result.committed, result.error

    def test_reordered_syscalls_tolerated(self, kernel):
        """Reordering is matched per call-stack ID, not global order."""
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))
        v2_steps = [bind_port(), open_config(), make_epoll()]  # swapped
        result = _update(kernel, session, _make_program(v2_steps, "2"))
        assert result.committed, result.error

    def test_omitted_immutable_syscall_conflicts(self, kernel):
        """Dropping the epoll_create leaves its inherited fd unclaimed."""
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))
        v2_steps = [open_config(), bind_port()]  # no epoll
        result = _update(kernel, session, _make_program(v2_steps, "2"))
        assert result.rolled_back
        assert isinstance(result.error, ConflictError)
        assert "never replayed" in str(result.error)

    def test_changed_arguments_conflict(self, kernel):
        """bind to a different port: args mismatch -> conflict."""
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))
        v2_steps = [open_config(), bind_port(7200), make_epoll()]
        result = _update(kernel, session, _make_program(v2_steps, "2"))
        assert result.rolled_back
        assert isinstance(result.error, (ConflictError, Exception))

    def test_reinit_handler_resolves_argument_conflict(self, kernel):
        """An MCR_ADD_REINIT_HANDLER can resolve the flagged conflict."""
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))

        def resolving(annotations):
            def handler(context):
                if context.name == "bind":
                    # User decides: keep the inherited listener, ignore
                    # the new port (returns the recorded result).
                    context.override_result = 0
                    context.resolved = True

            annotations.MCR_ADD_REINIT_HANDLER(handler, stage="conflict")

        v2_steps = [open_config(), bind_port(7300), make_epoll()]
        v2 = _make_program(v2_steps, "2", extra_annotation=resolving)
        result = _update(kernel, session, v2)
        assert result.committed, result.error

    def test_renamed_function_conflicts(self, kernel):
        """Function renames change stack IDs: records go unmatched, and
        the live re-execution clashes with inherited kernel state (the
        'unnecessary conflicts' the paper accepts as the price of
        conservativeness)."""
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))

        # Same operations, but issued from a differently-named function.
        def bind_from_renamed(port=6100):
            @sim_function
            def renamed_bind_helper(sys, state):
                fd = yield from sys.socket()
                yield from sys.bind(fd, port)
                yield from sys.listen(fd)
                state["listen"] = fd

            def step(sys, state):
                yield from renamed_bind_helper(sys, state)

            return step

        v2_steps = [open_config(), bind_from_renamed(), make_epoll()]
        result = _update(kernel, session, _make_program(v2_steps, "2"))
        assert result.rolled_back  # live bind on an in-use port


class SequentialReplayEngine(ReplayEngine):
    """The ordering-based matcher the paper rejects (§5): each process's
    records are consumed strictly in recorded order, so any insertion,
    deletion or reordering in the new startup derails the whole match."""

    def _match(self, process, thread, name, args):
        record = next((r for r in self.old_log.records(process.pid) if not r.consumed), None)
        if record is not None and (record.name != name or record.stack_id != thread.stack_id()):
            context = ReplayContext(self, process, thread, record, name, args)
            self._raise_or_resolve(
                context,
                ConflictError(
                    "reinit",
                    f"{name}@{'/'.join(thread.call_stack)}",
                    f"sequential mismatch: expected {record.name} "
                    f"@{'/'.join(record.stack_names)}",
                ),
            )
            record = None if context.execute_live else record
        return record


class TestSequentialMatchingAblation:
    """The ordering-based alternative the paper rejects."""

    @pytest.fixture(autouse=True)
    def sequential(self, monkeypatch):
        monkeypatch.setattr(controller_module, "ReplayEngine", SequentialReplayEngine)

    def test_identical_startup_still_works(self, kernel):
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))
        result = _update(kernel, session, _make_program(V1_STEPS, "2"))
        assert result.committed, result.error

    def test_reordering_breaks_sequential_matching(self, kernel):
        """The same reordered startup that call-stack matching accepts
        produces a spurious conflict under strict ordering."""
        kernel.fs.create("/etc/scripted.conf", b"x")
        session, _ = _boot(kernel, _make_program(V1_STEPS))
        v2_steps = [bind_port(), open_config(), make_epoll()]
        result = _update(kernel, session, _make_program(v2_steps, "2"))
        assert result.rolled_back
        assert "sequential mismatch" in str(result.error)
