"""The server catalog: one table, one boot, one world (``repro.servers.catalog``).

Five parts, none of which reads a host clock:

(a) *Oracle* — the hand-written boot recipe every plane used to carry its
    own copy of lives on here, and ``boot()`` must land on the same tree,
    virtual clock and step count.
(b) *Rows* — every server module has one, and every row's drivers speak
    the server's protocol.
(c) *Structure* — who may call ``load_program`` / ``setup_world``, who may
    import what, where port numbers may be written; one of each.
(d) *The fence moves* — ``opensshd`` and ``nginx_reg`` are under
    record/replay and the update fault matrix by having a row.
(e) *Restore after an update* — an updated tree keeps its program's name,
    so the image of a live-updated node restores like a fresh boot's.
"""

from __future__ import annotations

import ast
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.servers
from repro.bench.faultmatrix import run_cell
from repro.bench.harness import SERVER_BENCHES, boot_server
from repro.checkpoint import checkpoint_node, restore_image
from repro.errors import SimError
from repro.fleet.drill import SETTLE_NS
from repro.fleet.fleet import Fleet
from repro.fleet.node import Node
from repro.kernel.kernel import Kernel
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import UPDATE_SITES, TreeFingerprint
from repro.mcr.quiescence.profiler import _tree_quiet
from repro.replay.scenario import default_spec, run_scenario
from repro.replay.trace import TraceLog
from repro.runtime.instrument import BuildConfig
from repro.runtime.libmcr import MCRSession
from repro.runtime.program import load_program
from repro.servers import httpd, memcache, nginx, opensshd, simple, vsftpd
from repro.servers.catalog import CATALOG, World, boot, lookup

# -- (a) the oracle --------------------------------------------------------------

# Typed here independently of the catalog: module + make_program keywords.
RECIPE_INPUTS = {
    "simple": (simple, {}),
    "httpd": (httpd, {}),
    "nginx": (nginx, {}),
    "nginx_reg": (nginx, {"instrument_regions": True}),
    "vsftpd": (vsftpd, {}),
    "opensshd": (opensshd, {}),
    "memcache": (memcache, {}),
}


def _recipe(name, build=None):
    """The parent commit's boot recipe, written out: the reference."""
    module, keywords = RECIPE_INPUTS[name]
    kernel = Kernel()
    module.setup_world(kernel)
    program = module.make_program(1, **keywords)
    if build is None:
        build = BuildConfig.full(instrument_regions=bool(keywords))
    if build.mcr_enabled:
        session = MCRSession(kernel, program, build)
        root = load_program(kernel, program, build=build, session=session)
        kernel.run(until=lambda: session.startup_complete, max_steps=400_000)
        assert session.startup_complete
    else:
        root = load_program(kernel, program, build=build)
        kernel.run(until=lambda: _tree_quiet(root), max_steps=400_000)
    return kernel, root


def _observables(kernel, root):
    return (
        TreeFingerprint.capture(kernel, root).to_dict(),
        kernel.clock.now_ns,
        kernel.steps_executed,
    )


def test_the_oracle_covers_the_whole_catalog():
    assert set(RECIPE_INPUTS) == set(CATALOG)


@pytest.mark.parametrize("name", sorted(RECIPE_INPUTS))
def test_boot_equals_the_handwritten_recipe(name):
    world = boot(name)
    assert isinstance(world, World) and world.spec is CATALOG[name]
    assert world.session.startup_complete
    assert world.root.build.instrument_regions == (name == "nginx_reg")
    assert _observables(world.kernel, world.root) == _observables(*_recipe(name))


def test_uninstrumented_boot_runs_to_the_first_stall_like_the_recipe():
    world = boot("httpd", build=BuildConfig.baseline())
    assert world.session is None and _tree_quiet(world.root)
    assert _observables(world.kernel, world.root) == _observables(
        *_recipe("httpd", BuildConfig.baseline())
    )


def test_boot_into_a_given_kernel_from_a_given_factory():
    kernel = Kernel()

    def two_workers(version):
        return nginx.make_program(version, worker_processes=2)

    world = boot("nginx", kernel=kernel, make_program=two_workers)
    assert world.kernel is kernel and world.make_program is two_workers
    # The update target comes from the factory the world was booted from.
    result = McrCtl(kernel, world.session).live_update(world.make_program(2))
    assert result.committed, result.error


def test_a_boot_that_cannot_finish_raises():
    with pytest.raises(SimError, match="httpd: startup did not complete within 10 steps"):
        boot("httpd", max_steps=10)
    with pytest.raises(SimError, match="startup did not complete"):
        Node.boot("httpd", max_steps=10)


# -- (b) the rows ----------------------------------------------------------------


def test_every_server_module_has_a_row():
    modules = set()
    for info in pkgutil.iter_modules(repro.servers.__path__):
        module = __import__(f"repro.servers.{info.name}", fromlist=["_"])
        if hasattr(module, "make_program"):
            modules.add(module)
    assert modules == {spec.module for spec in CATALOG.values()}
    assert all(name == spec.name for name, spec in CATALOG.items())


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_row_port_is_the_programs_own(name):
    spec = CATALOG[name]
    assert spec.port == spec.make_program(1).metadata["port"]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_small_workload_then_probe_speak_the_protocol(name):
    world = boot(name)
    small = world.spec.small_workload({})
    small.run(world.kernel)
    assert small.completed > 0 and small.errors == 0
    probe = world.spec.probe()
    probe.run(world.kernel)
    assert probe.completed > 0 and probe.errors == 0


def test_small_workload_takes_the_scenario_parameters():
    assert CATALOG["httpd"].small_workload({"requests": 7, "jitter_ns": 9}).requests == 7
    assert CATALOG["httpd"].small_workload({"jitter_ns": 9}).jitter_ns == 9
    assert CATALOG["vsftpd"].small_workload({"users": 1}).users == 1
    assert CATALOG["simple"].small_workload({"clients": 3}).clients == 3
    assert CATALOG["simple"].small_workload({}).clients == 2


def test_holders_follow_the_rows_protocol():
    assert boot("vsftpd").hold(2).kind == "ftp"
    with pytest.raises(ValueError):
        boot("simple").hold(2)  # its row has no holder kind


# -- (c) structure ---------------------------------------------------------------

SRC = Path(repro.__file__).resolve().parent
SOURCES = {
    path.relative_to(SRC).as_posix(): path.read_text()
    for path in sorted(SRC.rglob("*.py"))
}


def _called(node: ast.AST) -> set:
    """Names called anywhere under ``node`` (``f(...)`` and ``x.f(...)``)."""
    names = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


def _tree(module: str) -> ast.AST:
    return ast.parse(SOURCES[module], filename=module)


def _callers(name: str) -> set:
    """Modules that call ``name`` (parsed only where the text mentions it)."""
    return {
        module for module, text in SOURCES.items()
        if f"{name}(" in text and name in _called(_tree(module))
    }


def test_who_loads_a_program():
    assert _callers("load_program") == {
        "servers/catalog.py",            # boot: the one way a server starts
        "mcr/controller.py",             # _restart: the new version of an update
        "mcr/quiescence/profiler.py",    # profiles an uninstrumented build
        "bench/spec2006.py",             # allocator microworkloads, not servers
    }


def test_who_sets_a_world_up():
    outside = {m for m in _callers("setup_world") if not m.startswith("servers/")}
    assert outside == {"runtime/build.py"}


def test_exactly_one_function_is_the_boot_recipe():
    recipe = {"setup_world", "MCRSession", "load_program"}
    found = [
        (module, node.name)
        for module in _callers("load_program")
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and recipe <= _called(node)
    ]
    assert found == [("servers/catalog.py", "boot")]


def test_boot_takes_the_union_of_the_old_recipes_parameters_and_nothing_new():
    assert list(inspect.signature(boot).parameters) == [
        "name", "version", "build", "kernel", "make_program", "config", "max_steps",
    ]
    assert boot_server is boot


def test_exactly_one_class_holds_a_booted_server():
    for text in SOURCES.values():
        assert not re.search(r"\b(BootedWorld|BenchWorld|_World)\b", text)
    assert list(inspect.signature(Node.__init__).parameters) == [
        "self", "node_id", "world", "collector", "stall_ns",
    ]
    node = Node.boot("simple", node_id=3)
    assert isinstance(node.world, World) and node.kernel is node.world.kernel
    assert isinstance(repro.boot("simple"), World)


def test_server_benches_is_a_view_of_the_catalog():
    (value,) = [
        node.value
        for node in ast.walk(_tree("bench/harness.py"))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and "SERVER_BENCHES" in {getattr(t, "id", None) for t in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )}
    ]
    literals = [n.value for n in ast.walk(value) if isinstance(n, ast.Constant)]
    assert literals == [None]  # ``... is not None``: no literal of its own
    for name, row in SERVER_BENCHES.items():
        assert row is CATALOG[name]
        # The spellings the frozen perfbench uses.
        assert row["port"] == row.port and row["holder_kind"] == row.holder_kind
        assert row["make_program"](2).version == "2"
        assert row["workload"]().port == row.port


def test_no_server_is_looked_up_by_module_name_outside_servers():
    pattern = re.compile(r"""import_module\(\s*f?["']repro\.servers\.""")
    offenders = [
        module for module, text in SOURCES.items()
        if not module.startswith("servers/") and pattern.search(text)
    ]
    assert not offenders


def test_replay_does_not_import_bench():
    offenders = []
    for module in SOURCES:
        if not module.startswith("replay/"):
            continue
        for node in ast.walk(_tree(module)):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            offenders += [f"{module}:{n}" for n in names if n.startswith("repro.bench")]
    assert not offenders


def test_port_numbers_are_written_only_in_servers():
    pattern = re.compile(r"\b(8080|8081|11211)\b")
    offenders = [
        module for module, text in SOURCES.items()
        if not module.startswith("servers/") and pattern.search(text)
    ]
    assert not offenders


def test_one_unknown_server_error(capsys):
    entry_points = [
        lambda: repro.boot("iis"),
        lambda: boot_server("iis"),
        lambda: Node.boot("iis"),
        lambda: Fleet.boot(2, "iis"),
        lambda: default_spec("iis"),
        lambda: default_spec("iis", holders=0),
        lambda: run_scenario({"kind": "update", "server": "iis"}),
        lambda: lookup("iis"),
    ]
    messages = set()
    for entry in entry_points:
        with pytest.raises(ValueError) as raised:
            entry()
        messages.add(str(raised.value))
    assert messages == {f"unknown server 'iis'; choose from {', '.join(CATALOG)}"}
    # argparse keeps its own usage error; its choices are the catalog's.
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["demo", "iis"])
    usage = capsys.readouterr().err
    assert all(name in usage for name in CATALOG)


# -- the build-inheritance fix ---------------------------------------------------


def _serves_after_update():
    world = boot("nginx_reg")
    load = world.spec.small_workload({})
    load.run(world.kernel)
    assert load.completed == 30 and load.errors == 0
    ctl = McrCtl(world.kernel, world.session)
    result = ctl.live_update(world.make_program(2))
    assert result.committed, result.error
    probe = world.spec.probe()
    probe.run(world.kernel)
    return result, probe


def test_nginx_reg_serves_after_a_committed_update_under_prior_load():
    """The new version inherits the running session's build: restarted
    under plain ``full()`` it lost its region instrumentation and answered
    every later request with an empty reply."""
    result, probe = _serves_after_update()
    assert result.new_session.build.instrument_regions
    assert (probe.completed, probe.errors) == (5, 0)


# -- (d) the fence moves ---------------------------------------------------------

NEW_INSIDE_THE_FENCE = ("opensshd", "nginx_reg")


@pytest.mark.parametrize("server", NEW_INSIDE_THE_FENCE)
def test_clean_update_records_and_replays_bit_identically(server):
    spec = default_spec(server)
    assert spec["holders"] == 2  # both protocols can park connections
    recorded = TraceLog.record(spec)
    first = run_scenario(spec, trace=recorded)
    assert first.result.committed and first.probe_errors == 0
    assert first.probe_completed > 0
    replay = TraceLog.replay_of(recorded)
    run_scenario(spec, trace=replay)
    assert replay.equivalent, [str(d) for d in replay.divergences]
    assert replay.final == recorded.final
    assert replay.checkpoints == recorded.checkpoints


@pytest.mark.parametrize("server", NEW_INSIDE_THE_FENCE)
def test_every_update_site_cell_survives(server):
    for site in UPDATE_SITES:
        cell = run_cell(server, site)
        assert cell["survived"] and cell["old_version_intact"], cell


# -- (e) an updated tree keeps its program's name, so its image restores ---------

# The rows that had a one-shot request script before vsftpd and opensshd
# got theirs: the traffic this test has always sent, kept as it was.
SERVED_BEFORE_REQUEST_SCRIPTS = ("simple", "httpd", "nginx", "nginx_reg", "memcache")


@pytest.mark.parametrize("server", ["simple", "memcache", "httpd", "vsftpd", "nginx"])
def test_a_live_updated_node_can_be_checkpointed_and_restored(server):
    node, restored = Node.boot(server), None
    try:
        if server in SERVED_BEFORE_REQUEST_SCRIPTS:
            node.serve(4)
            node.drain()
        node.settle(SETTLE_NS)
        assert node.update().committed
        node.settle(SETTLE_NS)
        image = checkpoint_node(node)
        restored = restore_image(image, node_id=1)
        assert restored.fingerprint().matches(image.fingerprint)
    finally:
        for each in (node, restored):
            if each is not None:
                each.teardown()
