"""The inheritance stash is held once: ``FDTable`` shares its stash range
across ``clone`` by reference (``repro/kernel/fdtable.py``).

The table every process used to carry — whole dict copied and every object
acquired at each fork — is kept here verbatim as the oracle.  Clock-free.
"""

import random
import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import pytest

from repro.errors import AddressInUse, BadFileDescriptor
from repro.kernel import sim_function
from repro.kernel.fdtable import FD_MAX, FDTable, RESERVED_BASE, STASH_BASE, STASH_MAX
from repro.kernel.files import OpenFile
from repro.kernel.sockets import _RefCounted
from repro.mcr.config import MCRConfig
from repro.mcr.ctl import McrCtl
from repro.mcr.faults import FaultPlan
from repro.mcr.reinit.immutable import FdStash
from repro.mcr.reinit.replay import ReplayEngine
from repro.mcr.reinit.startup_log import StartupLog
from repro.servers import httpd
from repro.servers.catalog import boot as boot_server
from repro.workloads.ab import ApacheBench


class EagerFDTable:
    """The previous ``FDTable``, unchanged: the stash lives in the one
    entry dict, its numbers in ``_blocked_numbers``, and ``clone`` copies
    both and acquires every object."""

    def __init__(self) -> None:
        self._entries: Dict[int, Any] = {}
        self._blocked_numbers: set = set()
        self._next_reserved = RESERVED_BASE
        self._next_stash = STASH_BASE

    def install(self, obj: Any, fd: Optional[int] = None) -> int:
        if fd is None:
            fd = self._lowest_free()
        elif fd in self._entries:
            raise BadFileDescriptor(fd)
        self._entries[fd] = obj
        return fd

    def install_reserved(self, obj: Any) -> int:
        fd = self._next_reserved
        while fd in self._entries or fd in self._blocked_numbers:
            fd += 1
        if fd >= FD_MAX:
            raise BadFileDescriptor(fd)
        self._next_reserved = fd + 1
        self._entries[fd] = obj
        self._blocked_numbers.add(fd)
        return fd

    def install_stash(self, obj: Any) -> int:
        fd = self._next_stash
        while fd in self._entries or fd in self._blocked_numbers:
            fd += 1
        if fd >= STASH_MAX:
            raise BadFileDescriptor(fd)
        self._next_stash = fd + 1
        self._entries[fd] = obj
        self._blocked_numbers.add(fd)
        return fd

    def _lowest_free(self) -> int:
        fd = 0
        while fd in self._entries or fd in self._blocked_numbers:
            fd += 1
        if fd >= RESERVED_BASE:
            raise BadFileDescriptor(fd)
        return fd

    def get(self, fd: int) -> Any:
        try:
            return self._entries[fd]
        except KeyError:
            raise BadFileDescriptor(fd) from None

    def try_get(self, fd: int) -> Optional[Any]:
        return self._entries.get(fd)

    def close(self, fd: int) -> Any:
        try:
            return self._entries.pop(fd)
        except KeyError:
            raise BadFileDescriptor(fd) from None

    def close_open(self, fds: Iterable[int]) -> List[Any]:
        pop = self._entries.pop
        return [obj for obj in [pop(fd, None) for fd in fds] if obj is not None]

    def block_reuse(self, fd: int) -> None:
        self._blocked_numbers.add(fd)

    def __contains__(self, fd: int) -> bool:
        return fd in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[int, Any]]:
        return iter(sorted(self._entries.items()))

    def fds(self) -> List[int]:
        return sorted(self._entries)

    def clone(self) -> "EagerFDTable":
        twin = EagerFDTable()
        twin._entries = dict(self._entries)
        twin._blocked_numbers = set(self._blocked_numbers)
        twin._next_reserved = self._next_reserved
        twin._next_stash = self._next_stash
        for obj in twin._entries.values():
            acquire = getattr(obj, "acquire", None)
            if acquire is not None:
                acquire()
        return twin

    # What the callers of the old table did with it, spelled with its own
    # methods, so both sides answer to the same three names.

    def close_stash(self) -> List[Any]:
        """``ReplayEngine.finish``: close every stash fd that is open."""
        return self.close_open([fd for fd in self.fds() if fd >= STASH_BASE])

    def close_all(self) -> List[Any]:
        """``terminate_process``: close fd by fd, in fd order."""
        return [self.close(fd) for fd in self.fds()]

    def alloc_state(self) -> Dict[str, Any]:
        """``checkpoint/image.py``'s ``fd_alloc`` record."""
        return {
            "next_reserved": self._next_reserved,
            "next_stash": self._next_stash,
            "blocked": sorted(self._blocked_numbers),
        }


class Obj:
    """A refcounted kernel object; ``ident`` pairs it with its twin on the
    other side of the comparison."""

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.refcount = 1
        self.died_at: Optional[int] = None

    def acquire(self) -> None:
        self.refcount += 1

    def release(self) -> None:
        self.refcount -= 1


def _holders(tables: List[Any], key=lambda obj: obj.ident) -> Dict[Any, int]:
    """Object -> how many references the tables account for: one per own
    slot, one per distinct stash layer (``obj.refcount`` = own slots
    holding it + layers holding it)."""
    held: Dict[Any, int] = {}
    layers = {}
    for table in tables:
        for obj in table._entries.values():
            held[key(obj)] = held.get(key(obj), 0) + 1
        layer = getattr(table, "_stash", None)
        if layer is not None:
            layers[id(layer)] = layer
    for layer in layers.values():
        assert layer.sharers == sum(1 for t in tables if t._stash is layer)
        for obj in layer.entries.values():
            held[key(obj)] = held.get(key(obj), 0) + 1
    return held


PROBES = (
    list(range(0, 14))
    + list(range(RESERVED_BASE, RESERVED_BASE + 6))
    + list(range(STASH_BASE, STASH_BASE + 24))
    + [STASH_MAX + 7]
)


class Family:
    """The same family of tables kept twice — new and eager — with every
    operation applied to both and every observable compared."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.new: List[FDTable] = [FDTable()]
        self.old: List[EagerFDTable] = [EagerFDTable()]
        self.objects: Tuple[Dict[int, Obj], Dict[int, Obj]] = ({}, {})
        self.op_index = 0

    def make(self) -> Tuple[Obj, Obj]:
        ident = len(self.objects[0])
        pair = Obj(ident), Obj(ident)
        self.objects[0][ident], self.objects[1][ident] = pair
        return pair

    def both(self, index: int, call) -> Any:
        """Run ``call(table, side)`` on both sides; same value or same
        exception type, which is returned."""
        outcomes = []
        for side, table in enumerate((self.new[index], self.old[index])):
            try:
                outcomes.append(call(table, side))
            except BadFileDescriptor as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1], (self.op_index, outcomes)
        return outcomes[0]

    def drop(self, side: int, objs: List[Obj]) -> None:
        """What ``Kernel.drop_reference`` does to a refcount."""
        for obj in objs:
            obj.release()
            if obj.refcount == 0 and obj.died_at is None:
                obj.died_at = self.op_index

    def step(self) -> None:
        rng = self.rng
        self.op_index += 1
        index = rng.randrange(len(self.new))
        op = rng.choice(
            ["install", "install", "install_at", "install_reserved", "install_stash",
             "install_stash", "install_stash", "clone", "clone", "close", "close",
             "close_part", "close_stash", "close_all", "dup", "block_reuse", "restore"]
        )
        pair = self.make()
        if op == "install":
            self.both(index, lambda t, s: t.install(pair[s]))
        elif op == "install_at":
            # Anywhere but ahead of the stash cursor: no caller installs
            # there, and the table reports every number the cursor has
            # passed as handed out without keeping a record of holes.
            cursor = self.old[index]._next_stash
            fd = rng.choice([fd for fd in PROBES if not cursor <= fd < STASH_MAX])
            self.both(index, lambda t, s: t.install(pair[s], fd=fd))
        elif op == "install_reserved":
            self.both(index, lambda t, s: t.install_reserved(pair[s]))
        elif op == "install_stash":
            self.both(index, lambda t, s: t.install_stash(pair[s]))
        elif op == "clone" and len(self.new) < 7:
            self.new.append(self.new[index].clone())
            self.old.append(self.old[index].clone())
        elif op == "close":
            open_fds = self.old[index].fds()
            fd = rng.choice(open_fds) if open_fds and rng.random() < 0.8 else rng.choice(PROBES)

            def close(table, side):
                obj = table.close(fd)
                self.drop(side, [obj])
                return obj.ident

            self.both(index, close)
        elif op == "close_part":
            # Some of the stash, some own fds, some that are not open.
            candidates = [fd for fd in self.old[index].fds() if fd >= STASH_BASE] + PROBES[:6]
            fds = rng.sample(candidates, rng.randrange(len(candidates) + 1))

            def close_part(table, side):
                objs = [table.close(fd) for fd in fds if fd in table]
                self.drop(side, objs)
                return [obj.ident for obj in objs]

            self.both(index, close_part)
        elif op == "close_stash":
            # Whole stash: which objects come back differs by design (the
            # last sharer gets them all), what it leaves behind may not.
            self.drop(0, self.new[index].close_stash())
            self.drop(1, self.old[index].close_stash())
        elif op == "close_all" and len(self.new) > 1:
            self.drop(0, self.new.pop(index).close_all())
            self.drop(1, self.old.pop(index).close_all())
            return self.check()
        elif op == "dup":
            open_fds = self.old[index].fds()
            fd = rng.choice(open_fds) if open_fds else 3

            def dup(table, side):
                obj = table.get(fd)
                obj.acquire()
                return table.install(obj)

            self.both(index, dup)
        elif op == "block_reuse":
            fd = rng.choice(PROBES)
            self.new[index].block_reuse(fd)
            self.old[index].block_reuse(fd)
        elif op == "restore":
            # A checkpoint round trip of the allocator state alone.
            self.new[index].load_alloc_state(self.new[index].alloc_state())
        self.check()

    def check(self) -> None:
        for new, old in zip(self.new, self.old):
            assert new.fds() == old.fds()
            assert [(fd, o.ident) for fd, o in new.items()] == [
                (fd, o.ident) for fd, o in old.items()
            ]
            assert len(new) == len(old)
            assert new.alloc_state() == old.alloc_state()
            for fd in PROBES:
                assert (fd in new) == (fd in old)
                theirs = old.try_get(fd)
                mine = new.try_get(fd)
                assert (mine and mine.ident) == (theirs and theirs.ident)
                try:
                    assert new.get(fd) is mine and theirs is not None
                except BadFileDescriptor:
                    assert theirs is None
        for side, tables in enumerate((self.new, self.old)):
            held = _holders(tables)
            for ident, obj in self.objects[side].items():
                if obj.died_at is None and ident in held:
                    assert obj.refcount == held[ident], (self.op_index, side, ident)


@pytest.mark.parametrize("seed", range(12))
def test_shared_stash_matches_the_eager_table(seed):
    family = Family(seed)
    for _ in range(220):
        family.step()
    # Everything still open goes the way a tree is torn down ...
    family.op_index += 1
    while family.new:
        family.drop(0, family.new.pop().close_all())
        family.drop(1, family.old.pop().close_all())
    # ... and every object died at the same operation on both sides.
    new_objects, old_objects = family.objects
    installed = [i for i, obj in old_objects.items() if obj.died_at is not None]
    assert installed
    for ident in new_objects:
        assert new_objects[ident].died_at == old_objects[ident].died_at, ident
        assert new_objects[ident].refcount == old_objects[ident].refcount


def test_stash_range_exhaustion_raises_on_both_sides():
    new, old = FDTable(), EagerFDTable()
    new.load_alloc_state({"next_reserved": RESERVED_BASE, "next_stash": STASH_MAX - 1, "blocked": []})
    old._next_stash = STASH_MAX - 1
    assert new.install_stash(Obj(0)) == old.install_stash(Obj(0)) == STASH_MAX - 1
    for table in (new, old):
        with pytest.raises(BadFileDescriptor):
            table.install_stash(Obj(1))
    assert new.alloc_state()["next_stash"] == old.alloc_state()["next_stash"] == STASH_MAX


# -- one path: where the per-object work is allowed to live --------------------


class CountingDict(dict):
    """A stash dict that counts whole-dict walks."""

    walks = 0

    def values(self):
        CountingDict.walks += 1
        return super().values()

    def items(self):
        CountingDict.walks += 1
        return super().items()

    def __iter__(self):
        CountingDict.walks += 1
        return super().__iter__()


def test_clone_and_giving_a_share_up_never_walk_a_shared_stash():
    root = FDTable()
    stashed = [Obj(i) for i in range(50)]
    for obj in stashed:
        root.install_stash(obj)
    own = Obj(99)
    root.install(own)
    root._stash.entries = CountingDict(root._stash.entries)
    CountingDict.walks = 0
    children = [root.clone() for _ in range(5)]
    assert CountingDict.walks == 0
    assert own.refcount == 6 and all(obj.refcount == 1 for obj in stashed)
    assert all(child._stash is root._stash for child in children)
    # finish's GC and process exit: nothing comes back, nothing is walked,
    # until the last sharer lets go.
    assert [child.close_stash() for child in children[:3]] == [[], [], []]
    assert [obj.ident for obj in children[3].close_all()] == [99]
    assert children[4].close_all() == [own]
    assert CountingDict.walks == 0
    assert root.close_stash() == stashed
    assert root._stash is None and len(root) == 1


def test_the_acquire_over_a_stash_lives_in_the_private_copy_only():
    root = FDTable()
    stashed = [Obj(i) for i in range(8)]
    fds = [root.install_stash(obj) for obj in stashed]
    child = root.clone()
    layer = root._stash
    assert layer.sharers == 2 and all(obj.refcount == 1 for obj in stashed)
    # A write to a shared layer copies it first, with a reference each.
    child.install_stash(Obj(100))
    assert child._stash is not layer and layer.sharers == 1 and child._stash.sharers == 1
    assert all(obj.refcount == 2 for obj in stashed)
    # A layer nobody else shares is written in place.
    private = child._stash
    child.close(fds[0]).release()
    child.install_stash(Obj(101))
    assert child._stash is private and stashed[0].refcount == 1
    assert fds[0] in root and fds[0] not in child


# -- isolation, through the kernel ---------------------------------------------


@sim_function
def _idle(sys):
    while True:
        yield from sys.nanosleep(1_000_000)


def _view(process):
    return [(fd, id(obj)) for fd, obj in process.fdtable.items()]


def _assert_refcounts_add_up(kernel):
    tables = [p.fdtable for p in kernel.processes.values() if not p.exited]
    for obj, held in _holders(tables, key=lambda obj: obj).items():
        assert obj.refcount == held, obj


def test_a_child_that_closes_or_installs_a_stash_fd_disturbs_nobody(kernel):
    kernel.fs.create("/etc/x", b"x")
    parent = kernel.spawn_process(_idle, name="parent")
    files = [kernel.fs.open("/etc/x", "r") for _ in range(6)]
    fds = [parent.fdtable.install_stash(f) for f in files]

    closed = []

    @sim_function
    def closer(sys, fd):
        yield from sys.close(fd)
        closed.append(fd)
        yield from _idle(sys)

    caller = next(iter(parent.threads.values()))
    child = kernel.do_fork(caller, closer, (fds[2],), "closer")
    sibling = kernel.do_fork(caller, _idle, (), "sibling")
    before_parent, before_sibling = _view(parent), _view(sibling)
    assert child.fdtable._stash is parent.fdtable._stash is sibling.fdtable._stash
    kernel.run(until=lambda: closed, max_steps=2_000)
    assert fds[2] not in child.fdtable and len(child.fdtable) == len(parent.fdtable) - 1
    assert _view(parent) == before_parent and _view(sibling) == before_sibling
    assert sibling.fdtable._stash is parent.fdtable._stash is not child.fdtable._stash
    # The shared layer still holds its one reference on everything; the
    # child's private copy holds one on what it kept.
    assert files[2].refcount == 1 and files[0].refcount == 2
    _assert_refcounts_add_up(kernel)
    # Installing one is the same story from the other direction.
    extra = kernel.fs.open("/etc/x", "r")
    new_fd = sibling.fdtable.install_stash(extra)
    assert new_fd not in parent.fdtable and new_fd not in child.fdtable
    assert _view(parent) == before_parent
    _assert_refcounts_add_up(kernel)
    # Teardown in any order leaves no reference behind.
    for process in (parent, child, sibling):
        kernel.terminate_process(process)
    assert all(f.refcount == 0 for f in files) and extra.refcount == 0


# -- one way to drop a reference -----------------------------------------------


def test_evicting_the_last_reference_to_a_listener_frees_its_port(kernel):
    process = kernel.spawn_process(_idle, name="new-root")
    net = kernel.net
    inherited = net.bind_listen(net.new_socket(), 80)
    squatter = net.bind_listen(net.new_socket(), 8080)
    stash = FdStash()
    stash.add(1, 3, process.fdtable.install_stash(inherited))
    # A foreign descriptor landed on the recorded number first, and this
    # table holds the only reference to it.
    process.fdtable.install(squatter, fd=3)
    engine = ReplayEngine(None, StartupLog(), stash)
    engine._claim_inherited(process, 1, 3)
    assert process.fdtable.get(3) is inherited
    assert squatter.refcount == 0 and squatter.closed
    assert net.listener_for(8080) is None
    net.bind_listen(net.new_socket(), 8080)  # no AddressInUse: the port is free
    with pytest.raises(AddressInUse):
        net.bind_listen(net.new_socket(), 80)


def test_the_stash_gc_closes_what_only_the_stash_held(kernel):
    root = kernel.spawn_process(_idle, name="new-root")
    net = kernel.net
    net.bind_listen(net.new_socket(), 80)
    client = net.connect(80)
    orphan = client.peer  # a server end nobody but the stash refers to
    stash = FdStash()
    stash.add(1, 5, root.fdtable.install_stash(orphan))
    worker = kernel.do_fork(next(iter(root.threads.values())), _idle, (), "worker")
    engine = ReplayEngine(None, StartupLog(), stash)
    engine.finish(root)
    assert root.fdtable._stash is None and worker.fdtable._stash is None
    assert orphan.refcount == 0 and orphan.closed


# -- count guards on a real update ---------------------------------------------

WORKERS = 32


def _boot_prefork(workers: int = WORKERS):
    world = boot_server(
        "httpd",
        make_program=lambda version=1: httpd.make_program(version, server_processes=workers),
    )
    workload = ApacheBench(80, requests=12, concurrency=2, reconnect_stall_ns=100_000_000)
    clients = workload(world.kernel)
    world.kernel.run(until=lambda: workload.latency.count >= 4, max_steps=2_000_000)
    return world, workload, clients


def _refcounts(root) -> Dict[int, Tuple[Any, int]]:
    return {
        id(obj): (obj, obj.refcount)
        for process in root.tree()
        for _fd, obj in process.fdtable.items()
    }


def _assert_no_layer_left(kernel):
    assert all(p.fdtable._stash is None for p in kernel.processes.values())


def _container_bytes(table: FDTable) -> int:
    return sys.getsizeof(table._entries) + sys.getsizeof(table._blocked_numbers)


def test_a_rolling_update_holds_the_stash_once(monkeypatch):
    world, workload, clients = _boot_prefork()
    kernel = world.kernel
    at_entry = _refcounts(world.root)

    # acquire() calls made while a clone is running, against what the
    # cloned tables themselves held.
    counts = {"in_clone": False, "acquires": 0, "own_entries": 0, "clones": 0}
    for cls in (_RefCounted, OpenFile):
        original = cls.acquire

        def counting_acquire(self, _original=original):
            counts["acquires"] += counts["in_clone"]
            _original(self)

        monkeypatch.setattr(cls, "acquire", counting_acquire)
    original_clone = FDTable.clone

    def counting_clone(self):
        counts["own_entries"] += len(self._entries)
        counts["clones"] += 1
        counts["in_clone"] = True
        try:
            return original_clone(self)
        finally:
            counts["in_clone"] = False

    monkeypatch.setattr(FDTable, "clone", counting_clone)

    seen = {}
    original_finish = ReplayEngine.finish

    def inspecting_finish(self, new_root):
        tables = [p.fdtable for p in new_root.tree()]
        layers = {id(t._stash.entries): t._stash for t in tables if t._stash is not None}
        seen["processes"] = len(tables)
        seen["layers"] = len(layers)
        seen["stash_fds"] = len(self.stash)
        seen["sharers"] = [layer.sharers for layer in layers.values()]
        seen["container_bytes"] = sum(_container_bytes(t) for t in tables)
        return original_finish(self, new_root)

    monkeypatch.setattr(ReplayEngine, "finish", inspecting_finish)
    result = McrCtl(kernel, world.session).live_update(
        httpd.make_program(2, server_processes=WORKERS),
        config=MCRConfig(update_mode="rolling", rolling_batch=WORKERS // 4),
    )
    assert result.committed, result.error
    assert counts["clones"] >= WORKERS
    assert counts["acquires"] <= counts["own_entries"]
    # Just before finish: one stash dict for the whole new tree, and what
    # each table carries of its own is small (it was ~18 KB a process here,
    # ~140 KB at 256 workers, when every table held the stash).
    assert seen["processes"] > WORKERS and seen["stash_fds"] > 5 * WORKERS
    assert seen["layers"] == 1 and seen["sharers"] == [seen["processes"]]
    assert seen["container_bytes"] <= 64 * 1024
    _assert_no_layer_left(kernel)
    for obj, refcount in at_entry.values():
        assert obj.refcount == refcount, obj
    kernel.run(until=lambda: all(c.exited for c in clients), max_steps=4_000_000)
    assert workload.completed == workload.requests and workload.errors == 0


@pytest.mark.parametrize(
    "site,nth",
    [("restart.fd_handoff", 1), ("restart.spawn", 1), ("reinit.replay", 60), ("transfer.memory", 1)],
)
def test_a_rolled_back_update_leaves_no_layer_and_no_reference(site, nth):
    world, workload, clients = _boot_prefork(8)
    kernel = world.kernel
    at_entry = _refcounts(world.root)
    result = McrCtl(kernel, world.session).live_update(
        httpd.make_program(2, server_processes=8),
        config=MCRConfig(faults=FaultPlan().at(site, nth=nth)),
    )
    assert result.rolled_back and result.rollback_verified, result.error
    _assert_no_layer_left(kernel)
    for obj, refcount in at_entry.values():
        assert obj.refcount == refcount, obj
    kernel.run(until=lambda: all(c.exited for c in clients), max_steps=4_000_000)
    assert workload.completed == workload.requests and workload.errors == 0


def test_an_execd_helper_keeps_its_share_across_exec(kernel):
    root = kernel.spawn_process(_idle, name="new-root")
    kernel.fs.create("/etc/x", b"x")
    stashed = kernel.fs.open("/etc/x", "r")
    root.fdtable.install_stash(stashed)
    seen = []

    def helper_image(sys):
        seen.append(sys.process.fdtable._stash)
        yield from sys.nanosleep(1_000)

    @sim_function
    def exec_child(sys):
        yield from sys.exec("helper", helper_image)

    child = kernel.do_fork(next(iter(root.threads.values())), exec_child, (), "exec-child")
    layer = root.fdtable._stash
    kernel.run(until=lambda: child.exited, max_steps=2_000)
    # The image changed, the descriptors did not; exit gave the share back.
    assert seen == [layer] and child.exited
    assert layer.sharers == 1 and stashed.refcount == 1


def test_an_opensshd_update_commits_and_serves():
    world = boot_server("opensshd")
    kernel = world.kernel
    holder = world.hold(3)
    holder.establish(kernel)
    assert holder.ready == 3
    result = McrCtl(kernel, world.session).live_update(world.make_program(2))
    assert result.committed, result.error
    _assert_no_layer_left(kernel)
    probe = world.spec.probe()  # one login + one EXEC: a forked, exec'd helper
    probe.run(kernel)
    assert probe.completed > 0 and probe.errors == 0


def test_one_table_and_no_knob():
    assert not hasattr(FDTable, "close_open")  # finish gives shares up instead
    assert FDTable.__init__.__code__.co_argcount == 1
