"""Tests for the memcached-style server and its semantic update."""

import pytest

import repro
from repro.kernel import Kernel, sim_function
from repro.mcr.ctl import McrCtl
from repro.servers import memcache
from repro.servers.memcache import PORT_MEMCACHE, entry_checksum
from repro.workloads.client import connect_with_retry, recv_line


@sim_function
def _mc_client(sys, commands, replies):
    fd = yield from connect_with_retry(sys, PORT_MEMCACHE)
    for command in commands:
        yield from sys.send(fd, (command + "\n").encode())
        line = yield from recv_line(sys, fd)
        replies.append(line.decode().strip())
    yield from sys.close(fd)


def _talk(world, commands):
    replies = []
    world.kernel.spawn_process(_mc_client, args=(commands, replies))
    world.kernel.run(
        max_steps=500_000, until=lambda: len(replies) == len(commands)
    )
    assert len(replies) == len(commands), replies
    return replies


class TestProtocol:
    def test_set_get_del(self):
        world = repro.boot("memcache")
        replies = _talk(world, [
            "SET alpha one", "GET alpha", "DEL alpha", "GET alpha", "NSTATS",
        ])
        assert replies[0] == "STORED"
        assert replies[1] == "VALUE one"
        assert replies[2] == "DELETED"
        assert replies[3] == "MISS"
        assert replies[4].startswith("STATS items=0 hits=1 misses=1")

    def test_overwrite_keeps_count(self):
        world = repro.boot("memcache")
        replies = _talk(world, ["SET k v1", "SET k v2", "GET k", "NSTATS"])
        assert replies[2] == "VALUE v2"
        assert "items=1" in replies[3]

    def test_bucket_chains(self):
        """Colliding keys chain correctly and delete from mid-chain."""
        world = repro.boot("memcache")
        # Keys with equal byte sums collide by construction.
        a, b = "ab", "ba"
        assert memcache.key_hash(a) == memcache.key_hash(b)
        replies = _talk(world, [
            f"SET {a} first", f"SET {b} second",
            f"GET {a}", f"GET {b}",
            f"DEL {a}", f"GET {b}", f"GET {a}",
        ])
        assert replies[2] == "VALUE first"
        assert replies[3] == "VALUE second"
        assert replies[5] == "VALUE second"
        assert replies[6] == "MISS"

    def test_checksum_verified_in_v3(self):
        world = repro.boot("memcache", version=3)
        replies = _talk(world, ["SET k vvv", "GET k"])
        assert replies == ["STORED", "VALUE vvv"]


class TestSemanticUpdate:
    def _populate(self, world, n=6):
        commands = [f"SET key{i} value{i}" for i in range(n)]
        assert _talk(world, commands) == ["STORED"] * n

    def test_plain_update_v2_preserves_cache(self):
        world = repro.boot("memcache")
        self._populate(world)
        result = repro.live_update(world, version=2)
        assert result.committed, result.error
        replies = _talk(world, ["GET key0", "GET key5", "NSTATS"])
        assert replies[0] == "VALUE value0"
        assert replies[1] == "VALUE value5"
        assert "items=6" in replies[2] and replies[2].endswith("v2")

    def test_v3_without_handler_serves_corrupt(self):
        """Mutable tracing alone defaults the checksum -> v3 rejects all
        transferred entries: the paper's 'semantic change needs user
        code' case, made visible."""
        world = repro.boot("memcache")
        self._populate(world)
        result = repro.live_update(
            world, program=memcache.make_program(3, with_st_handler=False)
        )
        assert result.committed, result.error
        replies = _talk(world, ["GET key0", "GET key1"])
        assert replies == ["CORRUPT", "CORRUPT"]

    def test_v3_with_handler_rederives_checksums(self):
        world = repro.boot("memcache")
        self._populate(world)
        result = repro.live_update(world, program=memcache.make_program(3))
        assert result.committed, result.error
        replies = _talk(world, ["GET key0", "GET key3", "SET fresh new", "GET fresh"])
        assert replies[0] == "VALUE value0"
        assert replies[1] == "VALUE value3"
        assert replies[3] == "VALUE new"

    def test_chain_structure_survives_update(self):
        world = repro.boot("memcache")
        a, b, c = "ab", "ba", "ca"  # 'ab','ba' collide
        _talk(world, [f"SET {a} one", f"SET {b} two", f"SET {c} three"])
        result = repro.live_update(world, version=2)
        assert result.committed, result.error
        replies = _talk(world, [f"GET {a}", f"GET {b}", f"GET {c}", f"DEL {b}", f"GET {a}"])
        assert replies[0] == "VALUE one"
        assert replies[1] == "VALUE two"
        assert replies[2] == "VALUE three"
        assert replies[4] == "VALUE one"  # chain repaired around the delete

    def test_checksum_helper(self):
        assert entry_checksum("k", "v") == entry_checksum("k", "v")
        assert entry_checksum("k", "v") != entry_checksum("k", "w")
