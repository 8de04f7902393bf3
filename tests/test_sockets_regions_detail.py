"""Detail tests: socket object semantics and region block chaining."""

import pytest

from repro.errors import AddressInUse, SimError
from repro.kernel.sockets import EpollObject, NetworkStack
from repro.mem.address_space import AddressSpace
from repro.mem.ptmalloc import PtMallocHeap
from repro.mem.regions import BLOCK_HEADER_SIZE, NestedPool, RegionAllocator


@pytest.fixture
def net():
    return NetworkStack()


class TestNetworkStack:
    def test_connect_lands_in_accept_queue(self, net):
        sock = net.new_socket()
        listener = net.bind_listen(sock, 80)
        client = net.connect(80)
        assert listener.can_accept()
        server_end = listener.pop_connection()
        assert server_end.peer is client and client.peer is server_end

    def test_double_bind_rejected(self, net):
        net.bind_listen(net.new_socket(), 80)
        with pytest.raises(AddressInUse):
            net.bind_listen(net.new_socket(), 80)

    def test_release_then_rebind(self, net):
        listener = net.bind_listen(net.new_socket(), 80)
        net.release_port(listener)
        net.bind_listen(net.new_socket(), 80)  # no AddressInUse

    def test_adopt_listener_is_idempotent(self, net):
        listener = net.bind_listen(net.new_socket(), 80)
        net.release_port(listener)  # old version died
        net.adopt_listener(listener)  # new version inherits it
        assert net.listener_for(80) is listener
        assert not listener.closed
        net.adopt_listener(listener)
        assert net.listener_for(80) is listener

    def test_connect_refused_without_listener(self, net):
        with pytest.raises(SimError):
            net.connect(12345)

    def test_stream_eof_semantics(self, net):
        net.bind_listen(net.new_socket(), 80)
        client = net.connect(80)
        server = net.listener_for(80).pop_connection()
        client.send(b"hi")
        assert server.recv(10) == b"hi"
        client.close()
        assert server.readable()  # EOF is a readable event
        assert server.recv(10) == b""
        with pytest.raises(SimError):
            server.send(b"too late")

    def test_epoll_tracks_all_kinds(self, net):
        listener = net.bind_listen(net.new_socket(), 80)
        a, b = net.socketpair()
        epoll = net.new_epoll()
        epoll.add(3, listener)
        epoll.add(4, a)
        assert epoll.ready_fds() == []
        net.connect(80)
        b.sendmsg(b"m")
        assert epoll.ready_fds() == [3, 4]
        epoll.remove(3)
        assert epoll.ready_fds() == [4]

    def test_backlog_limit(self, net):
        listener = net.bind_listen(net.new_socket(), 80, backlog=2)
        net.connect(80)
        net.connect(80)
        with pytest.raises(SimError):
            net.connect(80)


class TestRegionChaining:
    def _heap(self):
        space = AddressSpace()
        heap = PtMallocHeap(space)
        heap.end_startup()
        return space, heap

    def test_blocks_chained_in_memory(self):
        space, heap = self._heap()
        region = RegionAllocator(heap, block_size=256)
        for _ in range(20):
            region.alloc(100)
        blocks = list(region.blocks())
        assert len(blocks) > 1
        for current, following in zip(blocks, blocks[1:]):
            assert space.read_word(current.base) == following.base
        assert space.read_word(blocks[-1].base) == 0

    def test_allocations_skip_header(self):
        space, heap = self._heap()
        region = RegionAllocator(heap, block_size=256)
        first = region.alloc(16)
        block = next(region.blocks())
        assert first >= block.base + BLOCK_HEADER_SIZE

    def test_pool_child_chain_in_memory(self):
        space, heap = self._heap()
        root = NestedPool(heap, block_size=256, name="root")
        child_a = root.create_child("a")
        child_b = root.create_child("b")
        head = root.first_block_base
        assert space.read_word(head + 8) == child_a.first_block_base
        assert space.read_word(child_a.first_block_base + 16) == child_b.first_block_base
        assert space.read_word(child_b.first_block_base + 16) == 0

    def test_child_destroy_rewrites_chain(self):
        space, heap = self._heap()
        root = NestedPool(heap, block_size=256)
        child_a = root.create_child("a")
        child_b = root.create_child("b")
        child_a.destroy()
        head = root.first_block_base
        assert space.read_word(head + 8) == child_b.first_block_base
        assert space.read_word(child_b.first_block_base + 16) == 0

    def test_oversized_block_chained_too(self):
        space, heap = self._heap()
        region = RegionAllocator(heap, block_size=256)
        region.alloc(16)
        big = region.alloc(5000)
        blocks = list(region.blocks())
        assert len(blocks) == 2
        assert space.read_word(blocks[0].base) == blocks[1].base
        assert blocks[1].base + BLOCK_HEADER_SIZE <= big
