"""Simulated sockets: TCP-style streams, listeners, and Unix domain pairs.

Three kernel object kinds:

* ``ListeningSocket`` — bound to a port, holds an accept queue.
* ``StreamEndpoint`` — one side of an established connection; byte buffers
  in both directions.
* ``UnixEndpoint``  — one side of a Unix-domain socketpair; carries
  *messages* of ``(bytes, [kernel objects])`` so file descriptors can be
  passed between processes (SCM_RIGHTS).  This is the mechanism MCR uses
  for *global inheritance*: the first process of the new version receives
  every immutable fd of the old version over such a socket (paper §5).

All objects are refcounted open descriptions, shared across fork/dup.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AddressInUse, SimError
from repro.kernel.process import WaitQueue


class _RefCounted:
    def __init__(self) -> None:
        self.refcount = 1

    def acquire(self) -> None:
        self.refcount += 1

    def release(self) -> None:
        self.refcount -= 1


class _Waitable(_RefCounted):
    """A kernel object threads can park on (see ``process.WaitQueue``).

    ``waitq`` holds direct waiters (accept/recv/recvmsg on this object);
    ``watchers`` back-links every epoll instance whose interest set
    includes this object, so a readiness change here also re-polls
    ``epoll_wait`` parkers.  Mutations that could make a waiter ready must
    call :meth:`wake_waiters`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.waitq = WaitQueue()
        self.watchers: List["EpollObject"] = []

    def wake_waiters(self) -> None:
        self.waitq.kick()
        for epoll in self.watchers:
            epoll.waitq.kick()


class UnboundSocket(_RefCounted):
    """A fresh socket() before bind/connect (placeholder kernel object)."""

    kind = "socket"

    def __init__(self, sock_id: int) -> None:
        super().__init__()
        self.sock_id = sock_id


class ListeningSocket(_Waitable):
    """A bound, listening server socket with an accept queue."""

    kind = "listener"

    def __init__(self, sock_id: int, port: int, backlog: int = 128) -> None:
        super().__init__()
        self.sock_id = sock_id
        self.port = port
        self.backlog = backlog
        self.accept_queue: List["StreamEndpoint"] = []
        self.closed = False

    def can_accept(self) -> bool:
        return bool(self.accept_queue)

    def push_connection(self, server_end: "StreamEndpoint") -> None:
        if len(self.accept_queue) >= self.backlog:
            raise SimError(f"accept backlog full on port {self.port}")
        self.accept_queue.append(server_end)
        self.wake_waiters()

    def pop_connection(self) -> "StreamEndpoint":
        return self.accept_queue.pop(0)


class StreamEndpoint(_Waitable):
    """One side of an established stream connection."""

    kind = "stream"

    def __init__(self, conn_id: int, role: str) -> None:
        super().__init__()
        self.conn_id = conn_id
        self.role = role  # "server" | "client"
        self.inbox = bytearray()
        self.peer: Optional["StreamEndpoint"] = None
        self.closed = False
        self.peer_closed = False

    def send(self, data: bytes) -> int:
        if self.closed:
            raise SimError("send on closed socket")
        if self.peer is None or self.peer.closed:
            raise SimError("send on disconnected socket (EPIPE)")
        self.peer.inbox.extend(data)
        self.peer.wake_waiters()
        return len(data)

    def readable(self) -> bool:
        return bool(self.inbox) or self.peer_closed or self.closed

    def recv(self, size: int) -> bytes:
        data = bytes(self.inbox[:size])
        del self.inbox[:size]
        return data

    def close(self) -> None:
        self.closed = True
        if self.peer is not None:
            self.peer.peer_closed = True
            # A recv blocked on the peer now returns EOF.
            self.peer.wake_waiters()
        self.wake_waiters()


class UnixEndpoint(_Waitable):
    """One side of a Unix-domain socketpair carrying (data, fds) messages."""

    kind = "unix"

    def __init__(self) -> None:
        super().__init__()
        self.inbox: List[Tuple[bytes, List[Any]]] = []
        self.peer: Optional["UnixEndpoint"] = None
        self.closed = False

    def sendmsg(self, data: bytes, objects: Optional[List[Any]] = None) -> None:
        if self.peer is None or self.peer.closed:
            raise SimError("sendmsg on disconnected unix socket")
        self.peer.inbox.append((data, list(objects or [])))
        self.peer.wake_waiters()

    def readable(self) -> bool:
        return bool(self.inbox)

    def recvmsg(self) -> Tuple[bytes, List[Any]]:
        return self.inbox.pop(0)

    def close(self) -> None:
        """Drop this side, discarding undelivered messages.

        In-flight messages may carry kernel-object references (SCM_RIGHTS
        fd passing); a receiver holds no refcount on them until recvmsg
        installs them, so draining the queue is the correct disposal — it
        must not release objects the sender's fd table still owns.
        """
        self.closed = True
        self.inbox.clear()


class EpollObject(_Waitable):
    """An epoll instance: in-kernel interest set + readiness query.

    The interest set lives *in the kernel object*, not in program memory —
    which is why MCR can restore event-driven servers: the new version
    inherits the epoll fd and finds every connection still registered.
    Watched entries are (fd_number, kernel_object) pairs; fd numbers are
    preserved across inheritance, so the numbers stay meaningful.
    """

    kind = "epoll"

    def __init__(self) -> None:
        super().__init__()
        self.watched: Dict[int, Any] = {}

    def add(self, fd: int, obj: Any) -> None:
        self.watched[fd] = obj
        watchers = getattr(obj, "watchers", None)
        if watchers is not None and self not in watchers:
            watchers.append(self)
        # The new entry may already be ready: re-poll our own waiters.
        self.waitq.kick()

    def remove(self, fd: int) -> None:
        obj = self.watched.pop(fd, None)
        watchers = getattr(obj, "watchers", None)
        if (
            watchers is not None
            and self in watchers
            and obj not in self.watched.values()
        ):
            watchers.remove(self)

    def ready_fds(self) -> List[int]:
        ready: List[int] = []
        for fd, obj in self.watched.items():
            if obj.kind == "listener" and obj.can_accept():
                ready.append(fd)
            elif obj.kind == "stream" and obj.readable():
                ready.append(fd)
            elif obj.kind == "unix" and obj.readable():
                ready.append(fd)
        return sorted(ready)


class NetworkStack:
    """World-level network state: the port namespace and connection ids."""

    def __init__(self) -> None:
        self._listeners: Dict[int, ListeningSocket] = {}
        self._next_sock_id = 1
        self._next_conn_id = 1
        # Socketpairs and epoll instances carry no id; these two counters
        # only keep the count a checkpoint image records.
        self._next_pair_id = 1
        self._next_epoll_id = 1
        self.total_connections = 0

    def new_epoll(self) -> EpollObject:
        self._next_epoll_id += 1
        return EpollObject()

    def new_socket(self) -> UnboundSocket:
        sock = UnboundSocket(self._next_sock_id)
        self._next_sock_id += 1
        return sock

    def bind_listen(self, sock: UnboundSocket, port: int, backlog: int = 128) -> ListeningSocket:
        existing = self._listeners.get(port)
        if existing is not None and not existing.closed:
            raise AddressInUse(port)
        listener = ListeningSocket(sock.sock_id, port, backlog)
        self._listeners[port] = listener
        return listener

    def listener_for(self, port: int) -> Optional[ListeningSocket]:
        listener = self._listeners.get(port)
        if listener is not None and listener.closed:
            return None
        return listener

    def release_port(self, listener: ListeningSocket) -> None:
        listener.closed = True
        if self._listeners.get(listener.port) is listener:
            del self._listeners[listener.port]

    def adopt_listener(self, listener: ListeningSocket) -> None:
        """Re-register an inherited listener (MCR fd inheritance path).

        The listener object (and its in-kernel accept queue) is shared
        between old and new versions; adoption is idempotent.
        """
        self._listeners[listener.port] = listener
        listener.closed = False
        # Connections queued before adoption may satisfy new-version
        # acceptors that parked before the handover completed.
        listener.wake_waiters()

    def connect(self, port: int) -> StreamEndpoint:
        """Client-side connect: enqueue a server endpoint, return client's."""
        listener = self.listener_for(port)
        if listener is None:
            raise SimError(f"connection refused: port {port}")
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        server_end = StreamEndpoint(conn_id, "server")
        client_end = StreamEndpoint(conn_id, "client")
        server_end.peer = client_end
        client_end.peer = server_end
        listener.push_connection(server_end)
        self.total_connections += 1
        return client_end

    def socketpair(self) -> Tuple[UnixEndpoint, UnixEndpoint]:
        self._next_pair_id += 1
        a, b = UnixEndpoint(), UnixEndpoint()
        a.peer = b
        b.peer = a
        return a, b
