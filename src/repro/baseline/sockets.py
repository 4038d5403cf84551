"""BSD socket facade over an in-guest stack (the status quo).

Same :class:`~repro.core.sockets.SocketApi` surface as NetKernel's
GuestLib, so identical application coroutines run on both architectures — the
property the paper's evaluation relies on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.guestlib import EpollInstance
from repro.core.sockets import SocketApi
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import (
    InvalidSocketStateError,
    NotConnectedError,
    SocketError,
)
from repro.stack.base import NetworkStack


class BaselineSocket:
    """Wraps a stack-level connection with readiness + waiter state."""

    def __init__(self, api: "BaselineSocketApi", fd: int, conn):
        self.api = api
        self.fd = fd
        self.conn = conn
        self.state = "created"
        self.errno: Optional[str] = None
        self.accept_q: Deque["BaselineSocket"] = deque()
        self._readable_waiters: List = []
        self._writable_waiters: List = []
        self._connect_waiters: List = []
        self.watchers: Set[EpollInstance] = set()
        self.bytes_sent = 0
        self.bytes_received = 0
        self._install_callbacks()

    def _install_callbacks(self) -> None:
        conn = self.conn
        conn.on_readable = lambda _c: self._wake_readable()
        conn.on_writable = lambda _c: self._wake_writable()
        conn.on_accept_ready = lambda _c: self._on_accept_ready()
        conn.on_connected = lambda _c: self._on_connected()
        conn.on_error = lambda _c, errno: self._on_error(errno)

    # -- readiness (mirrors NetKernelSocket's surface for EpollInstance) ----

    @property
    def readable(self) -> bool:
        if self.state == "listening":
            return bool(self.accept_q)
        return (self.conn.readable_bytes > 0 or self.conn.eof
                or bool(self.errno))

    @property
    def writable(self) -> bool:
        return (self.state == "connected"
                and self.conn.send_buf.free_space > 0)

    @property
    def eof(self) -> bool:
        return self.conn.eof

    # -- callback plumbing ---------------------------------------------------

    def _wake(self, waiters: List) -> None:
        pending, waiters[:] = list(waiters), []
        for event in pending:
            if not event.triggered:
                event.succeed()

    def _notify_epolls(self) -> None:
        for epoll in list(self.watchers):
            epoll.notify(self)

    def _wake_readable(self) -> None:
        self._wake(self._readable_waiters)
        self._notify_epolls()

    def _wake_writable(self) -> None:
        self._wake(self._writable_waiters)
        self._notify_epolls()

    def _on_accept_ready(self) -> None:
        # Materialize accepted connections eagerly so readiness is visible.
        while True:
            child_conn = self.api.stack.accept(self.conn)
            if child_conn is None:
                break
            child = self.api._wrap(child_conn)
            child.state = "connected"
            self.accept_q.append(child)
        self._wake_readable()

    def _on_connected(self) -> None:
        self.state = "connected"
        self._wake(self._connect_waiters)
        self._notify_epolls()

    def _on_error(self, errno: str) -> None:
        self.errno = errno
        self._wake(self._connect_waiters)
        self._wake(self._readable_waiters)
        self._wake(self._writable_waiters)
        self._notify_epolls()


class BaselineDgramSocket:
    """Wrapper over a stack-level UDP socket (datagram baseline path)."""

    def __init__(self, api: "BaselineSocketApi", fd: int, usock):
        self.api = api
        self.fd = fd
        self.usock = usock
        self.kind = "dgram"
        self.state = "created"
        self.errno = None
        self._readable_waiters: List = []
        self.watchers: Set[EpollInstance] = set()
        usock.on_readable = lambda _s: self._wake_readable()

    @property
    def readable(self) -> bool:
        return bool(self.usock.rx)

    @property
    def writable(self) -> bool:
        return True

    def _wake_readable(self) -> None:
        pending, self._readable_waiters[:] = list(self._readable_waiters), []
        for event in pending:
            if not event.triggered:
                event.succeed()
        for epoll in list(self.watchers):
            epoll.notify(self)


class BaselineSocketApi(SocketApi):
    """The in-guest stack behind classic syscalls."""

    def __init__(self, sim, stack: NetworkStack, cores: List[Core],
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        self.sim = sim
        self.stack = stack
        self.cores = cores
        self.cost = cost_model
        self.fd_table: Dict[int, BaselineSocket] = {}
        self._next_fd = 3

    # -- helpers ----------------------------------------------------------------

    def _core(self, vcpu: int) -> Core:
        return self.cores[vcpu % len(self.cores)]

    def _wrap(self, conn) -> BaselineSocket:
        fd = self._next_fd
        self._next_fd += 1
        sock = BaselineSocket(self, fd, conn)
        self.fd_table[fd] = sock
        return sock

    def _raise_errno(self, sock: BaselineSocket) -> None:
        if sock.errno:
            error = SocketError(sock.errno)
            error.errno_name = sock.errno
            raise error

    # -- API ----------------------------------------------------------------------

    def socket(self, vcpu: int = 0, sock_type: str = "stream"):
        yield self._core(vcpu).execute(
            self.cost.baseline_syscall_fixed * 0.3, "syscall.socket")
        if sock_type == "dgram":
            fd = self._next_fd
            self._next_fd += 1
            sock = BaselineDgramSocket(self, fd, self.stack.udp_socket())
            self.fd_table[fd] = sock
            return sock
        return self._wrap(self.stack.socket())

    def bind(self, sock, port: int, vcpu: int = 0):
        if getattr(sock, "kind", "stream") == "dgram":
            self.stack.udp_bind(sock.usock, port)
        else:
            self.stack.bind(sock.conn, port)
        sock.state = "bound"
        return 0
        yield  # pragma: no cover

    def listen(self, sock: BaselineSocket, backlog: int = 128, vcpu: int = 0):
        self.stack.listen(sock.conn, backlog)
        sock.state = "listening"
        return 0
        yield  # pragma: no cover

    def connect(self, sock: BaselineSocket, remote: Tuple[str, int],
                vcpu: int = 0):
        yield self._core(vcpu).execute(
            self.cost.baseline_syscall_fixed * 0.5, "syscall.connect")
        sock.state = "connecting"
        event = self.sim.event()
        sock._connect_waiters.append(event)
        self.stack.connect(sock.conn, remote)
        yield event
        if sock.errno:
            sock.state = "created"
            self._raise_errno(sock)
        sock.state = "connected"
        return 0

    def accept(self, listener: BaselineSocket, vcpu: int = 0):
        if listener.state != "listening":
            raise InvalidSocketStateError("accept() on a non-listener")
        while not listener.accept_q:
            event = self.sim.event()
            listener._readable_waiters.append(event)
            yield event
        return listener.accept_q.popleft()

    def accept_nonblocking(self, listener: BaselineSocket):
        if listener.state != "listening":
            raise InvalidSocketStateError("accept() on a non-listener")
        if listener.accept_q:
            return listener.accept_q.popleft()
        return None

    def send(self, sock: BaselineSocket, data: bytes, vcpu: int = 0):
        """Blocking send: one syscall + user→skb copy per chunk accepted."""
        if sock.state != "connected":
            raise NotConnectedError(f"send on {sock.state} socket")
        core = self._core(vcpu)
        total = 0
        while total < len(data):
            self._raise_errno(sock)
            accepted = self.stack.send(sock.conn, data[total:])
            if accepted:
                cycles = (self.cost.baseline_syscall_fixed
                          + accepted * self.cost.baseline_copy_per_byte)
                yield core.execute(cycles, "syscall.send")
                total += accepted
                sock.bytes_sent += accepted
            else:
                event = self.sim.event()
                sock._writable_waiters.append(event)
                yield event
        return total

    def recv(self, sock: BaselineSocket, max_bytes: int, vcpu: int = 0):
        core = self._core(vcpu)
        while True:
            self._raise_errno(sock)
            data = self.stack.recv(sock.conn, max_bytes)
            if data:
                cycles = (self.cost.baseline_syscall_fixed
                          + len(data) * self.cost.baseline_copy_per_byte)
                yield core.execute(cycles, "syscall.recv")
                sock.bytes_received += len(data)
                return data
            if sock.conn.eof:
                return b""
            if sock.state not in ("connected", "write_closed"):
                raise NotConnectedError(f"recv on {sock.state} socket")
            event = self.sim.event()
            sock._readable_waiters.append(event)
            yield event

    def recv_nonblocking(self, sock: BaselineSocket, max_bytes: int):
        data = self.stack.recv(sock.conn, max_bytes)
        if data:
            cycles = (self.cost.baseline_syscall_fixed
                      + len(data) * self.cost.baseline_copy_per_byte)
            yield self._core(0).execute(cycles, "syscall.recv")
            sock.bytes_received += len(data)
        return data

    def close(self, sock, vcpu: int = 0):
        if sock.state == "closed":
            return 0
        sock.state = "closed"
        self.fd_table.pop(sock.fd, None)
        for epoll in list(sock.watchers):
            epoll.unwatch(sock)
        if getattr(sock, "kind", "stream") == "dgram":
            self.stack.udp_close(sock.usock)
        else:
            self.stack.close(sock.conn)
        return 0
        yield  # pragma: no cover

    def sendto(self, sock: BaselineDgramSocket, data: bytes,
               dest: Tuple[str, int], vcpu: int = 0):
        cycles = (self.cost.baseline_syscall_fixed
                  + len(data) * self.cost.baseline_copy_per_byte)
        yield self._core(vcpu).execute(cycles, "syscall.sendto")
        return self.stack.udp_sendto(sock.usock, data, dest)

    def recvfrom(self, sock: BaselineDgramSocket, max_bytes: int,
                 vcpu: int = 0):
        core = self._core(vcpu)
        while True:
            item = self.stack.udp_recvfrom(sock.usock, max_bytes)
            if item is not None:
                data, source = item
                cycles = (self.cost.baseline_syscall_fixed
                          + len(data) * self.cost.baseline_copy_per_byte)
                yield core.execute(cycles, "syscall.recvfrom")
                return data, source
            event = self.sim.event()
            sock._readable_waiters.append(event)
            yield event

    def setsockopt(self, sock: BaselineSocket, option: str, value: int,
                   vcpu: int = 0):
        return 0
        yield  # pragma: no cover

    def shutdown(self, sock: BaselineSocket, vcpu: int = 0):
        """shutdown(SHUT_WR): FIN the write side, keep receiving."""
        self.stack.close(sock.conn)  # FIN after buffered data drains
        sock.state = "write_closed"
        return 0
        yield  # pragma: no cover

    # -- epoll (reuses the level-triggered emulation) -----------------------------

    def epoll_create(self) -> EpollInstance:
        epoll = EpollInstance(self, self._next_fd)
        self._next_fd += 1
        return epoll

    def epoll_ctl(self, epoll: EpollInstance, sock: BaselineSocket,
                  mask: int) -> None:
        if mask == 0:
            epoll.unwatch(sock)
        else:
            epoll.watch(sock, mask)

    def epoll_wait(self, epoll: EpollInstance, max_events: int = 64,
                   timeout: Optional[float] = None, vcpu: int = 0):
        deadline = None if timeout is None else self.sim.now + timeout
        while True:
            events = epoll.poll_ready(max_events)
            if events:
                return events
            if deadline is not None:
                # Guard against float rounding: now + (deadline - now) can
                # land a hair below deadline and would re-arm forever.
                remaining = deadline - self.sim.now
                if remaining <= 1e-12:
                    return []
            waiter = self.sim.event()
            epoll._waiters.append(waiter)
            if deadline is None:
                yield waiter
            else:
                yield self.sim.any_of(
                    [waiter, self.sim.timeout(remaining)])
