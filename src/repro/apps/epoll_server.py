"""The paper's measurement server: multi-threaded epoll, single listening
port, fixed-size request → fixed-size response (§7.3, §7.4).

One worker coroutine runs per vCPU, each with its own epoll instance, all
watching the shared listener (the SO_REUSEPORT-style arrangement the
scaling experiments use).  Connections are non-keepalive by default, as
in the paper's short-connection workloads.
"""

from __future__ import annotations

from typing import Dict

from repro.core.sockets import EPOLLIN, SocketApi
from repro.errors import SocketError


class ServerStats:
    """Counters a server exposes to the experiment harness."""

    def __init__(self):
        self.requests = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.errors = 0
        self.active_connections = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ServerStats requests={self.requests} "
                f"bytes_in={self.bytes_in} bytes_out={self.bytes_out}>")


class EpollServer:
    """Request/response epoll server."""

    def __init__(self, sim, api: SocketApi, port: int,
                 request_size: int = 64, response_size: int = 64,
                 keepalive: bool = False, backlog: int = 1024,
                 app_cycles_per_request: float = 0.0, cores=None):
        self.sim = sim
        self.api = api
        self.port = port
        self.request_size = request_size
        self.response_size = response_size
        self.keepalive = keepalive
        self.backlog = backlog
        self.app_cycles = app_cycles_per_request
        self.cores = cores or []
        self.stats = ServerStats()
        self.listener = None
        self._response = b"R" * response_size

    def start(self, vm) -> list:
        """Spawn the listener setup plus one worker per vCPU; returns the
        worker processes."""
        boot = vm.spawn(self._boot(vm))
        return [boot]

    def _boot(self, vm):
        self.listener = yield from self.api.socket(0)
        yield from self.api.bind(self.listener, self.port)
        yield from self.api.listen(self.listener, self.backlog)
        yield from self.api.setsockopt(self.listener, "SO_REUSEPORT", 1)
        for vcpu in range(vm.vcpus):
            vm.spawn(self.worker(vcpu))

    def worker(self, vcpu: int):
        """One epoll loop: accept new connections, serve ready ones."""
        epoll = self.api.epoll_create()
        self.api.epoll_ctl(epoll, self.listener, EPOLLIN)
        buffers: Dict[int, bytearray] = {}
        socks: Dict[int, object] = {}
        while True:
            events = yield from self.api.epoll_wait(epoll, max_events=64,
                                                    vcpu=vcpu)
            for fd, _mask in events:
                if fd == self.listener.fd:
                    while True:
                        conn = self.api.accept_nonblocking(self.listener)
                        if conn is None:
                            break
                        self.stats.active_connections += 1
                        socks[conn.fd] = conn
                        buffers[conn.fd] = bytearray()
                        self.api.epoll_ctl(epoll, conn, EPOLLIN)
                    continue
                conn = socks.get(fd)
                if conn is None:
                    continue
                done = yield from self._serve_ready(conn, buffers[fd], vcpu)
                if done:
                    self.api.epoll_ctl(epoll, conn, 0)
                    yield from self.api.close(conn, vcpu)
                    socks.pop(fd, None)
                    buffers.pop(fd, None)
                    self.stats.active_connections -= 1

    def _serve_ready(self, conn, buffer: bytearray, vcpu: int):
        """Read what's there; respond once a full request accumulated.

        Returns True when the connection should be closed.
        """
        try:
            data = yield from self.api.recv_nonblocking(conn, 1 << 20)
        except SocketError:
            self.stats.errors += 1
            return True
        if data:
            buffer.extend(data)
            self.stats.bytes_in += len(data)
        while len(buffer) >= self.request_size:
            del buffer[:self.request_size]
            if self.app_cycles and self.cores:
                core = self.cores[vcpu % len(self.cores)]
                yield core.execute(self.app_cycles, "app.request")
            try:
                yield from self.api.send(conn, self._response, vcpu)
            except SocketError:
                self.stats.errors += 1
                return True
            self.stats.requests += 1
            self.stats.bytes_out += self.response_size
            if not self.keepalive:
                return True
        if conn.eof:
            return True
        return False
