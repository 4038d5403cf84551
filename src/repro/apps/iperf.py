"""Bulk TCP stream applications (the §7.3/§7.4 throughput workloads).

:class:`StreamSender` writes fixed-size messages as fast as the socket
accepts them for a configured duration; :class:`StreamReceiver` drains and
counts.  Goodput is measured at the application boundary, matching how
the paper reports send/receive throughput.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.sockets import SocketApi
from repro.errors import SocketError


class StreamStats:
    """Per-direction byte, message and error counters."""

    def __init__(self):
        self.bytes = 0
        self.messages = 0
        self.errors = 0


class StreamSender:
    """Sends ``message_size``-byte messages for ``duration`` seconds."""

    def __init__(self, sim, api: SocketApi, remote: Tuple[str, int],
                 message_size: int = 8192, duration: float = 1.0,
                 streams: int = 1):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.message_size = message_size
        self.duration = duration
        self.streams = streams
        self.stats = StreamStats()
        self._message = b"D" * message_size

    def start(self, vm) -> list:
        return [
            vm.spawn(self._stream(i % vm.vcpus))
            for i in range(self.streams)
        ]

    def _stream(self, vcpu: int):
        api = self.api
        try:
            sock = yield from api.socket(vcpu)
            yield from api.connect(sock, self.remote, vcpu)
        except SocketError:
            self.stats.errors += 1
            return
        deadline = self.sim.now + self.duration
        while self.sim.now < deadline:
            try:
                sent = yield from api.send(sock, self._message, vcpu)
            except SocketError:
                self.stats.errors += 1
                break
            self.stats.bytes += sent
            self.stats.messages += 1
        try:
            yield from api.close(sock, vcpu)
        except SocketError:
            pass


class StreamReceiver:
    """Accepts streams on a port and drains them."""

    def __init__(self, sim, api: SocketApi, port: int,
                 read_size: int = 65536):
        self.sim = sim
        self.api = api
        self.port = port
        self.read_size = read_size
        self.stats = StreamStats()

    def start(self, vm) -> list:
        return [vm.spawn(self._acceptor(vm))]

    def _acceptor(self, vm):
        listener = yield from self.api.socket(0)
        yield from self.api.bind(listener, self.port)
        yield from self.api.listen(listener, 128)
        index = 0
        while True:
            conn = yield from self.api.accept(listener)
            vm.spawn(self._drain(conn, index % vm.vcpus))
            index += 1

    def _drain(self, conn, vcpu: int):
        while True:
            try:
                data = yield from self.api.recv(conn, self.read_size, vcpu)
            except SocketError:
                self.stats.errors += 1
                break
            if not data:
                break
            self.stats.bytes += len(data)
            self.stats.messages += 1
        try:
            yield from self.api.close(conn, vcpu)
        except SocketError:
            pass
