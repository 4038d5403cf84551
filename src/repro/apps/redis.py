"""A redis-like key-value server and client (§6.3's other application).

The paper's point with nginx *and redis* is that real, protocol-speaking
applications run over any NSM without code change.  This model speaks a
RESP-ish line protocol (GET/SET/DEL/PING over a persistent connection)
against the plain socket facade, so the same server runs on the kernel
NSM, the mTCP NSM, or the baseline architecture.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.sockets import EPOLLIN, SocketApi
from repro.errors import SocketError

#: Cycles of server-side work per command (hash lookup + bookkeeping).
REDIS_COMMAND_CYCLES = 1_800.0


def encode_command(*parts: bytes) -> bytes:
    """Length-prefixed frame: ``<nparts> <len> <part> ...`` newline-free."""
    out = [b"*%d\r\n" % len(parts)]
    for part in parts:
        out.append(b"$%d\r\n" % len(part))
        out.append(part)
        out.append(b"\r\n")
    return b"".join(out)


class _FrameParser:
    """Incremental parser for the framed protocol above."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_frame(self) -> Optional[list]:
        """One complete command as a list of byte strings, or None."""
        buf = self._buffer
        if not buf.startswith(b"*"):
            return None
        head_end = buf.find(b"\r\n")
        if head_end < 0:
            return None
        count = int(buf[1:head_end])
        parts = []
        cursor = head_end + 2
        for _ in range(count):
            if not buf[cursor:cursor + 1] == b"$":
                return None
            len_end = buf.find(b"\r\n", cursor)
            if len_end < 0:
                return None
            length = int(buf[cursor + 1:len_end])
            start = len_end + 2
            end = start + length
            if len(buf) < end + 2:
                return None
            parts.append(bytes(buf[start:end]))
            cursor = end + 2
        del buf[:cursor]
        return parts


class RedisServer:
    """Keepalive epoll server executing GET/SET/DEL/PING commands."""

    def __init__(self, sim, api: SocketApi, port: int = 6379, cores=None):
        self.sim = sim
        self.api = api
        self.port = port
        self.cores = cores or []
        self.store: Dict[bytes, bytes] = {}
        self.commands = 0
        self.errors = 0
        self.listener = None

    def start(self, vm) -> list:
        return [vm.spawn(self._boot(vm))]

    def _boot(self, vm):
        self.listener = yield from self.api.socket(0)
        yield from self.api.bind(self.listener, self.port)
        yield from self.api.listen(self.listener, 512)
        for vcpu in range(vm.vcpus):
            vm.spawn(self._worker(vcpu))

    def _worker(self, vcpu: int):
        epoll = self.api.epoll_create()
        self.api.epoll_ctl(epoll, self.listener, EPOLLIN)
        parsers: Dict[int, _FrameParser] = {}
        socks: Dict[int, object] = {}
        while True:
            events = yield from self.api.epoll_wait(epoll, vcpu=vcpu)
            for fd, _mask in events:
                if fd == self.listener.fd:
                    while True:
                        conn = self.api.accept_nonblocking(self.listener)
                        if conn is None:
                            break
                        socks[conn.fd] = conn
                        parsers[conn.fd] = _FrameParser()
                        self.api.epoll_ctl(epoll, conn, EPOLLIN)
                    continue
                conn = socks.get(fd)
                if conn is None:
                    continue
                closed = yield from self._serve(conn, parsers[fd], vcpu)
                if closed:
                    self.api.epoll_ctl(epoll, conn, 0)
                    yield from self.api.close(conn, vcpu)
                    socks.pop(fd, None)
                    parsers.pop(fd, None)

    def _serve(self, conn, parser: _FrameParser, vcpu: int):
        try:
            data = yield from self.api.recv_nonblocking(conn, 1 << 20)
        except SocketError:
            self.errors += 1
            return True
        if data:
            parser.feed(data)
        while True:
            frame = parser.next_frame()
            if frame is None:
                break
            if self.cores:
                core = self.cores[vcpu % len(self.cores)]
                yield core.execute(REDIS_COMMAND_CYCLES, "redis.command")
            reply = self._execute(frame)
            self.commands += 1
            try:
                yield from self.api.send(conn, reply, vcpu)
            except SocketError:
                self.errors += 1
                return True
        return bool(conn.eof)

    def _execute(self, frame: list) -> bytes:
        command = frame[0].upper()
        if command == b"PING":
            return b"+PONG\r\n"
        if command == b"SET" and len(frame) == 3:
            self.store[frame[1]] = frame[2]
            return b"+OK\r\n"
        if command == b"GET" and len(frame) == 2:
            value = self.store.get(frame[1])
            if value is None:
                return b"$-1\r\n"
            return b"$%d\r\n%s\r\n" % (len(value), value)
        if command == b"DEL" and len(frame) == 2:
            existed = self.store.pop(frame[1], None) is not None
            return b":%d\r\n" % (1 if existed else 0)
        return b"-ERR unknown command\r\n"


class RedisClient:
    """A blocking client for tests and benchmarks."""

    def __init__(self, sim, api: SocketApi, remote: Tuple[str, int],
                 vcpu: int = 0):
        self.sim = sim
        self.api = api
        self.remote = remote
        self.vcpu = vcpu
        self.sock = None
        self._rx = bytearray()

    def connect(self):
        self.sock = yield from self.api.socket(self.vcpu)
        yield from self.api.connect(self.sock, self.remote, self.vcpu)

    def _read_reply(self):
        while True:
            newline = self._rx.find(b"\r\n")
            if newline >= 0:
                if self._rx.startswith(b"$") and not self._rx.startswith(b"$-1"):
                    length = int(self._rx[1:newline])
                    total = newline + 2 + length + 2
                    if len(self._rx) < total:
                        pass  # need more bytes
                    else:
                        value = bytes(self._rx[newline + 2:newline + 2 + length])
                        del self._rx[:total]
                        return value
                else:
                    line = bytes(self._rx[:newline])
                    del self._rx[:newline + 2]
                    return line
            data = yield from self.api.recv(self.sock, 65536, self.vcpu)
            if not data:
                raise SocketError("connection closed mid-reply")
            self._rx.extend(data)

    def command(self, *parts: bytes):
        yield from self.api.send(self.sock, encode_command(*parts),
                                 self.vcpu)
        reply = yield from self._read_reply()
        return reply

    def set(self, key: bytes, value: bytes):
        return (yield from self.command(b"SET", key, value))

    def get(self, key: bytes):
        return (yield from self.command(b"GET", key))

    def ping(self):
        return (yield from self.command(b"PING"))

    def close(self):
        yield from self.api.close(self.sock, self.vcpu)
