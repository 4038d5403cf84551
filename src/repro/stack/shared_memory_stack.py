"""The shared-memory NSM (use case 4, §6.4).

When two VMs of the same user are colocated, NetKernel can detect the
internal socket pair and copy message chunks directly between their
hugepage regions, bypassing TCP entirely.  This stack implements that: a
channel registry replaces the handshake, and "transmission" is a memory
copy paced by the host's DRAM bandwidth cap.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import (
    ConfigurationError,
    ConnectionRefusedError_,
    InvalidSocketStateError,
    NotConnectedError,
)

Address = Tuple[str, int]


class ShmChannel:
    """One endpoint of a shared-memory byte channel (StackSocket duck type)."""

    def __init__(self, stack: "SharedMemoryStack"):
        self.stack = stack
        self.state = "closed"
        self.local: Optional[Address] = None
        self.remote: Optional[Address] = None
        self.peer: Optional["ShmChannel"] = None
        self.backlog = 0
        self.accept_queue: List["ShmChannel"] = []
        self._recv = bytearray()
        self.recv_capacity = 4 * 1024 * 1024
        self.peer_closed = False
        # Callbacks (same surface as TcpConnection).
        self.on_readable: Optional[Callable[["ShmChannel"], None]] = None
        self.on_writable: Optional[Callable[["ShmChannel"], None]] = None
        self.on_accept_ready: Optional[Callable[["ShmChannel"], None]] = None
        self.on_connected: Optional[Callable[["ShmChannel"], None]] = None
        self.on_error: Optional[Callable[["ShmChannel", str], None]] = None
        self.on_closed: Optional[Callable[["ShmChannel"], None]] = None
        # Statistics.
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def readable_bytes(self) -> int:
        return len(self._recv)

    @property
    def eof(self) -> bool:
        return self.peer_closed and not self._recv

    @property
    def recv_free(self) -> int:
        return self.recv_capacity - len(self._recv)


class SharedMemoryStack:
    """Moves bytes between colocated VMs with memory copies only."""

    name = "shm"

    def __init__(self, sim, cores: Sequence[Core],
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 host_id: str = "shm"):
        if not cores:
            raise ConfigurationError("shm stack needs >=1 core")
        self.sim = sim
        self.host_id = host_id
        self.cores: List[Core] = list(cores)
        self.cost = cost_model
        self._rr = 0
        self._listeners: Dict[Address, ShmChannel] = {}
        #: Memory-bandwidth pacing: time at which the copy engine frees up.
        self._mem_busy_until = 0.0
        self.bytes_copied = 0

    # -- socket API -------------------------------------------------------------

    def socket(self) -> ShmChannel:
        return ShmChannel(self)

    def bind(self, sock: ShmChannel, port: int) -> None:
        addr = (self.host_id, port)
        if sock.local is not None:
            raise InvalidSocketStateError("shm channel already bound")
        if addr in self._listeners:
            raise InvalidSocketStateError(f"shm address {addr} in use")
        sock.local = addr

    def listen(self, sock: ShmChannel, backlog: int = 128) -> None:
        if sock.local is None:
            raise InvalidSocketStateError("listen() before bind()")
        sock.state = "listen"
        sock.backlog = max(1, backlog)
        self._listeners[sock.local] = sock

    def connect(self, sock: ShmChannel, remote: Address) -> None:
        listener = self._listeners.get(remote)
        if listener is None or len(listener.accept_queue) >= listener.backlog:
            raise ConnectionRefusedError_(f"no shm listener at {remote}")
        child = self.socket()
        child.local = remote
        child.remote = sock.local or ("anon", 0)
        child.state = "connected"
        sock.remote = remote
        sock.state = "connected"
        sock.peer = child
        child.peer = sock
        listener.accept_queue.append(child)

        def notify() -> None:
            if listener.on_accept_ready:
                listener.on_accept_ready(listener)
            if sock.on_connected:
                sock.on_connected(sock)

        # Setup costs one control hop, not a network round trip.
        self.sim.call_later(2e-6, notify)

    def accept(self, listener: ShmChannel) -> Optional[ShmChannel]:
        if listener.state != "listen":
            raise InvalidSocketStateError("accept() on a non-listener")
        if listener.accept_queue:
            return listener.accept_queue.pop(0)
        return None

    def send(self, sock: ShmChannel, data: bytes) -> int:
        """Copy ``data`` toward the peer; returns bytes accepted now."""
        if sock.state != "connected" or sock.peer is None:
            raise NotConnectedError("shm send on unconnected channel")
        peer = sock.peer
        take = min(len(data), peer.recv_free)
        if take <= 0:
            return 0
        chunk = bytes(data[:take])

        # CPU cost of the copy (both directions handled by the NSM).
        cycles = self.cost.shm_nsm_fixed + take * self.cost.shm_nsm_per_byte
        core = self.cores[self._rr % len(self.cores)]
        self._rr += 1
        core.charge(cycles, "shm.copy")

        # DRAM bandwidth pacing: copies serialize on the memory system.
        copy_time = take * 8.0 / self.cost.mem_bw_cap_bps
        start = max(self.sim.now, self._mem_busy_until)
        self._mem_busy_until = start + copy_time
        done = self._mem_busy_until
        self.bytes_copied += take
        sock.bytes_sent += take

        def deliver() -> None:
            peer._recv.extend(chunk)
            peer.bytes_received += len(chunk)
            if peer.on_readable:
                peer.on_readable(peer)

        self.sim.call_at(done, deliver)
        return take

    def recv(self, sock: ShmChannel, max_bytes: int) -> bytes:
        take = min(max_bytes, len(sock._recv))
        data = bytes(sock._recv[:take])
        del sock._recv[:take]
        if take and sock.peer is not None and sock.peer.on_writable:
            sock.peer.on_writable(sock.peer)
        return data

    def close(self, sock: ShmChannel) -> None:
        if sock.state == "listen":
            self._listeners.pop(sock.local, None)
        elif sock.peer is not None:
            peer = sock.peer
            # The close notification must not overtake data still in the
            # copy pipeline — deliver it after the memory engine drains.
            when = max(self.sim.now + 1e-6, self._mem_busy_until + 1e-9)

            def notify_closed() -> None:
                peer.peer_closed = True
                if peer.on_readable:
                    peer.on_readable(peer)

            self.sim.call_at(when, notify_closed)
        sock.state = "closed"
        if sock.on_closed:
            sock.on_closed(sock)

    def abort(self, sock: ShmChannel) -> None:
        self.close(sock)
