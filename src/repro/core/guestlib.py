"""GuestLib: transparent BSD socket redirection inside the guest (§4.1).

GuestLib registers the ``SOCK_NETKERNEL`` socket type: every TCP socket an
application creates becomes a :class:`NetKernelSocket`, and each BSD call
is translated into an NQE, pushed into the guest's NK device, and (for
blocking semantics) parked until the matching response NQE returns.

Payload handling follows §4.5: ``send()`` copies user bytes into the
shared hugepage region, enqueues a send NQE carrying the data pointer, and
returns immediately (pipelining, §4.6) while GuestLib tracks send-buffer
usage; ``recv()`` copies bytes out of hugepages that ServiceLib filled and
returns receive credit so the NSM can keep delivering.

Every socket is pinned to a home queue set (the lane of the vCPU that
created it, accepted sockets round-robin), so its ⟨VM id, queue set,
socket id⟩ tuple — the connection-table key — stays stable for its
lifetime.

Failure handling (§8): when ``op_timeout`` is set, every blocking control
op carries a deadline.  Idempotent ops (setsockopt/getsockopt/close) are
retried with exponential backoff up to ``max_op_retries`` times; anything
else surfaces :class:`~repro.errors.TimedOutError` to the caller.  A late
response for a deadlined op finds no waiter and is simply released by the
poller, so a dead NSM can never wedge a guest thread or leak an NQE.
"""

from __future__ import annotations

import itertools
import random
from collections import deque, namedtuple
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.nk_device import NKDevice
from repro.core.nqe import ERRNO_NAMES, NQE_POOL, Nqe, NqeOp
from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import (
    BadFileDescriptorError,
    InvalidSocketStateError,
    NotConnectedError,
    SocketError,
    TimedOutError,
    TryAgainError,
    socket_error_for,
)

#: Per-socket send-buffer budget (bytes of hugepage space in flight).
DEFAULT_SNDBUF = 256 * 1024
#: Receive credit returned to the NSM in units of this many bytes.
RECV_CREDIT_QUANTUM = 64 * 1024

#: epoll event masks.
EPOLLIN = 0x1
EPOLLOUT = 0x4

#: Control ops safe to re-issue after a deadline expiry: the NSM applies
#: them idempotently (set/get of a recorded option; close of an
#: already-gone context answers OK).
IDEMPOTENT_OPS = frozenset((NqeOp.SETSOCKOPT, NqeOp.GETSOCKOPT, NqeOp.CLOSE))

#: What _call hands back to blocking callers: the response NQE's result
#: fields, decoupled from the pooled element (which _call releases).
OpResult = namedtuple("OpResult", ("op_data", "aux"))


class NetKernelSocket:
    """The guest-side socket object backing a SOCK_NETKERNEL fd."""

    _ids = itertools.count(1)

    def __init__(self, guestlib: "GuestLib", fd: int, home_qset: int,
                 kind: str = "stream"):
        self.guestlib = guestlib
        self.fd = fd
        self.sock_id = next(self._ids)
        self.home_qset = home_qset
        self.kind = kind
        self.state = "created"
        self.bound_port: Optional[int] = None
        self.remote: Optional[Tuple[str, int]] = None
        self.errno: Optional[str] = None

        # Listener state.
        self.backlog = 0
        self.accept_q: Deque["NetKernelSocket"] = deque()

        # Receive state: chunks are [data, offset] pairs; datagram
        # sockets queue whole (payload, source) pairs instead.
        self.rx_chunks: Deque[List] = deque()
        self.rx_dgrams: Deque[Tuple[bytes, Tuple[str, int]]] = deque()
        self.rx_ready_bytes = 0
        self.rx_consumed_uncredited = 0
        self.peer_closed = False

        # Send state (pipelined; usage falls when SEND_RESULTs return).
        self.tx_inflight = 0
        self.tx_cap = DEFAULT_SNDBUF

        # Waiters and epoll watchers.
        self._readable_waiters: List = []
        self._writable_waiters: List = []
        self.watchers: Set["EpollInstance"] = set()

        # Statistics.
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- readiness ---------------------------------------------------------------

    @property
    def readable(self) -> bool:
        if self.state == "listening":
            return bool(self.accept_q)
        if self.kind == "dgram":
            return bool(self.rx_dgrams) or bool(self.errno)
        return self.rx_ready_bytes > 0 or self.peer_closed or bool(self.errno)

    @property
    def writable(self) -> bool:
        return (self.state == "connected"
                and self.tx_inflight < self.tx_cap)

    @property
    def eof(self) -> bool:
        return self.peer_closed and self.rx_ready_bytes == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NetKernelSocket fd={self.fd} {self.state}>"


class EpollInstance:
    """A level-triggered epoll emulation over NetKernel sockets (§4.2)."""

    def __init__(self, guestlib: "GuestLib", epfd: int):
        self.guestlib = guestlib
        self.epfd = epfd
        self.interest: Dict[int, int] = {}
        self.ready_fds: Set[int] = set()
        self._waiters: List = []

    def watch(self, sock: NetKernelSocket, mask: int) -> None:
        self.interest[sock.fd] = mask
        sock.watchers.add(self)
        if self._currently_ready(sock, mask):
            self.ready_fds.add(sock.fd)

    def unwatch(self, sock: NetKernelSocket) -> None:
        self.interest.pop(sock.fd, None)
        sock.watchers.discard(self)
        self.ready_fds.discard(sock.fd)

    def _currently_ready(self, sock: NetKernelSocket, mask: int) -> bool:
        return bool(((mask & EPOLLIN) and sock.readable)
                    or ((mask & EPOLLOUT) and sock.writable))

    def notify(self, sock: NetKernelSocket) -> None:
        """Called by GuestLib when a watched socket's readiness changes."""
        mask = self.interest.get(sock.fd)
        if mask is None:
            return
        if self._currently_ready(sock, mask):
            self.ready_fds.add(sock.fd)
            waiters, self._waiters = self._waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def poll_ready(self, max_events: int) -> List[Tuple[int, int]]:
        """(fd, events) pairs that are ready right now (level-triggered)."""
        events: List[Tuple[int, int]] = []
        stale: List[int] = []
        for fd in self.ready_fds:
            sock = self.guestlib.fd_table.get(fd)
            mask = self.interest.get(fd)
            if sock is None or mask is None:
                stale.append(fd)
                continue
            fired = 0
            if (mask & EPOLLIN) and sock.readable:
                fired |= EPOLLIN
            if (mask & EPOLLOUT) and sock.writable:
                fired |= EPOLLOUT
            if fired:
                events.append((fd, fired))
            else:
                stale.append(fd)
            if len(events) >= max_events:
                break
        for fd in stale:
            self.ready_fds.discard(fd)
        return events


class GuestLib:
    """The guest kernel module: socket redirection + NQE translation."""

    def __init__(self, sim, vm_id: int, device: NKDevice,
                 cores: List[Core],
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 op_timeout: Optional[float] = None,
                 max_op_retries: int = 3,
                 backoff_seed: int = 0):
        self.sim = sim
        self.vm_id = vm_id
        self.device = device
        self.cores = cores
        self.cost = cost_model
        self.hugepages = device.hugepages
        #: Per-attempt deadline for blocking control ops (None = wait
        #: forever, the pre-§8 behaviour).
        self.op_timeout = op_timeout
        #: Extra attempts (with doubling, jittered deadlines) for
        #: IDEMPOTENT_OPS, and the retry budget for admission rejections.
        self.max_op_retries = max_op_retries
        #: Seeded per-VM RNG for backoff jitter.  Pure doubling meant
        #: every guest that timed out at the same instant retried at the
        #: same instant (a stampede that re-creates the overload that
        #: caused the timeouts); the jitter desynchronizes them while
        #: keeping runs bit-reproducible (same seed → same draws, drawn
        #: only by this guest, in its own simulation order).
        #: The generator is built on first draw (most guests never back
        #: off, and a Random costs ~2.5 KiB per VM); see _backoff_rng.
        self._backoff_seed = (
            ((backoff_seed & 0xFFFFFFFF) << 32) ^ (0x9E3779B9 * (vm_id + 1)))
        self._backoff_rng_obj: Optional[random.Random] = None

        self.fd_table: Dict[int, NetKernelSocket] = {}
        self.epolls: Dict[int, EpollInstance] = {}
        self._next_fd = 3
        self._by_sock_id: Dict[int, NetKernelSocket] = {}
        self._pending: Dict[int, object] = {}  # token -> Event
        self._accept_rr = 0

        # One poller per queue set (per vCPU lane), as in the paper.
        self._pollers = [
            sim.process(self._poller(idx))
            for idx in range(len(device.queue_sets))
        ]

        # Statistics.
        self.nqes_sent = 0
        self.nqes_received = 0
        self.op_timeouts = 0
        self.op_retries = 0
        #: Admission-control rejections observed (one per refused
        #: attempt; the op may still succeed after backing off).
        self.admission_waits = 0
        #: Ops that surfaced EAGAIN to the caller (admission retries
        #: exhausted) — the overload-shed counterpart of op_timeouts.
        self.ops_shed = 0
        #: SEND_RESULTs carrying -EAGAIN (the switch shed a pipelined
        #: send); transient, so they do not poison the socket's errno.
        self.send_results_shed = 0

        # Observability (repro.obs); None = tracing disabled (default).
        self.obs = None

    def add_vcpu_lane(self, core) -> int:
        """Hot-add a vCPU lane: a core, a queue set, and its poller
        (§4.4's dynamic queue scaling).  Returns the new lane index."""
        self.cores.append(core)
        self.device.add_queue_set()
        index = len(self.device.queue_sets) - 1
        self._pollers.append(self.sim.process(self._poller(index)))
        return index

    # -- fd management -----------------------------------------------------------

    def _alloc_fd(self) -> int:
        fd = self._next_fd
        self._next_fd += 1
        return fd

    def _core_for(self, vcpu: int) -> Core:
        return self.cores[vcpu % len(self.cores)]

    def lookup(self, fd: int) -> NetKernelSocket:
        """Resolve an fd to its socket (EBADF if unknown)."""
        sock = self.fd_table.get(fd)
        if sock is None:
            raise BadFileDescriptorError(f"fd {fd}")
        return sock

    # -- overload admission (repro.core.overload) ---------------------------------

    def _governor(self):
        """This VM's home-shard overload governor, or None when overload
        control is disabled (the common case: two attribute loads)."""
        reg = self.device.ce_registration
        if reg is None:
            return None
        engine = reg.engine
        return None if engine is None else engine.overload

    @property
    def _backoff_rng(self) -> random.Random:
        """This guest's backoff RNG, built from its seed on first use, so
        the draw sequence is the same as an eagerly built one's."""
        rng = self._backoff_rng_obj
        if rng is None:
            rng = self._backoff_rng_obj = random.Random(self._backoff_seed)
        return rng

    def _backoff_delay(self, attempt: int) -> float:
        """Seeded, jittered exponential backoff: the nominal doubling
        span scaled by a uniform draw in [0.5, 1.5)."""
        base = self.op_timeout if self.op_timeout is not None else 1e-3
        return base * (2 ** attempt) * (0.5 + self._backoff_rng.random())

    def _attempt_deadline(self, attempt: int) -> float:
        """Per-attempt op deadline: exact on the first attempt (an
        un-retried op draws no randomness), doubled with ±25% seeded
        jitter on retries so deadline expiries desynchronize."""
        span = self.op_timeout * (2 ** attempt)
        if attempt == 0:
            return span
        return span * (0.75 + 0.5 * self._backoff_rng.random())

    def _admission_gate(self, op: NqeOp):
        """Block at the op-issue boundary while the host is overloaded.

        The governor's ``admit`` spends this VM's per-window quota; a
        rejection backs off (seeded jitter, doubling) and re-asks, up to
        ``max_op_retries`` times, then fail-fasts with
        :class:`TryAgainError` (EAGAIN).  The op was *never issued* when
        EAGAIN surfaces — unlike ETIMEDOUT, the guest knows its fate.
        """
        gov = self._governor()
        if gov is None or gov.admit(self.vm_id, op):
            return
        for attempt in range(self.max_op_retries):
            self.admission_waits += 1
            yield self.sim.timeout(self._backoff_delay(attempt))
            if gov.admit(self.vm_id, op):
                return
        self.admission_waits += 1
        self.ops_shed += 1
        if self.obs is not None:
            self.obs.on_op_shed(op)
        raise TryAgainError(f"{op.name} rejected by overload admission "
                            f"control after {self.max_op_retries} backoffs")

    # -- NQE plumbing -------------------------------------------------------------

    def _push(self, sock_home_qset: int, nqe: Nqe, data: bool = False):
        """Producer side: place an NQE in this VM's rings (retry on full)."""
        qs = self.device.queue_sets[sock_home_qset % len(self.device.queue_sets)]
        control_ring, data_ring = self.device.produce_rings(qs)
        ring = data_ring if data else control_ring
        while not ring.try_push(nqe, owner=self):
            yield self.sim.timeout(5e-6)
        self.nqes_sent += 1
        if self.obs is not None:
            self.obs.on_guest_enqueue(nqe)
        self.device.ring_doorbell()

    def _call(self, vcpu: int, sock: NetKernelSocket, op: NqeOp,
              op_data: int = 0, aux=None, data_ptr: int = 0, size: int = 0):
        """Send a control NQE and block until its response NQE arrives.

        Returns an :class:`OpResult`; _call is the final consumer of the
        response NQE.  With ``op_timeout`` set, each attempt carries a
        deadline (doubling per retry); only IDEMPOTENT_OPS are re-issued,
        and a deadline expiry raises :class:`TimedOutError`.  A response
        that arrives after its deadline finds no waiter registered and is
        released by the poller — never leaked, never misdelivered (the
        retry uses a fresh token)."""
        core = self._core_for(vcpu)
        yield from self._admission_gate(op)
        yield core.execute(self.cost.guestlib_nqe_prep, "guestlib.prep")
        attempts = 1 + (self.max_op_retries if op in IDEMPOTENT_OPS else 0)
        response = None
        for attempt in range(attempts):
            nqe = NQE_POOL.acquire(op, self.vm_id, sock.home_qset,
                                   sock.sock_id, op_data=op_data,
                                   data_ptr=data_ptr, size=size, aux=aux,
                                   created_at=self.sim.now)
            token = nqe.token
            event = self.sim.event()
            self._pending[token] = event
            yield from self._push(sock.home_qset, nqe)
            if self.op_timeout is None:
                response = yield event
                break
            deadline = self.sim.timeout(self._attempt_deadline(attempt))
            yield self.sim.any_of([event, deadline])
            if event.triggered:
                if not deadline.processed:
                    deadline.cancel()
                response = event.value
                break
            # Deadline expired first: withdraw the waiter so the poller
            # releases the (possibly still coming) response.
            self._pending.pop(token, None)
            self.op_timeouts += 1
            if self.obs is not None:
                self.obs.on_op_timeout(op)
            if attempt + 1 >= attempts:
                raise TimedOutError(
                    f"{op.name} got no response within "
                    f"{attempts} attempt(s)")
            self.op_retries += 1
            if self.obs is not None:
                self.obs.on_op_retry(op)
        yield core.execute(self.cost.guestlib_nqe_complete, "guestlib.complete")
        result = OpResult(response.op_data, response.aux)
        NQE_POOL.release(response)
        return result

    @staticmethod
    def _check(response: OpResult) -> OpResult:
        """Raise the right SocketError for an error response."""
        if response.op_data < 0:
            raise socket_error_for(ERRNO_NAMES.get(-response.op_data, "EIO"))
        return response

    def _rx_deadline(self) -> Optional[float]:
        """Absolute give-up time for a blocking data wait (None = never).

        Data waits get the full retry budget's worth of time — they are
        not retriable (not idempotent), so the bound is a backstop against
        a silently dead NSM rather than a per-attempt deadline."""
        if self.op_timeout is None:
            return None
        return self.sim.now + self.op_timeout * (self.max_op_retries + 1)

    def _wait_bounded(self, event, deadline: Optional[float], what: str):
        """Wait for a readiness event, bounded by an absolute deadline."""
        if deadline is None:
            yield event
            return
        remaining = deadline - self.sim.now
        if remaining <= 0:
            self.op_timeouts += 1
            raise TimedOutError(f"{what} deadline expired")
        timer = self.sim.timeout(remaining)
        yield self.sim.any_of([event, timer])
        if event.triggered:
            if not timer.processed:
                timer.cancel()
            return
        self.op_timeouts += 1
        raise TimedOutError(f"{what} deadline expired")

    # -- BSD socket API (generator coroutines) ---------------------------------------

    def socket(self, vcpu: int = 0, sock_type: str = "stream"):
        """socket(): rewritten to SOCK_NETKERNEL; creates the NSM socket.

        ``sock_type`` is "stream" (TCP) or "dgram" (UDP) — both families
        are redirected, as in Table 1.
        """
        if sock_type not in ("stream", "dgram"):
            raise InvalidSocketStateError(f"unknown socket type {sock_type}")
        fd = self._alloc_fd()
        sock = NetKernelSocket(self, fd,
                               home_qset=vcpu % len(self.device.queue_sets),
                               kind=sock_type)
        self.fd_table[fd] = sock
        self._by_sock_id[sock.sock_id] = sock
        response = yield from self._call(
            vcpu, sock, NqeOp.SOCKET,
            op_data=1 if sock_type == "dgram" else 0)
        self._check(response)
        return sock

    def bind(self, sock: NetKernelSocket, port: int, vcpu: int = 0):
        """bind(): reserve a port in the serving NSM's namespace."""
        response = yield from self._call(vcpu, sock, NqeOp.BIND, op_data=port)
        self._check(response)
        sock.bound_port = port
        sock.state = "bound"
        return 0

    def listen(self, sock: NetKernelSocket, backlog: int = 128, vcpu: int = 0):
        """listen(): the NSM's stack starts accepting on our behalf."""
        response = yield from self._call(vcpu, sock, NqeOp.LISTEN,
                                         op_data=backlog)
        self._check(response)
        sock.state = "listening"
        sock.backlog = backlog
        return 0

    def connect(self, sock: NetKernelSocket, remote: Tuple[str, int],
                vcpu: int = 0):
        """connect(): blocks until the NSM's stack establishes (or the
        response NQE reports an error)."""
        if sock.state == "connected":
            raise InvalidSocketStateError("already connected")
        sock.state = "connecting"
        response = yield from self._call(vcpu, sock, NqeOp.CONNECT,
                                         aux={"remote": remote})
        try:
            self._check(response)
        except SocketError:
            sock.state = "created"
            raise
        sock.remote = remote
        sock.state = "connected"
        self._notify(sock)
        return 0

    def accept(self, listener: NetKernelSocket, vcpu: int = 0):
        """Blocking accept: waits until the NSM hands over a connection."""
        if listener.state != "listening":
            raise InvalidSocketStateError("accept() on a non-listener")
        while not listener.accept_q:
            if listener.errno:
                raise socket_error_for(listener.errno)
            event = self.sim.event()
            listener._readable_waiters.append(event)
            yield event
        return listener.accept_q.popleft()

    def accept_nonblocking(self, listener: NetKernelSocket) -> Optional[NetKernelSocket]:
        """Non-blocking accept (the epoll-server path)."""
        if listener.state != "listening":
            raise InvalidSocketStateError("accept() on a non-listener")
        if listener.accept_q:
            return listener.accept_q.popleft()
        return None

    def send(self, sock: NetKernelSocket, data: bytes, vcpu: int = 0):
        """send(): copy into hugepages, enqueue NQE, return (pipelined)."""
        if sock.state == "write_closed":
            raise InvalidSocketStateError("send after shutdown")
        if sock.state != "connected":
            raise NotConnectedError(f"send on {sock.state} socket")
        if sock.errno:
            raise socket_error_for(sock.errno)
        core = self._core_for(vcpu)
        total = 0
        view = memoryview(data)
        while total < len(data):
            yield from self._admission_gate(NqeOp.SEND)
            chunk = view[total:total + RECV_CREDIT_QUANTUM]
            # Send-buffer backpressure: wait for SEND_RESULT credit.
            while sock.tx_inflight + len(chunk) > sock.tx_cap:
                event = self.sim.event()
                sock._writable_waiters.append(event)
                yield event
                if sock.errno:
                    raise socket_error_for(sock.errno)
            buffer = self.hugepages.try_alloc(len(chunk))
            while buffer is None:
                if sock.errno:
                    # Connection died while we waited for hugepage space
                    # (e.g. NSM quarantine): stop retrying, surface it.
                    raise socket_error_for(sock.errno)
                yield self.sim.timeout(10e-6)  # region full: retry shortly
                buffer = self.hugepages.try_alloc(len(chunk))
            # The view goes straight to the buffer: HugepageBuffer.write
            # materializes it — the single charged guest-boundary copy.
            buffer.write(chunk)
            yield core.execute(self.cost.hugepage_copy_cycles(len(chunk)),
                               "guestlib.send_copy")
            nqe = NQE_POOL.acquire(
                NqeOp.SEND, self.vm_id, sock.home_qset, sock.sock_id,
                data_ptr=buffer.buffer_id, size=len(chunk),
                created_at=self.sim.now)
            yield from self._push(sock.home_qset, nqe, data=True)
            sock.tx_inflight += len(chunk)
            sock.bytes_sent += len(chunk)
            total += len(chunk)
        return total

    def sendto(self, sock: NetKernelSocket, data: bytes,
               dest: Tuple[str, int], vcpu: int = 0):
        """sendto(): one datagram through the NSM's UDP layer."""
        if sock.kind != "dgram":
            raise InvalidSocketStateError("sendto on a stream socket")
        if sock.errno:
            raise socket_error_for(sock.errno)
        core = self._core_for(vcpu)
        yield from self._admission_gate(NqeOp.SENDTO)
        while sock.tx_inflight + len(data) > sock.tx_cap:
            event = self.sim.event()
            sock._writable_waiters.append(event)
            yield event
            if sock.errno:
                raise socket_error_for(sock.errno)
        buffer = self.hugepages.try_alloc(len(data))
        while buffer is None:
            if sock.errno:
                raise socket_error_for(sock.errno)
            yield self.sim.timeout(10e-6)
            buffer = self.hugepages.try_alloc(len(data))
        buffer.write(data)
        yield core.execute(self.cost.hugepage_copy_cycles(len(data)),
                           "guestlib.send_copy")
        nqe = NQE_POOL.acquire(
            NqeOp.SENDTO, self.vm_id, sock.home_qset, sock.sock_id,
            data_ptr=buffer.buffer_id, size=len(data),
            aux={"dest": dest}, created_at=self.sim.now)
        yield from self._push(sock.home_qset, nqe, data=True)
        sock.tx_inflight += len(data)
        sock.bytes_sent += len(data)
        return len(data)

    def recvfrom(self, sock: NetKernelSocket, max_bytes: int, vcpu: int = 0):
        """recvfrom(): one whole datagram and its source address."""
        if sock.kind != "dgram":
            raise InvalidSocketStateError("recvfrom on a stream socket")
        core = self._core_for(vcpu)
        deadline = self._rx_deadline()
        while not sock.rx_dgrams:
            if sock.errno:
                raise socket_error_for(sock.errno)
            event = self.sim.event()
            sock._readable_waiters.append(event)
            try:
                yield from self._wait_bounded(event, deadline, "recvfrom")
            except TimedOutError:
                self._discard_waiter(sock._readable_waiters, event)
                raise
        data, src = sock.rx_dgrams.popleft()
        sock.bytes_received += len(data)
        yield core.execute(self.cost.hugepage_copy_cycles(len(data)),
                           "guestlib.recv_copy")
        return data[:max_bytes], src

    def recv(self, sock: NetKernelSocket, max_bytes: int, vcpu: int = 0):
        """recv(): copy from hugepages to userspace; b"" means EOF."""
        core = self._core_for(vcpu)
        deadline = self._rx_deadline()
        while sock.rx_ready_bytes == 0:
            if sock.peer_closed:
                return b""
            if sock.errno:
                raise socket_error_for(sock.errno)
            if sock.state not in ("connected", "write_closed"):
                raise NotConnectedError(f"recv on {sock.state} socket")
            event = self.sim.event()
            sock._readable_waiters.append(event)
            try:
                yield from self._wait_bounded(event, deadline, "recv")
            except TimedOutError:
                self._discard_waiter(sock._readable_waiters, event)
                raise
        data = self._take_rx(sock, max_bytes)
        yield core.execute(self.cost.hugepage_copy_cycles(len(data)),
                           "guestlib.recv_copy")
        yield from self._maybe_send_credit(sock, len(data))
        return data

    def recv_nonblocking(self, sock: NetKernelSocket, max_bytes: int):
        """Generator: returns immediately-available bytes (b"" if none)."""
        if sock.rx_ready_bytes == 0:
            return b""
        core = self._core_for(sock.home_qset)
        data = self._take_rx(sock, max_bytes)
        yield core.execute(self.cost.hugepage_copy_cycles(len(data)),
                           "guestlib.recv_copy")
        yield from self._maybe_send_credit(sock, len(data))
        return data

    def _take_rx(self, sock: NetKernelSocket, max_bytes: int) -> bytes:
        chunks = sock.rx_chunks
        if not chunks or max_bytes <= 0:
            return b""
        data, offset = chunks[0]
        avail = len(data) - offset
        if avail >= max_bytes or len(chunks) == 1:
            # One chunk satisfies the read: hand it back whole (zero-copy)
            # or slice it exactly once.
            take = min(avail, max_bytes)
            if offset == 0 and take == avail:
                chunks.popleft()
                out = data
            else:
                out = data[offset:offset + take]
                if offset + take >= len(data):
                    chunks.popleft()
                else:
                    chunks[0][1] = offset + take
            sock.rx_ready_bytes -= take
            sock.bytes_received += take
            sock.rx_consumed_uncredited += take
            return out
        # Read spans chunks: gather with one join.
        out = bytearray()
        while chunks and len(out) < max_bytes:
            chunk = chunks[0]
            data, offset = chunk
            take = min(len(data) - offset, max_bytes - len(out))
            out.extend(data[offset:offset + take])
            chunk[1] += take
            if chunk[1] >= len(data):
                chunks.popleft()
        taken = len(out)
        sock.rx_ready_bytes -= taken
        sock.bytes_received += taken
        sock.rx_consumed_uncredited += taken
        return bytes(out)

    def _maybe_send_credit(self, sock: NetKernelSocket, consumed: int):
        if sock.rx_consumed_uncredited >= RECV_CREDIT_QUANTUM and not sock.peer_closed:
            credit = sock.rx_consumed_uncredited
            sock.rx_consumed_uncredited = 0
            nqe = NQE_POOL.acquire(
                NqeOp.RECV_CREDIT, self.vm_id, sock.home_qset,
                sock.sock_id, op_data=credit, created_at=self.sim.now)
            yield from self._push(sock.home_qset, nqe)

    @staticmethod
    def _discard_waiter(waiters, event) -> None:
        """Withdraw a waiter whose wait timed out.  Leaving it behind
        would let a later wake-up pop a stale event for a caller that is
        long gone — on a closed socket that wake is outright wrong."""
        try:
            waiters.remove(event)
        except ValueError:
            pass  # a concurrent _wake already consumed it

    def close(self, sock: NetKernelSocket, vcpu: int = 0):
        """close(): flush pipelined sends, then close the NSM socket."""
        if sock.state == "closed":
            return 0
        # Linearize with the data path: a CLOSE travels the job ring and
        # could overtake SEND NQEs in the send ring, so wait until every
        # pipelined send has been credited by the NSM (the kernel's
        # close-time flush of the socket buffer).  With a deadline armed,
        # stop waiting once it expires — close is best-effort and must
        # not hang on a dead NSM's missing credits.
        deadline = self._rx_deadline()
        while sock.tx_inflight > 0 and not sock.errno:
            event = self.sim.event()
            sock._writable_waiters.append(event)
            try:
                yield from self._wait_bounded(event, deadline, "close drain")
            except TimedOutError:
                self._discard_waiter(sock._writable_waiters, event)
                break
        state_was = sock.state
        sock.state = "closed"
        self.fd_table.pop(sock.fd, None)
        for epoll in list(sock.watchers):
            epoll.unwatch(sock)
        # Every NetKernel socket has an NSM-side twin (created by the
        # SOCKET NQE), so CLOSE always travels to ServiceLib.
        yield from self._call(vcpu, sock, NqeOp.CLOSE,
                              aux={"state": state_was})
        self._by_sock_id.pop(sock.sock_id, None)
        return 0

    def shutdown(self, sock: NetKernelSocket, vcpu: int = 0):
        """shutdown(SHUT_WR): stop sending, keep receiving.

        Waits for pipelined sends to be credited (same linearization as
        close), then asks the NSM to FIN the write side.
        """
        if sock.state != "connected":
            raise NotConnectedError(f"shutdown on {sock.state} socket")
        deadline = self._rx_deadline()
        while sock.tx_inflight > 0 and not sock.errno:
            event = self.sim.event()
            sock._writable_waiters.append(event)
            try:
                yield from self._wait_bounded(event, deadline,
                                              "shutdown drain")
            except TimedOutError:
                self._discard_waiter(sock._writable_waiters, event)
                raise
        response = yield from self._call(vcpu, sock, NqeOp.SHUTDOWN)
        self._check(response)
        sock.state = "write_closed"
        return 0

    def setsockopt(self, sock: NetKernelSocket, option: str, value: int,
                   vcpu: int = 0):
        """setsockopt(): forwarded to the NSM (options are recorded)."""
        response = yield from self._call(
            vcpu, sock, NqeOp.SETSOCKOPT, op_data=value,
            aux={"option": option})
        self._check(response)
        return 0

    def getsockopt(self, sock: NetKernelSocket, option: str, vcpu: int = 0):
        """getsockopt(): read back an option value recorded by the NSM."""
        response = yield from self._call(
            vcpu, sock, NqeOp.GETSOCKOPT, aux={"option": option})
        self._check(response)
        return response.op_data

    # -- epoll ---------------------------------------------------------------------

    def epoll_create(self) -> EpollInstance:
        """A new epoll instance (the nk_poll mechanism of Fig. 5)."""
        epfd = self._alloc_fd()
        epoll = EpollInstance(self, epfd)
        self.epolls[epfd] = epoll
        return epoll

    def epoll_ctl(self, epoll: EpollInstance, sock: NetKernelSocket,
                  mask: int) -> None:
        """Add/modify (mask != 0) or remove (mask == 0) a watch."""
        if mask == 0:
            epoll.unwatch(sock)
        else:
            epoll.watch(sock, mask)

    def epoll_wait(self, epoll: EpollInstance, max_events: int = 64,
                   timeout: Optional[float] = None, vcpu: int = 0):
        """Blocking wait; returns a list of (fd, eventmask) pairs.

        This is the nk_poll() path of Fig. 5: it checks the receive-side
        readiness first and sleeps until the NK device wakes it (or the
        timeout fires).
        """
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

    # -- inbound dispatch ----------------------------------------------------------

    def _poller(self, qset_index: int):
        """Drain completion/receive rings of one queue set (one vCPU lane)."""
        qs = self.device.queue_sets[qset_index]
        core = self._core_for(qset_index)
        control_ring, data_ring = self.device.consume_rings(qs)
        # Reusable drain scratch: steady-state passes allocate no lists.
        scratch: List[Optional[Nqe]] = []
        while True:
            n = control_ring.drain_into(scratch, 64, owner=self)
            n += data_ring.drain_into(scratch, 64, owner=self, start=n)
            if not n:
                yield self.device.wait_for_inbound()
                continue
            cycles = n * self.cost.guestlib_nqe_complete
            yield core.execute(cycles, "guestlib.dispatch")
            for i in range(n):
                nqe = scratch[i]
                scratch[i] = None
                self.nqes_received += 1
                if self.obs is not None:
                    self.obs.on_guest_deliver(nqe)
                retained = self._dispatch(nqe, qset_index)
                # GuestLib is the final consumer of inbound NQEs, except
                # an OP_RESULT claimed by a blocked caller (released by
                # _call once it copies the result out).
                if not retained:
                    NQE_POOL.release(nqe)

    def _dispatch(self, nqe: Nqe, qset_index: int) -> bool:
        """Handle one inbound NQE; True if a waiter took ownership."""
        if nqe.op in (NqeOp.OP_RESULT,):
            event = self._pending.pop(nqe.token, None)
            if event is not None and not event.triggered:
                event.succeed(nqe)
                return True
            # No waiter: a response that lost its race with the op's
            # deadline (the caller timed out and moved on) — drop it.
            return False
        sock = self._by_sock_id.get(nqe.socket_id)
        if sock is None:
            # Response for a closed socket: free any payload it carries.
            if nqe.op == NqeOp.DATA_ARRIVED and nqe.data_ptr:
                buffer = self.hugepages.get(nqe.data_ptr)
                buffer.free()
            return False
        if nqe.op == NqeOp.SEND_RESULT:
            sock.tx_inflight = max(0, sock.tx_inflight - nqe.size)
            if nqe.op_data < 0:
                errno_name = ERRNO_NAMES.get(-nqe.op_data, "EIO")
                if errno_name == "EAGAIN":
                    # The switch shed this pipelined send under overload:
                    # the bytes were not delivered, but the socket is
                    # healthy — poisoning errno would fail every later
                    # send on a transient condition.
                    self.send_results_shed += 1
                else:
                    sock.errno = errno_name
            self._wake(sock._writable_waiters)
            self._notify(sock)
        elif nqe.op == NqeOp.DATA_ARRIVED:
            buffer = self.hugepages.get(nqe.data_ptr)
            if sock.kind == "dgram":
                source = (nqe.aux or {}).get("from")
                sock.rx_dgrams.append((buffer.read(), source))
            else:
                sock.rx_chunks.append([buffer.read(), 0])
                sock.rx_ready_bytes += nqe.size
            buffer.free()
            self._wake(sock._readable_waiters)
            self._notify(sock)
        elif nqe.op == NqeOp.ACCEPT_EVENT:
            child = self._create_accepted(sock, nqe, qset_index)
            sock.accept_q.append(child)
            self._wake(sock._readable_waiters)
            self._notify(sock)
        elif nqe.op == NqeOp.PEER_CLOSED:
            sock.peer_closed = True
            self._wake(sock._readable_waiters)
            self._notify(sock)
        elif nqe.op == NqeOp.ERROR_EVENT:
            sock.errno = ERRNO_NAMES.get(-nqe.op_data, "EIO")
            self._wake(sock._readable_waiters)
            self._wake(sock._writable_waiters)
            self._notify(sock)

    def _create_accepted(self, listener: NetKernelSocket, nqe: Nqe,
                         qset_index: int) -> NetKernelSocket:
        """Materialize an accepted connection and attach it (ACCEPT flow)."""
        fd = self._alloc_fd()
        home = self._accept_rr % len(self.device.queue_sets)
        self._accept_rr += 1
        child = NetKernelSocket(self, fd, home_qset=home)
        child.state = "connected"
        child.remote = (nqe.aux or {}).get("peer")
        child.bound_port = listener.bound_port
        self.fd_table[fd] = child
        self._by_sock_id[child.sock_id] = child
        attach = NQE_POOL.acquire(
            NqeOp.ACCEPT_ATTACH, self.vm_id, child.home_qset,
            child.sock_id, op_data=nqe.op_data, created_at=self.sim.now)
        self.sim.process(self._push(child.home_qset, attach))
        return child

    @staticmethod
    def _wake(waiters: List) -> None:
        pending, waiters[:] = list(waiters), []
        for event in pending:
            if not event.triggered:
                event.succeed()

    def _notify(self, sock: NetKernelSocket) -> None:
        for epoll in list(sock.watchers):
            epoll.notify(sock)
