"""NetKernel Queue Elements (NQEs).

Figure 3 of the paper: a fixed 32-byte element encoding one socket
operation, one execution result, or one data event::

    1B op type | 1B VM ID | 1B queue set ID | 4B VM socket ID |
    8B op_data | 8B data pointer | 4B size | 5B reserved

We keep the exact wire layout (``pack``/``unpack`` round-trip through 32
bytes) so the queue-element representation is faithful, while the hot path
passes the Python objects themselves — the simulator's equivalent of
writing the struct into shared memory.

``op_data`` carries operation arguments (port numbers, flags, result
codes).  Arguments that do not fit in 8 bytes in our string-addressed
simulation (e.g. a destination host name) travel in ``aux``; the real
system packs them into op_data as an IPv4 address + port, so the
information content is the same and the 32-byte budget is honest.
"""

from __future__ import annotations

import enum
import itertools
import struct
from typing import Any, Optional

#: The fixed NQE size (Fig. 3).
NQE_SIZE = 32

_STRUCT = struct.Struct("<BBBi q q i 5x")
assert _STRUCT.size == NQE_SIZE

_tokens = itertools.count(1)


class NqeOp(enum.IntEnum):
    """Operation / event types carried by NQEs."""

    # VM -> NSM socket operations (job queue).
    SOCKET = 1
    BIND = 2
    LISTEN = 3
    CONNECT = 4
    ACCEPT_ATTACH = 5   # VM attaches its socket id to an accepted conn
    SETSOCKOPT = 6
    GETSOCKOPT = 7
    SHUTDOWN = 8
    CLOSE = 9
    #: Guest consumed received bytes: replenish the NSM-side receive
    #: window (the simulation's explicit form of the paper's "receive
    #: buffer usage" accounting in §4.5).
    RECV_CREDIT = 10
    #: CoreEngine health probe into an NSM's job ring (§8's failure
    #: discussion); answered by ServiceLib with HEARTBEAT_ACK.
    HEARTBEAT = 11
    # VM -> NSM operations with data (send queue).
    SEND = 16
    SENDTO = 17
    # NSM -> VM results (completion queue).
    OP_RESULT = 32
    SEND_RESULT = 33
    #: ServiceLib's liveness answer, intercepted by CoreEngine (never
    #: delivered to a VM).
    HEARTBEAT_ACK = 34
    # NSM -> VM events (receive queue).
    DATA_ARRIVED = 48
    ACCEPT_EVENT = 49
    CONNECTED_EVENT = 50
    PEER_CLOSED = 51
    ERROR_EVENT = 52


class Nqe:
    """One queue element.

    ``token`` correlates a response with its request (the real system uses
    the socket id plus op type; an explicit token keeps the simulation
    easy to audit).  ``aux`` carries non-numeric arguments as described in
    the module docstring.
    """

    __slots__ = ("op", "vm_id", "queue_set_id", "socket_id", "op_data",
                 "data_ptr", "size", "token", "aux", "created_at", "trace")

    def __init__(self, op: NqeOp, vm_id: int, queue_set_id: int,
                 socket_id: int, op_data: int = 0, data_ptr: int = 0,
                 size: int = 0, token: Optional[int] = None,
                 aux: Any = None, created_at: float = 0.0):
        self._reinit(op, vm_id, queue_set_id, socket_id, op_data=op_data,
                     data_ptr=data_ptr, size=size, token=token, aux=aux,
                     created_at=created_at)

    def _reinit(self, op: NqeOp, vm_id: int, queue_set_id: int,
                socket_id: int, op_data: int = 0, data_ptr: int = 0,
                size: int = 0, token: Optional[int] = None,
                aux: Any = None, created_at: float = 0.0) -> "Nqe":
        """(Re)initialize every field — shared by __init__ and the pool,
        so a recycled element is indistinguishable from a fresh one."""
        # ``NqeOp.__call__`` is surprisingly expensive and acquire() sits on
        # the switching hot path; skip the conversion when ``op`` is already
        # an enum member (the overwhelmingly common case).
        self.op = op if type(op) is NqeOp else NqeOp(op)
        self.vm_id = vm_id
        self.queue_set_id = queue_set_id
        self.socket_id = socket_id
        self.op_data = op_data
        self.data_ptr = data_ptr
        self.size = size
        self.token = next(_tokens) if token is None else token
        self.aux = aux
        self.created_at = created_at
        #: Sim-time stamps written by repro.obs when tracing is enabled;
        #: stays None otherwise (not part of the 32-byte wire format).
        self.trace = None
        return self

    # -- wire format -------------------------------------------------------

    def pack(self) -> bytes:
        """The 32-byte on-queue representation (Fig. 3)."""
        return _STRUCT.pack(int(self.op), self.vm_id, self.queue_set_id,
                            self.socket_id, self.op_data, self.data_ptr,
                            self.size)

    @classmethod
    def unpack(cls, raw: bytes) -> "Nqe":
        """Decode a 32-byte element (token/aux are sim-side metadata).

        The token is *not* part of the wire format, so a decoded element
        draws a fresh one.  (It used to be hardcoded to 0 — but ``_tokens``
        is shared and starts at 1, so a 0 token was not reserved and an
        unpacked element could shadow a live request's correlation token in
        any map keyed by token.)
        """
        if len(raw) != NQE_SIZE:
            raise ValueError(f"NQE must be {NQE_SIZE} bytes, got {len(raw)}")
        op, vm_id, qset, sock, op_data, data_ptr, size = _STRUCT.unpack(raw)
        return cls(NqeOp(op), vm_id, qset, sock, op_data, data_ptr, size,
                   token=None)

    def response(self, op: NqeOp, op_data: int = 0, data_ptr: int = 0,
                 size: int = 0, aux: Any = None) -> "Nqe":
        """A response NQE carrying this request's VM tuple and token."""
        return NQE_POOL.acquire(op, self.vm_id, self.queue_set_id,
                                self.socket_id, op_data=op_data,
                                data_ptr=data_ptr, size=size,
                                token=self.token, aux=aux)

    @property
    def vm_tuple(self):
        """⟨VM ID, queue set ID, socket ID⟩ — the connection-table key."""
        return (self.vm_id, self.queue_set_id, self.socket_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NQE {self.op.name} vm={self.vm_id} qs={self.queue_set_id} "
                f"sock={self.socket_id} size={self.size}>")


class NqePool:
    """Free-list of :class:`Nqe` objects (the datapath's only high-volume
    allocation besides events).

    The real system's queue elements live in preallocated shared-memory
    slots; this is the simulator's analogue.  ``acquire`` reuses a
    released element when one is available, fully reinitializing every
    field (including ``trace``, so a recycled element never leaks stale
    observability stamps).  ``release`` is called by the *final consumer*
    of an element — GuestLib for inbound NQEs (its ``_call`` releases an
    OP_RESULT once the blocked caller has copied the result out; the
    poller releases everything else, including orphaned responses whose
    caller timed out), ServiceLib for request NQEs it has handled (a
    CONNECT is released by its resolution callback), and CoreEngine for
    elements it drops or intercepts (backpressure drops, heartbeat ACKs,
    reclaimed rings) — never by intermediaries.

    Recycling is observable only through the pool's own counters: a
    recycled element is field-for-field identical to a fresh one, so the
    simulated timeline does not depend on pool hits or misses.
    """

    __slots__ = ("max_free", "_free", "allocated", "reused", "released",
                 "discarded")

    def __init__(self, max_free: int = 8192):
        self.max_free = max_free
        self._free: list = []
        # Lifetime counters (perf harness / tests).
        self.allocated = 0
        self.reused = 0
        self.released = 0
        #: Returns past the free-list cap: consumed, but not retained.
        self.discarded = 0

    def acquire(self, op: NqeOp, vm_id: int, queue_set_id: int,
                socket_id: int, op_data: int = 0, data_ptr: int = 0,
                size: int = 0, token: Optional[int] = None,
                aux: Any = None, created_at: float = 0.0) -> Nqe:
        """A fully initialized NQE, recycled when the free list allows."""
        if self._free:
            self.reused += 1
            return self._free.pop()._reinit(
                op, vm_id, queue_set_id, socket_id, op_data=op_data,
                data_ptr=data_ptr, size=size, token=token, aux=aux,
                created_at=created_at)
        self.allocated += 1
        return Nqe(op, vm_id, queue_set_id, socket_id, op_data=op_data,
                   data_ptr=data_ptr, size=size, token=token, aux=aux,
                   created_at=created_at)

    def release(self, nqe: Nqe) -> None:
        """Return a fully consumed element to the free list."""
        if len(self._free) >= self.max_free:
            self.discarded += 1
            return
        nqe.aux = None
        nqe.trace = None
        self._free.append(nqe)
        self.released += 1

    @property
    def outstanding(self) -> int:
        """Acquired elements not yet returned by their final consumer.

        Leak detector for tests: at quiescence (no NQEs in any ring, no
        blocked callers) this must be back to its pre-workload value.
        """
        return (self.allocated + self.reused) - (self.released + self.discarded)


#: Process-wide pool shared by GuestLib/ServiceLib (single-threaded sim).
NQE_POOL = NqePool()


#: Result codes carried in op_data of OP_RESULT NQEs.
RESULT_OK = 0
RESULT_ERRNO = {
    "EADDRINUSE": 98,
    "EAGAIN": 11,
    "ECONNREFUSED": 111,
    "ECONNRESET": 104,
    "ETIMEDOUT": 110,
    "EINVAL": 22,
    "EBADF": 9,
}
ERRNO_NAMES = {code: name for name, code in RESULT_ERRNO.items()}
