"""Send and receive stream buffers.

Both carry real bytes so data integrity can be asserted end to end.  The
send buffer holds everything written-but-unacked; the receive buffer
reassembles out-of-order segments and exposes the advertised window.

Both are laid out to copy payload bytes as few times as possible:

* ``SendBuffer`` is a ring over one ``bytearray`` slab that follows
  the bytes it holds rather than its capacity: the slab starts at
  :data:`INITIAL_SLAB_BYTES` (or ``capacity`` if smaller) and doubles,
  up to ``capacity``, on a ``write`` that does not fit.  It is never
  shrunk, so a connection whose backlog has peaked allocates no more,
  while ``capacity``, ``free_space`` and every result are exactly those
  of a preallocated ``capacity``-byte ring.  ``write`` copies bytes in
  once; ``peek`` returns a zero-copy ``memoryview`` of the slab for the
  contiguous common case (so every transmission and retransmission
  reads the slab in place); ``advance`` is O(1) index arithmetic
  instead of an O(n) front-delete memmove per ACK.  Views handed out by
  ``peek`` stay valid as long as their bytes are unacked: the ring
  cannot recycle a region before ``advance`` passes it, and growth
  copies the live bytes into a *new* slab, leaving the old one (and
  every view of it) unchanged.  Receivers copy on delivery (below)
  before the ACK that would free a region can exist.

* ``ReceiveBuffer`` stores ready data as a deque of bytes
  chunks: ``deliver`` materializes each accepted payload slice exactly
  once (``bytes(view)`` — the single per-direction copy), ``read`` hands
  the head chunk back zero-copy when it satisfies the read, and the
  advertised window comes from maintained counters instead of summing
  chunk lengths.  Out-of-order purging keeps a sorted key list updated
  by bisect, so the no-stale-chunks common case costs O(1) per drain
  iteration instead of re-sorting every stashed key.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Dict, List, Union

from repro.errors import ResourceError

Payload = Union[bytes, bytearray, memoryview]

#: Bytes a fresh send buffer's slab starts with (capped at its capacity).
INITIAL_SLAB_BYTES = 4096


class SendBuffer:
    """Unacked + unsent outbound bytes, addressed relative to SND.UNA."""

    def __init__(self, capacity: int = 4 * 1024 * 1024):
        if capacity < 1:
            raise ResourceError(f"send buffer capacity must be >=1: {capacity}")
        self.capacity = capacity
        # Ring over the slab: bytes live at _start.._start + _len,
        # wrapping at the slab's size, not at capacity.
        self._size = min(capacity, INITIAL_SLAB_BYTES)
        self._mv = memoryview(bytearray(self._size))
        self._start = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def free_space(self) -> int:
        return self.capacity - len(self)

    def write(self, data: Payload) -> int:
        """Append up to ``free_space`` bytes; returns how many were taken."""
        take = min(len(data), self.capacity - self._len)
        if not take:
            return 0
        if self._len + take > self._size:
            self._grow(self._len + take)
        size = self._size
        src = data if type(data) is memoryview else memoryview(data)
        pos = self._start + self._len
        if pos >= size:
            pos -= size
        first = min(take, size - pos)
        self._mv[pos:pos + first] = src[:first]
        if first < take:
            self._mv[:take - first] = src[first:take]
        self._len += take
        return take

    def _grow(self, need: int) -> None:
        """Move the live bytes, in order, to the start of a new slab of
        the next doubling that holds ``need`` bytes (capped at capacity).
        The old slab is dropped, not reused, so views of it stay valid."""
        size = self._size
        while size < need:
            size *= 2
        mv = memoryview(bytearray(min(size, self.capacity)))
        first = min(self._len, self._size - self._start)
        mv[:first] = self._mv[self._start:self._start + first]
        mv[first:self._len] = self._mv[:self._len - first]
        self._mv = mv
        self._size = len(mv)
        self._start = 0

    def peek(self, offset: int, length: int) -> Payload:
        """Bytes at ``offset`` from SND.UNA (for (re)transmission).

        Returns a zero-copy ``memoryview`` of the slab when the range is
        contiguous (the overwhelmingly common case);
        a range that wraps the ring boundary is joined into fresh bytes.
        The view is guaranteed stable until ``advance`` passes its last
        byte — i.e. for as long as the bytes are unacked.
        """
        if offset < 0:
            raise ResourceError(f"negative peek offset: {offset}")
        take = min(length, self._len - offset)
        if take <= 0:
            return b""
        size = self._size
        pos = self._start + offset
        if pos >= size:
            pos -= size
        first = size - pos
        if take <= first:
            return self._mv[pos:pos + take]
        return bytes(self._mv[pos:]) + bytes(self._mv[:take - first])

    def advance(self, acked: int) -> None:
        """Drop ``acked`` bytes from the front (cumulative ACK)."""
        if acked < 0:
            raise ResourceError(f"negative ack advance: {acked}")
        if acked > self._len:
            raise ResourceError(
                f"ack advances past buffered data: {acked} > {self._len}"
            )
        start = self._start + acked
        if start >= self._size:
            start -= self._size
        self._start = start
        self._len -= acked


class ReceiveBuffer:
    """In-order delivery queue plus out-of-order reassembly."""

    def __init__(self, capacity: int = 4 * 1024 * 1024, initial_seq: int = 0):
        if capacity < 1:
            raise ResourceError(f"recv buffer capacity must be >=1: {capacity}")
        self.capacity = capacity
        self.rcv_nxt = initial_seq
        self._out_of_order: Dict[int, bytes] = {}
        self._chunks: deque = deque()
        self._ready_len = 0
        self._read_pos = 0  # consumed prefix of _chunks[0]
        self._ooo_keys: List[int] = []  # sorted view of _out_of_order
        self._ooo_bytes = 0

    def __len__(self) -> int:
        return self._ready_len

    @property
    def window(self) -> int:
        """Advertised receive window (free space for in-order data)."""
        return max(0, self.capacity - self._ready_len - self._ooo_bytes)

    def deliver(self, seq: int, data: Payload) -> int:
        """Accept a data segment; returns bytes newly made ready.

        Segments beyond the window are dropped (the sender respects the
        advertised window, so overflow indicates loss-recovery overlap and
        is trimmed, not fatal).  Duplicate and overlapping prefixes are
        trimmed against ``rcv_nxt``.

        ``data`` may be a ``memoryview`` over the sender's slab; this is
        the one point where payload bytes are copied on the receive side
        (``bytes(view)``), and it happens *before* the ACK covering them
        can be emitted, so the viewed region cannot have been recycled.
        """
        length = len(data)
        if not length:
            return 0
        end = seq + length
        nxt = self.rcv_nxt
        if end <= nxt:
            return 0  # entirely duplicate
        off = 0
        if seq < nxt:
            off = nxt - seq
            seq = nxt
            length -= off

        if seq > nxt:
            # Out of order: stash a copy (bounded by window; beyond it,
            # drop).  Copying here keeps stashed bytes independent of the
            # sender's slab, whose region may be recycled after later ACKs.
            if length <= self.window and seq not in self._out_of_order:
                self._out_of_order[seq] = bytes(data[off:])
                insort(self._ooo_keys, seq)
                self._ooo_bytes += length
            return 0

        # In order: take what fits the window.
        take = min(length, self.window)
        if take <= 0:
            return 0
        if off == 0 and take == length and type(data) is bytes:
            chunk = data  # already immutable: adopt without copying
        else:
            chunk = bytes(data[off:off + take])
        self._chunks.append(chunk)
        self._ready_len += take
        self.rcv_nxt = seq + take
        return take + self._drain_out_of_order()

    def _drain_out_of_order(self) -> int:
        drained = 0
        ooo = self._out_of_order
        keys = self._ooo_keys
        while True:
            self._purge_stale_out_of_order()
            nxt = self.rcv_nxt
            if not keys or keys[0] != nxt:
                break
            chunk = ooo.pop(nxt)
            del keys[0]
            clen = len(chunk)
            self._ooo_bytes -= clen
            take = min(clen, self.capacity - self._ready_len)
            if take <= 0:
                # Window closed mid-drain; put the chunk back.
                ooo[nxt] = chunk
                keys.insert(0, nxt)
                self._ooo_bytes += clen
                break
            if take < clen:
                self._chunks.append(chunk[:take])
                self._ready_len += take
                self.rcv_nxt = nxt + take
                drained += take
                rest = chunk[take:]
                ooo[self.rcv_nxt] = rest
                keys.insert(0, self.rcv_nxt)
                self._ooo_bytes += len(rest)
                break
            self._chunks.append(chunk)
            self._ready_len += take
            self.rcv_nxt = nxt + take
            drained += take
        return drained

    def _purge_stale_out_of_order(self) -> None:
        """Drop or trim stashed segments the cursor has passed.

        Retransmissions at offsets different from the stashed copies can
        leave chunks whose range is partly or fully below ``rcv_nxt``;
        without purging they would count against the advertised window
        forever (a permanent zero-window in long transfers with loss).

        It walks ``_ooo_keys`` (kept sorted by bisect on insert) from the
        front, so the common no-stale-chunks case is a single comparison.
        """
        keys = self._ooo_keys
        ooo = self._out_of_order
        nxt = self.rcv_nxt
        while keys and keys[0] < nxt:
            seq = keys.pop(0)
            chunk = ooo.pop(seq)
            self._ooo_bytes -= len(chunk)
            if seq + len(chunk) > nxt:
                trimmed = chunk[nxt - seq:]
                existing = ooo.get(nxt)
                if existing is None or len(existing) < len(trimmed):
                    if existing is None:
                        # nxt sorts before every surviving key (all >= nxt).
                        keys.insert(0, nxt)
                    else:
                        self._ooo_bytes -= len(existing)
                    ooo[nxt] = trimmed
                    self._ooo_bytes += len(trimmed)

    def read(self, max_bytes: int) -> bytes:
        """Consume up to ``max_bytes`` of in-order data.

        Returns the ready head chunk itself (zero-copy) when it exactly
        satisfies the read; otherwise a single slice or join.
        """
        if max_bytes < 0:
            raise ResourceError(f"negative read: {max_bytes}")
        take = min(max_bytes, self._ready_len)
        if take <= 0:
            return b""
        chunks = self._chunks
        pos = self._read_pos
        head = chunks[0]
        head_avail = len(head) - pos
        if head_avail >= take:
            if pos == 0 and head_avail == take:
                chunks.popleft()
                self._ready_len -= take
                return head  # whole chunk: hand it back without copying
            data = head[pos:pos + take]
            if head_avail == take:
                chunks.popleft()
                self._read_pos = 0
            else:
                self._read_pos = pos + take
            self._ready_len -= take
            return data
        # Read spans chunks: gather with one join.
        parts = []
        need = take
        while need:
            head = chunks[0]
            avail = len(head) - pos
            if avail <= need:
                parts.append(head[pos:] if pos else head)
                chunks.popleft()
                pos = 0
                need -= avail
            else:
                parts.append(head[pos:pos + need])
                pos += need
                need = 0
        self._read_pos = pos
        self._ready_len -= take
        return b"".join(parts)
