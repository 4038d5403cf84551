"""Tests (including property-based) for TCP stream buffers, checked
against small reference models of their byte-stream semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ResourceError
from repro.stack.tcp.buffers import (
    INITIAL_SLAB_BYTES,
    ReceiveBuffer,
    SendBuffer,
)


class ReceiveModel:
    """The reference receive semantics over plain containers: a
    bytearray of ready bytes and a dict of stashed out-of-order
    segments, re-scanned in full wherever ReceiveBuffer keeps an index.

    An out-of-order segment is stashed only if it fits the window and
    its sequence number is not stashed already; in-order data is taken
    up to the window; stashed segments the cursor has passed are trimmed
    (keeping the longer of two at the same start) or dropped."""

    def __init__(self, capacity, initial_seq=0):
        self.capacity = capacity
        self.rcv_nxt = initial_seq
        self.ready = bytearray()
        self.stash = {}

    @property
    def window(self):
        pending = len(self.ready) + sum(map(len, self.stash.values()))
        return max(0, self.capacity - pending)

    def deliver(self, seq, data):
        data = bytes(data)
        if not data or seq + len(data) <= self.rcv_nxt:
            return 0
        if seq < self.rcv_nxt:
            data, seq = data[self.rcv_nxt - seq:], self.rcv_nxt
        if seq > self.rcv_nxt:
            if len(data) <= self.window and seq not in self.stash:
                self.stash[seq] = data
            return 0
        take = min(len(data), self.window)
        self.ready += data[:take]
        self.rcv_nxt += take
        return take + self._drain() if take else 0

    def _drain(self):
        drained = 0
        while True:
            for seq in sorted(self.stash):
                if seq >= self.rcv_nxt:
                    break
                chunk = self.stash.pop(seq)
                if seq + len(chunk) > self.rcv_nxt:
                    trimmed = chunk[self.rcv_nxt - seq:]
                    if len(self.stash.get(self.rcv_nxt, b"")) < len(trimmed):
                        self.stash[self.rcv_nxt] = trimmed
            chunk = self.stash.pop(self.rcv_nxt, None)
            if chunk is None:
                return drained
            take = min(len(chunk), self.capacity - len(self.ready))
            if take <= 0:
                self.stash[self.rcv_nxt] = chunk
                return drained
            self.ready += chunk[:take]
            self.rcv_nxt += take
            drained += take
            if take < len(chunk):
                self.stash[self.rcv_nxt] = chunk[take:]
                return drained

    def read(self, max_bytes):
        data = bytes(self.ready[:max_bytes])
        del self.ready[:max_bytes]
        return data


def _segments(data, payload, copies=1):
    """A drawn permutation of ``copies`` cuts of ``payload`` into
    (seq, bytes) segments."""
    cuts = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=max(1, len(payload) - 1)),
        max_size=8)))
    bounds = [0] + cuts + [len(payload)]
    segments = [
        (bounds[i], payload[bounds[i]:bounds[i + 1]])
        for i in range(len(bounds) - 1)
        if bounds[i] < bounds[i + 1]
    ]
    return data.draw(st.permutations(segments * copies))


class TestSendBuffer:
    def test_write_peek_advance(self):
        buf = SendBuffer(100)
        assert buf.write(b"hello world") == 11
        assert buf.peek(0, 5) == b"hello"
        assert buf.peek(6, 5) == b"world"
        buf.advance(6)
        assert buf.peek(0, 5) == b"world"

    def test_write_respects_capacity(self):
        buf = SendBuffer(4)
        assert buf.write(b"abcdef") == 4
        assert buf.free_space == 0
        assert buf.write(b"x") == 0

    def test_advance_past_data_rejected(self):
        buf = SendBuffer(100)
        buf.write(b"abc")
        with pytest.raises(ResourceError):
            buf.advance(4)

    def test_negative_args_rejected(self):
        buf = SendBuffer(100)
        with pytest.raises(ResourceError):
            buf.peek(-1, 5)
        with pytest.raises(ResourceError):
            buf.advance(-1)

    @given(st.lists(st.binary(min_size=1, max_size=50), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_stream_integrity_property(self, chunks):
        """Bytes come out in exactly the order and content written."""
        buf = SendBuffer(10_000)
        joined = b"".join(chunks)
        for chunk in chunks:
            assert buf.write(chunk) == len(chunk)
        out = buf.peek(0, len(joined))
        assert out == joined

    def test_slab_starts_small_and_grows_by_doubling_to_capacity(self):
        capacity = 5 * INITIAL_SLAB_BYTES
        buf = SendBuffer(capacity)
        assert len(buf._mv) == INITIAL_SLAB_BYTES
        assert len(SendBuffer(100)._mv) == 100
        buf.write(bytes(INITIAL_SLAB_BYTES))
        assert len(buf._mv) == INITIAL_SLAB_BYTES  # fits: no growth
        buf.write(b"x")
        assert len(buf._mv) == 2 * INITIAL_SLAB_BYTES
        buf.write(bytes(INITIAL_SLAB_BYTES + 1))
        assert len(buf._mv) == 4 * INITIAL_SLAB_BYTES
        buf.write(bytes(capacity))
        assert len(buf._mv) == capacity  # capped, not the next doubling
        assert buf.free_space == 0
        buf.advance(capacity)
        assert len(buf._mv) == capacity  # never shrunk

    def test_growth_relinearizes_a_wrapped_ring(self):
        buf = SendBuffer(4 * INITIAL_SLAB_BYTES)
        head = bytes(i % 251 for i in range(INITIAL_SLAB_BYTES))
        buf.write(head)
        buf.advance(INITIAL_SLAB_BYTES - 10)  # 10 bytes left at the end
        wrapped = b"w" * 20
        buf.write(wrapped)  # wraps to the slab's start
        assert len(buf._mv) == INITIAL_SLAB_BYTES
        held = buf.peek(0, 10)
        buf.write(b"g" * INITIAL_SLAB_BYTES)  # does not fit: grows
        assert len(buf._mv) == 2 * INITIAL_SLAB_BYTES
        expect = head[-10:] + wrapped + b"g" * INITIAL_SLAB_BYTES
        assert bytes(buf.peek(0, len(expect))) == expect
        assert isinstance(buf.peek(0, len(expect)), memoryview)
        assert bytes(held) == head[-10:]  # the old slab is left untouched


class TestReceiveBuffer:
    def test_in_order_delivery(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        assert buf.deliver(0, b"abc") == 3
        assert buf.deliver(3, b"def") == 3
        assert buf.read(100) == b"abcdef"
        assert buf.rcv_nxt == 6

    def test_out_of_order_reassembly(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        assert buf.deliver(3, b"def") == 0  # stashed
        assert buf.deliver(0, b"abc") == 6  # drains the stash
        assert buf.read(100) == b"abcdef"

    def test_duplicate_segments_ignored(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        buf.deliver(0, b"abc")
        assert buf.deliver(0, b"abc") == 0
        assert buf.read(100) == b"abc"

    def test_overlapping_prefix_trimmed(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        buf.deliver(0, b"abc")
        assert buf.deliver(1, b"bcde") == 2  # only "de" is new
        assert buf.read(100) == b"abcde"

    def test_window_shrinks_with_backlog(self):
        buf = ReceiveBuffer(10, initial_seq=0)
        assert buf.window == 10
        buf.deliver(0, b"abcde")
        assert buf.window == 5

    def test_window_closed_drops_excess(self):
        buf = ReceiveBuffer(4, initial_seq=0)
        buf.deliver(0, b"abcd")
        assert buf.window == 0
        assert buf.deliver(4, b"e") == 0
        assert buf.read(100) == b"abcd"

    def test_read_partial(self):
        buf = ReceiveBuffer(100, initial_seq=0)
        buf.deliver(0, b"abcdef")
        assert buf.read(2) == b"ab"
        assert buf.read(100) == b"cdef"

    def test_nonzero_initial_seq(self):
        buf = ReceiveBuffer(100, initial_seq=5000)
        assert buf.deliver(5000, b"xy") == 2
        assert buf.rcv_nxt == 5002

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_reassembly_property(self, data):
        """Delivering segments of a stream in any order yields the
        original bytes, in order, exactly once."""
        payload = data.draw(st.binary(min_size=1, max_size=200))
        order = _segments(data, payload)
        buf = ReceiveBuffer(10_000, initial_seq=0)
        for seq, chunk in order:
            buf.deliver(seq, chunk)
        # Retransmit everything once more (idempotence under duplicates).
        for seq, chunk in order:
            buf.deliver(seq, chunk)
        assert buf.read(100_000) == payload


class TestDeliverMatchesModel:
    """Segment-by-segment ``deliver`` must match the reference model —
    same bytes made ready, same cursor, same window, same stream — under
    reordering, overlap, duplicates and a closing window."""

    def _check(self, segments, capacity=1000):
        buf = ReceiveBuffer(capacity, initial_seq=0)
        model = ReceiveModel(capacity)
        made = sum(buf.deliver(seq, data) for seq, data in segments)
        assert made == sum(model.deliver(seq, data)
                           for seq, data in segments)
        assert buf.rcv_nxt == model.rcv_nxt
        assert buf.window == model.window
        assert len(buf) == len(model.ready)
        assert buf.read(10 * capacity) == model.read(10 * capacity)

    def test_in_order_run(self):
        self._check([(0, b"abc"), (3, b"def"), (6, b"ghi")])

    def test_out_of_order_then_fill(self):
        self._check([(6, b"ghi"), (3, b"def"), (0, b"abc")])

    def test_overlap_and_duplicates(self):
        self._check([(0, b"abcd"), (2, b"cdef"), (0, b"abcd"), (4, b"efgh")])

    def test_stash_drains_when_the_gap_fills(self):
        # Segment 2 stashes; segment 3 fills the gap and must drain it.
        self._check([(0, b"aa"), (4, b"cc"), (2, b"bb"), (6, b"dd")])

    def test_window_closes_mid_stream(self):
        self._check([(0, b"abcd"), (4, b"efgh"), (8, b"ijkl")], capacity=6)

    def test_memoryview_segments(self):
        # The zero-copy hand-off delivers memoryviews over the sender
        # slab; delivery must materialize them on arrival.
        slab = bytearray(b"abcdefgh")
        segs = [(0, memoryview(slab)[0:4]), (4, memoryview(slab)[4:8])]
        buf = ReceiveBuffer(100, initial_seq=0)
        assert sum(buf.deliver(seq, data) for seq, data in segs) == 8
        slab[:] = b"XXXXXXXX"  # mutating the slab must not alias ready data
        assert buf.read(100) == b"abcdefgh"

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_duplicated_segments_property(self, data):
        payload = data.draw(st.binary(min_size=1, max_size=200))
        order = _segments(data, payload, copies=2)
        capacity = data.draw(st.sampled_from((10_000, len(payload) // 2 + 1)))
        self._check(order, capacity=capacity)


class TestBuffersMatchModels:
    """Interleaved operation sequences, compared with the reference
    models after every step."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_receive_ops_match_model(self, data):
        payload = data.draw(st.binary(min_size=1, max_size=300))
        capacity = data.draw(st.integers(min_value=1, max_value=120))
        buf = ReceiveBuffer(capacity, initial_seq=0)
        model = ReceiveModel(capacity)
        for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
            if data.draw(st.booleans()):
                n = data.draw(st.integers(min_value=0, max_value=64))
                assert buf.read(n) == model.read(n)
            else:
                # Near the cursor, possibly stale or overlapping, like a
                # retransmitting sender's segments.
                seq = data.draw(st.integers(
                    max(0, model.rcv_nxt - 20),
                    min(len(payload) - 1, model.rcv_nxt + 60)))
                end = data.draw(st.integers(seq + 1, len(payload)))
                chunk = payload[seq:end]
                assert buf.deliver(seq, chunk) == model.deliver(seq, chunk)
            assert buf.rcv_nxt == model.rcv_nxt
            assert buf.window == model.window
            assert len(buf) == len(model.ready)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_send_ops_match_model(self, data):
        """A bytearray model of write/peek/advance.  Capacities up to
        several initial slabs make writes cross slab growth, small ones
        make the ring wrap, so peeks straddle the boundary too.  A "hold"
        keeps a peeked view across later writes, growth and advances: it
        must keep showing the model's bytes for as long as they are
        unacked."""
        small = data.draw(st.booleans())
        capacity = data.draw(st.integers(
            min_value=1, max_value=64 if small else 5 * INITIAL_SLAB_BYTES))
        most = 48 if small else 2 * INITIAL_SLAB_BYTES
        buf = SendBuffer(capacity)
        model = bytearray()
        acked = 0  # stream offset of model[0]
        held = []  # (stream offset, view)
        counter = 0
        for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
            op = data.draw(st.sampled_from(
                ("write", "peek", "hold", "advance")))
            if op == "write":
                n = data.draw(st.integers(min_value=0, max_value=most))
                chunk = bytes((counter + i) % 251 for i in range(n))
                counter += n
                take = min(n, capacity - len(model))
                assert buf.write(memoryview(chunk)) == take
                model += chunk[:take]
            elif op == "peek":
                offset = data.draw(st.integers(0, capacity))
                length = data.draw(st.integers(0, capacity))
                assert bytes(buf.peek(offset, length)) == \
                    bytes(model[offset:offset + length])
            elif op == "hold" and model:
                offset = data.draw(st.integers(0, len(model) - 1))
                length = data.draw(st.integers(1, len(model) - offset))
                view = buf.peek(offset, length)
                assert bytes(view) == bytes(model[offset:offset + length])
                held.append((acked + offset, view))
            elif op == "advance":
                n = data.draw(st.integers(0, len(model)))
                buf.advance(n)
                del model[:n]
                acked += n
            # Held views: their unacked bytes still match; once an
            # advance passes the last byte, the view is let go.
            held = [(start, view) for start, view in held
                    if start + len(view) > acked]
            for start, view in held:
                skip = max(0, acked - start)
                assert bytes(view[skip:]) == bytes(
                    model[start + skip - acked:start + len(view) - acked])
            assert len(buf) == len(model)
            assert buf.free_space == capacity - len(model)
        assert bytes(buf.peek(0, capacity)) == bytes(model)


class TestStaleOutOfOrderPurge:
    """Regression: retransmissions at shifted offsets must not leave
    stale stashed chunks that permanently shrink the window."""

    def test_overlapping_retransmit_does_not_leak_window(self):
        buf = ReceiveBuffer(100, initial_seq=0)
        buf.deliver(20, b"c" * 10)   # out of order, stashed
        buf.deliver(25, b"d" * 10)   # overlapping retransmit, stashed too
        assert buf.window == 80
        buf.deliver(0, b"a" * 20)    # fills the hole; drains 20..35
        assert buf.read(100) == b"a" * 20 + b"c" * 10 + b"d" * 5
        # Every stashed byte must be reclaimed: full window restored.
        assert buf.window == 100
        assert not buf._out_of_order

    def test_fully_stale_chunk_purged(self):
        buf = ReceiveBuffer(100, initial_seq=0)
        buf.deliver(10, b"x" * 5)    # stashed
        buf.deliver(0, b"y" * 30)    # covers and passes the stash entirely
        buf.read(100)
        assert buf.window == 100
        assert not buf._out_of_order

    def test_longer_stashed_chunk_survives_purge(self):
        buf = ReceiveBuffer(100, initial_seq=0)
        model = ReceiveModel(100)
        # A stale chunk trimmed to start at the cursor must not replace
        # a longer chunk already stashed there.
        for seq, data in ((5, b"a" * 10), (10, b"b" * 20), (0, b"c" * 10)):
            assert buf.deliver(seq, data) == model.deliver(seq, data)
        assert buf.rcv_nxt == model.rcv_nxt == 30
        assert buf.read(100) == model.read(100) == b"c" * 10 + b"b" * 20
        assert buf.window == model.window == 100

    def test_long_lossy_stream_never_wedges_window(self):
        """Simulates heavy retransmission overlap patterns."""
        import random

        rng = random.Random(5)
        payload = bytes(rng.randrange(256) for _ in range(4000))
        buf = ReceiveBuffer(1000, initial_seq=0)
        out = bytearray()
        cursor_stall = 0
        while len(out) < len(payload) and cursor_stall < 10_000:
            # Random (possibly overlapping, possibly stale) segment near
            # the cursor, like a retransmitting sender would produce.
            base = max(0, buf.rcv_nxt - 30)
            seq = rng.randrange(base, min(len(payload), base + 200))
            end = min(len(payload), seq + rng.randrange(1, 120))
            buf.deliver(seq, payload[seq:end])
            out.extend(buf.read(1000))
            cursor_stall += 1
        assert bytes(out) == payload
        assert buf.window == 1000
