"""Tests for the 32-byte NQE wire format and queue sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nqe import NQE_SIZE, Nqe, NqeOp
from repro.core.queues import QueueSet


class TestNqeFormat:
    def test_packed_size_is_32_bytes(self):
        nqe = Nqe(NqeOp.SOCKET, vm_id=1, queue_set_id=0, socket_id=7)
        assert len(nqe.pack()) == NQE_SIZE == 32

    def test_pack_unpack_roundtrip(self):
        nqe = Nqe(NqeOp.SEND, vm_id=3, queue_set_id=2, socket_id=99,
                  op_data=123456789, data_ptr=42, size=8192)
        decoded = Nqe.unpack(nqe.pack())
        assert decoded.op == NqeOp.SEND
        assert decoded.vm_id == 3
        assert decoded.queue_set_id == 2
        assert decoded.socket_id == 99
        assert decoded.op_data == 123456789
        assert decoded.data_ptr == 42
        assert decoded.size == 8192

    def test_negative_op_data_roundtrip(self):
        nqe = Nqe(NqeOp.OP_RESULT, 1, 0, 5, op_data=-111)
        assert Nqe.unpack(nqe.pack()).op_data == -111

    def test_unpack_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Nqe.unpack(b"short")

    def test_vm_tuple(self):
        nqe = Nqe(NqeOp.BIND, vm_id=4, queue_set_id=1, socket_id=10)
        assert nqe.vm_tuple == (4, 1, 10)

    def test_response_preserves_vm_tuple_and_token(self):
        request = Nqe(NqeOp.CONNECT, 2, 1, 33)
        response = request.response(NqeOp.OP_RESULT, op_data=0)
        assert response.vm_tuple == request.vm_tuple
        assert response.token == request.token
        assert response.op == NqeOp.OP_RESULT

    def test_unpack_draws_fresh_token(self):
        """Regression: unpack used to hardcode token=0, which is not a
        reserved value — a decoded element could shadow a live request in
        any correlation map keyed by token.  Decoded elements must draw
        fresh, distinct tokens like any other new NQE."""
        nqe = Nqe(NqeOp.SEND, 1, 0, 5)
        raw = nqe.pack()
        a = Nqe.unpack(raw)
        b = Nqe.unpack(raw)
        assert a.token != 0 and b.token != 0
        assert a.token != b.token
        assert a.token != nqe.token and b.token != nqe.token

    def test_tokens_unique_per_nqe(self):
        tokens = {Nqe(NqeOp.SOCKET, 1, 0, 1).token for _ in range(100)}
        assert len(tokens) == 100

    @given(op=st.sampled_from(list(NqeOp)),
           vm_id=st.integers(0, 255),
           qset=st.integers(0, 255),
           sock=st.integers(-2**31, 2**31 - 1),
           op_data=st.integers(-2**63, 2**63 - 1),
           data_ptr=st.integers(-2**63, 2**63 - 1),
           size=st.integers(-2**31, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, op, vm_id, qset, sock, op_data,
                                data_ptr, size):
        nqe = Nqe(op, vm_id, qset, sock, op_data, data_ptr, size)
        decoded = Nqe.unpack(nqe.pack())
        assert (decoded.op, decoded.vm_id, decoded.queue_set_id,
                decoded.socket_id, decoded.op_data, decoded.data_ptr,
                decoded.size) == (op, vm_id, qset, sock, op_data,
                                  data_ptr, size)


class TestQueueSet:
    def test_four_rings(self):
        qs = QueueSet("vm1", 0)
        assert qs.job is not qs.completion
        assert qs.send is not qs.receive
        assert {len(r) for r in (qs.job, qs.completion, qs.send,
                                 qs.receive)} == {0}
