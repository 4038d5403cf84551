"""Unit tests for the shared-memory stack (use case 4)."""

import pytest

from repro.cpu.core import Core
from repro.errors import (
    ConnectionRefusedError_,
    InvalidSocketStateError,
    NotConnectedError,
)
from repro.sim import Simulator
from repro.stack.shared_memory_stack import SharedMemoryStack


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def stack(sim):
    return SharedMemoryStack(sim, [Core(sim)], host_id="shm")


def connect_pair(sim, stack, port=9):
    listener = stack.socket()
    stack.bind(listener, port)
    stack.listen(listener, 8)
    client = stack.socket()
    stack.connect(client, ("shm", port))
    sim.run()
    server = stack.accept(listener)
    return client, server


class TestLifecycle:
    def test_connect_accept(self, sim, stack):
        client, server = connect_pair(sim, stack)
        assert client.state == server.state == "connected"
        assert client.peer is server

    def test_connect_without_listener_refused(self, sim, stack):
        sock = stack.socket()
        with pytest.raises(ConnectionRefusedError_):
            stack.connect(sock, ("shm", 404))

    def test_backlog_limit(self, sim, stack):
        listener = stack.socket()
        stack.bind(listener, 9)
        stack.listen(listener, 1)
        stack.connect(stack.socket(), ("shm", 9))
        with pytest.raises(ConnectionRefusedError_):
            stack.connect(stack.socket(), ("shm", 9))

    def test_double_bind_rejected(self, sim, stack):
        a = stack.socket()
        stack.bind(a, 9)
        stack.listen(a)
        b = stack.socket()
        with pytest.raises(InvalidSocketStateError):
            stack.bind(b, 9)

    def test_send_unconnected_rejected(self, sim, stack):
        with pytest.raises(NotConnectedError):
            stack.send(stack.socket(), b"x")


class TestDataPath:
    def test_bytes_flow_with_integrity(self, sim, stack):
        client, server = connect_pair(sim, stack)
        payload = bytes(range(256)) * 10
        assert stack.send(client, payload) == len(payload)
        sim.run()
        assert stack.recv(server, 1 << 20) == payload

    def test_memory_bandwidth_pacing(self, sim, stack):
        """Copies serialize on the DRAM engine at mem_bw_cap_bps."""
        client, server = connect_pair(sim, stack)
        size = 1_000_000
        stack.send(client, b"z" * size)
        start = sim.now
        got = {}

        def on_readable(chan):
            got.setdefault("at", sim.now)

        server.on_readable = on_readable
        sim.run()
        elapsed = got["at"] - start
        expected = size * 8 / stack.cost.mem_bw_cap_bps
        assert elapsed == pytest.approx(expected, rel=0.2)

    def test_backpressure_when_peer_buffer_full(self, sim, stack):
        client, server = connect_pair(sim, stack)
        server.recv_capacity = 1000
        first = stack.send(client, b"a" * 1500)
        assert first == 1000
        sim.run()
        assert stack.send(client, b"b") == 0  # peer full, nothing read
        stack.recv(server, 500)
        assert stack.send(client, b"b" * 500) == 500

    def test_cpu_cycles_charged(self, sim, stack):
        client, server = connect_pair(sim, stack)
        stack.send(client, b"q" * 10_000)
        sim.run()
        assert stack.cores[0].busy_by_component["shm.copy"] > 0

    def test_eof_after_close_and_drain(self, sim, stack):
        client, server = connect_pair(sim, stack)
        stack.send(client, b"last words")
        stack.close(client)
        sim.run()
        assert stack.recv(server, 100) == b"last words"
        assert server.eof

    def test_close_never_overtakes_data(self, sim, stack):
        """The FIN-after-data ordering fixed during development."""
        client, server = connect_pair(sim, stack)
        stack.send(client, b"x" * 500_000)  # long copy in the pipeline
        stack.close(client)                 # immediately
        events = []
        server.on_readable = lambda c: events.append(
            (sim.now, c.readable_bytes, c.peer_closed))
        sim.run()
        # At the first moment peer_closed was visible, data had arrived.
        closed_events = [e for e in events if e[2]]
        assert closed_events
        data_before_close = any(e[1] > 0 for e in events if not e[2]) or \
            closed_events[0][1] > 0
        assert data_before_close
