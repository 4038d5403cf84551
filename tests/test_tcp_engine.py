"""End-to-end tests for the functional TCP engine."""

import pytest

from repro.errors import (
    AddressInUseError,
    InvalidSocketStateError,
    NotConnectedError,
)
from repro.net.fabric import Network
from repro.net.link import Link
from repro.sim import Simulator
from repro.stack.tcp.engine import TcpEngine
from repro.stack.tcp.tcb import TcpState
from repro.units import gbps, mbps, usec


def make_pair(sim, rate=gbps(1), delay=usec(50), loss=0.0, **kwargs):
    network = Network(sim, default_rate_bps=rate, default_delay_sec=delay)
    if loss:
        network.set_bottleneck(Link(sim, rate, delay_sec=delay,
                                    loss_rate=loss, seed=11))
    a = TcpEngine(sim, network, "A", **kwargs)
    b = TcpEngine(sim, network, "B", **kwargs)
    return network, a, b


def echo_server(engine, port, received, close_after_eof=True):
    """Install a drain-everything server; bytes land in ``received``."""
    listener = engine.socket()
    engine.bind(listener, port)
    engine.listen(listener, backlog=64)

    def on_accept(lst):
        while True:
            child = engine.accept(lst)
            if child is None:
                return

            def on_readable(conn):
                while True:
                    data = engine.recv(conn, 1 << 20)
                    if not data:
                        break
                    received.extend(data)
                if conn.eof and close_after_eof:
                    engine.close(conn)

            child.on_readable = on_readable

    listener.on_accept_ready = on_accept
    return listener


def bulk_send(engine, conn, payload):
    """Send ``payload`` entirely, then close (callback-driven)."""
    progress = {"sent": 0}

    def push(c):
        while progress["sent"] < len(payload):
            took = engine.send(c, payload[progress["sent"]:
                                          progress["sent"] + 65536])
            if took == 0:
                return
            progress["sent"] += took
        engine.close(c)

    conn.on_connected = push
    conn.on_writable = push
    return progress


class TestHandshake:
    def test_three_way_handshake(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        echo_server(b, 80, bytearray())
        conn = a.socket()
        connected = []
        conn.on_connected = lambda c: connected.append(sim.now)
        a.connect(conn, ("B", 80))
        sim.run(until=1.0)
        assert connected and conn.state == TcpState.ESTABLISHED
        # One round trip: 2 x (serialization + 2 hops of 50us).
        assert connected[0] < 0.001

    def test_connect_refused_when_no_listener(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        conn = a.socket()
        errors = []
        conn.on_error = lambda c, errno: errors.append(errno)
        a.connect(conn, ("B", 81))
        sim.run(until=1.0)
        assert errors == ["ECONNREFUSED"]
        assert conn.state == TcpState.CLOSED

    def test_backlog_overflow_drops_syn(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        listener = b.socket()
        b.bind(listener, 80)
        b.listen(listener, backlog=2)
        # Nobody accepts: the third SYN must be dropped (and retried).
        conns = [a.socket() for _ in range(3)]
        for conn in conns:
            a.connect(conn, ("B", 80))
        sim.run(until=0.1)
        assert len(listener.accept_queue) == 2
        established = sum(1 for c in conns if c.state == TcpState.ESTABLISHED)
        assert established == 2
        # The refused client eventually retries via RTO.
        assert conns[2].state == TcpState.SYN_SENT

    def test_bind_conflicts(self):
        sim = Simulator()
        _, a, _ = make_pair(sim)
        l1 = a.socket()
        a.bind(l1, 80)
        a.listen(l1)
        l2 = a.socket()
        with pytest.raises(AddressInUseError):
            a.bind(l2, 80)

    def test_listen_without_bind_rejected(self):
        sim = Simulator()
        _, a, _ = make_pair(sim)
        sock = a.socket()
        with pytest.raises(InvalidSocketStateError):
            a.listen(sock)

    def test_send_before_connect_rejected(self):
        sim = Simulator()
        _, a, _ = make_pair(sim)
        sock = a.socket()
        with pytest.raises(NotConnectedError):
            a.send(sock, b"x")


class TestDataTransfer:
    def test_bulk_transfer_integrity(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        received = bytearray()
        echo_server(b, 80, received)
        payload = bytes(i % 251 for i in range(300_000))
        conn = a.socket()
        bulk_send(a, conn, payload)
        a.connect(conn, ("B", 80))
        sim.run(until=5.0)
        assert bytes(received) == payload
        assert conn.state == TcpState.CLOSED
        assert a.active_connections == 0

    def test_mss_segmentation(self):
        sim = Simulator()
        _, a, b = make_pair(sim, mss=1000)
        received = bytearray()
        echo_server(b, 80, received)
        conn = a.socket()
        bulk_send(a, conn, b"z" * 5000)
        a.connect(conn, ("B", 80))
        sim.run(until=1.0)
        assert len(received) == 5000

    def test_bidirectional_transfer(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        listener = b.socket()
        b.bind(listener, 80)
        b.listen(listener)
        got_at_b = bytearray()
        got_at_a = bytearray()

        def on_accept(lst):
            child = b.accept(lst)

            def reader(conn):
                while True:
                    data = b.recv(conn, 65536)
                    if not data:
                        break
                    got_at_b.extend(data)
                    b.send(conn, data.upper())

            child.on_readable = reader

        listener.on_accept_ready = on_accept
        conn = a.socket()

        def client_read(c):
            while True:
                data = a.recv(c, 65536)
                if not data:
                    break
                got_at_a.extend(data)

        conn.on_readable = client_read
        conn.on_connected = lambda c: a.send(c, b"hello tcp")
        a.connect(conn, ("B", 80))
        sim.run(until=1.0)
        assert bytes(got_at_b) == b"hello tcp"
        assert bytes(got_at_a) == b"HELLO TCP"

    def test_flow_control_zero_window(self):
        sim = Simulator()
        _, a, b = make_pair(sim, recv_buf_bytes=8192)
        listener = b.socket()
        b.bind(listener, 80)
        b.listen(listener)
        children = []
        listener.on_accept_ready = lambda lst: children.append(b.accept(lst))
        conn = a.socket()
        bulk_send(a, conn, b"q" * 100_000)
        a.connect(conn, ("B", 80))
        sim.run(until=0.3)
        # Receiver never reads: sender must stall at the 8KB window.
        assert children
        child = children[0]
        assert child.recv_buf.window == 0
        assert conn.inflight <= 8192 + a.mss
        # Now drain; transfer must resume and complete.
        drained = bytearray()

        def on_readable(c):
            while True:
                data = b.recv(c, 1 << 20)
                if not data:
                    break
                drained.extend(data)

        child.on_readable = on_readable
        on_readable(child)
        sim.run(until=10.0)
        assert len(drained) == 100_000

    def test_rtt_estimation(self):
        sim = Simulator()
        _, a, b = make_pair(sim, delay=usec(500))
        received = bytearray()
        echo_server(b, 80, received)
        conn = a.socket()
        bulk_send(a, conn, b"m" * 50_000)
        a.connect(conn, ("B", 80))
        sim.run(until=1.0)
        assert conn.srtt is not None
        # RTT >= 2 propagation delays (plus serialization).
        assert conn.srtt >= 2 * 500e-6


class TestLossRecovery:
    def test_transfer_survives_random_loss(self):
        sim = Simulator()
        _, a, b = make_pair(sim, rate=mbps(50), loss=0.02)
        received = bytearray()
        echo_server(b, 80, received)
        payload = bytes(i % 256 for i in range(120_000))
        conn = a.socket()
        bulk_send(a, conn, payload)
        a.connect(conn, ("B", 80))
        sim.run(until=30.0)
        assert bytes(received) == payload
        assert conn.retransmissions > 0

    def test_fast_retransmit_on_dupacks(self):
        sim = Simulator()
        network, a, b = make_pair(sim, rate=mbps(100))
        received = bytearray()
        echo_server(b, 80, received)
        payload = b"f" * 200_000
        conn = a.socket()
        bulk_send(a, conn, payload)
        a.connect(conn, ("B", 80))
        # Drop exactly one data packet mid-flight by monkeypatching once.
        original_send = network.send
        state = {"dropped": False}

        def lossy_send(packet):
            segment = packet.segment
            if (not state["dropped"] and segment.payload
                    and segment.seq > 50_000):
                state["dropped"] = True
                return False
            return original_send(packet)

        a.network = type("N", (), {"send": staticmethod(lossy_send),
                                   "add_endpoint": network.add_endpoint})()
        sim.run(until=10.0)
        assert bytes(received) == payload
        assert state["dropped"]
        assert conn.retransmissions >= 1

    def test_rto_gives_up_eventually(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        received = bytearray()
        echo_server(b, 80, received)
        conn = a.socket()
        errors = []
        conn.on_error = lambda c, errno: errors.append(errno)
        conn.on_connected = lambda c: a.send(c, b"x" * 1000)
        a.connect(conn, ("B", 80))
        sim.run(until=0.05)
        assert conn.state == TcpState.ESTABLISHED
        # Sever the path entirely.
        del network._endpoints["B"]
        network.add_endpoint("B", lambda p: None)
        a.send(conn, b"more data")
        sim.run(until=600.0)
        assert errors == ["ETIMEDOUT"]
        assert conn.state == TcpState.CLOSED


class TestTeardown:
    def test_graceful_close_both_sides(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        received = bytearray()
        echo_server(b, 80, received)
        conn = a.socket()
        bulk_send(a, conn, b"bye" * 100)
        a.connect(conn, ("B", 80))
        sim.run(until=5.0)
        assert a.active_connections == 0
        assert b.active_connections == 0

    def test_abort_sends_rst(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        received = bytearray()
        echo_server(b, 80, received, close_after_eof=False)
        conn = a.socket()
        errors = []

        def on_accept_watch(lst):
            child = b.accept(lst)
            if child is not None:
                child.on_error = lambda c, errno: errors.append(errno)

        conn.on_connected = lambda c: a.abort(c)
        # Rewire accept to capture the child's error.
        listener = b._listeners[80]
        listener.on_accept_ready = on_accept_watch
        a.connect(conn, ("B", 80))
        sim.run(until=1.0)
        assert conn.state == TcpState.CLOSED
        assert errors == ["ECONNRESET"]

    def test_eof_visible_to_receiver(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        listener = b.socket()
        b.bind(listener, 80)
        b.listen(listener)
        eof_seen = []
        children = []

        def on_accept(lst):
            child = b.accept(lst)
            children.append(child)

            def on_readable(conn):
                data = b.recv(conn, 65536)
                if not data and conn.eof:
                    eof_seen.append(True)

            child.on_readable = on_readable

        listener.on_accept_ready = on_accept
        conn = a.socket()
        conn.on_connected = lambda c: a.close(c)
        a.connect(conn, ("B", 80))
        sim.run(until=1.0)
        assert eof_seen

    def test_close_flushes_pending_data_before_fin(self):
        sim = Simulator()
        _, a, b = make_pair(sim, rate=mbps(10))
        received = bytearray()
        echo_server(b, 80, received)
        conn = a.socket()

        def send_and_close(c):
            a.send(c, b"p" * 50_000)
            a.close(c)  # immediately; data must still arrive

        conn.on_connected = send_and_close
        a.connect(conn, ("B", 80))
        sim.run(until=5.0)
        assert len(received) == 50_000


class TestEcn:
    def test_dctcp_receives_ecn_echo(self):
        from repro.stack.cc.dctcp import DctcpCC

        sim = Simulator()
        network = Network(sim, default_rate_bps=mbps(50),
                          default_delay_sec=usec(50))
        network.set_bottleneck(Link(sim, mbps(20), delay_sec=usec(50),
                                    queue_bytes=64 * 1024,
                                    ecn_threshold_bytes=8 * 1024))
        a = TcpEngine(sim, network, "A", cc_factory=lambda m: DctcpCC(m))
        b = TcpEngine(sim, network, "B", cc_factory=lambda m: DctcpCC(m))
        received = bytearray()
        echo_server(b, 80, received)
        conn = a.socket()
        bulk_send(a, conn, b"e" * 400_000)
        a.connect(conn, ("B", 80))
        sim.run(until=5.0)
        assert len(received) == 400_000
        assert conn.cc.alpha > 0.0  # marks were echoed and integrated
        assert network.bottleneck.marked_packets > 0
