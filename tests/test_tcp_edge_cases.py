"""TCP engine edge cases: teardown races, zero-window recovery, port
reuse, stray segments."""

from repro.net.fabric import Network
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.stack.tcp.engine import TcpEngine
from repro.stack.tcp.tcb import Segment, TcpState
from repro.units import gbps, usec


def make_pair(sim, rate=gbps(1), **kwargs):
    network = Network(sim, default_rate_bps=rate, default_delay_sec=usec(50))
    a = TcpEngine(sim, network, "A", **kwargs)
    b = TcpEngine(sim, network, "B", **kwargs)
    return network, a, b


def connect(sim, a, b, port=80, backlog=16):
    listener = b.socket()
    b.bind(listener, port)
    b.listen(listener, backlog)
    children = []
    listener.on_accept_ready = lambda lst: children.append(b.accept(lst))
    conn = a.socket()
    a.connect(conn, ("B", port))
    sim.run(until=0.01)
    assert conn.state == TcpState.ESTABLISHED and children
    return conn, children[0], listener


class TestTeardownRaces:
    def test_simultaneous_close(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        conn, child, _ = connect(sim, a, b)
        a.close(conn)
        b.close(child)
        sim.run(until=2.0)
        assert conn.state == TcpState.CLOSED
        assert child.state == TcpState.CLOSED
        assert a.active_connections == 0
        assert b.active_connections == 0

    def test_close_twice_is_idempotent(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        conn, child, _ = connect(sim, a, b)
        segments_before = a.segments_sent
        a.close(conn)
        a.close(conn)  # second close: no error, no extra FIN
        sim.run(until=2.0)
        # Exactly one FIN left the sender; it now waits for the peer
        # (FIN_WAIT-2 semantics), and closing the peer finishes both.
        assert a.segments_sent == segments_before + 1
        assert conn.state == TcpState.FIN_WAIT
        b.close(child)
        sim.run(until=4.0)
        assert conn.state == TcpState.CLOSED
        assert child.state == TcpState.CLOSED

    def test_listener_close_then_new_listener_same_port(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        listener = b.socket()
        b.bind(listener, 80)
        b.listen(listener)
        b.close(listener)
        listener2 = b.socket()
        b.bind(listener2, 80)  # the port is free again
        b.listen(listener2)
        assert listener2.state == TcpState.LISTEN

    def test_data_after_peer_close_still_acked(self):
        """Half-close: the closed side keeps ACKing inbound data."""
        sim = Simulator()
        _, a, b = make_pair(sim)
        conn, child, _ = connect(sim, a, b)
        a.close(conn)          # A FINs; B in CLOSE_WAIT
        sim.run(until=0.1)
        assert child.state == TcpState.CLOSE_WAIT
        got = []
        conn.on_readable = lambda c: got.append(a.recv(c, 65536))
        b.send(child, b"late data")
        sim.run(until=0.5)
        assert b"".join(got) == b"late data"


class TestZeroWindow:
    def test_persist_probe_reopens_stalled_transfer(self):
        sim = Simulator()
        _, a, b = make_pair(sim, recv_buf_bytes=4096)
        conn, child, _ = connect(sim, a, b)
        # Fill the receiver completely; nobody reads.
        sent = a.send(conn, b"q" * 50_000)
        assert sent == 50_000  # buffered sender-side
        sim.run(until=0.5)
        assert child.recv_buf.window == 0
        stalled_inflight = conn.inflight
        # Now drain the receiver only once; the persist machinery must
        # restart the flow without any sender-side action.
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
        assert len(drained) == 50_000

    def test_receiver_window_never_negative(self):
        sim = Simulator()
        _, a, b = make_pair(sim, recv_buf_bytes=2048)
        conn, child, _ = connect(sim, a, b)
        a.send(conn, b"z" * 20_000)
        for _ in range(50):
            sim.run(until=sim.now + 0.01)
            assert child.recv_buf.window >= 0


class TestStraySegments:
    def test_data_to_closed_port_gets_rst(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        # Hand-craft a data segment to a port with no listener.
        segment = Segment(seq=1000, ack=0, is_ack=True, payload=b"stray")
        network.send(Packet(("A", 1234), ("B", 4321), len(segment.payload),
                            segment=segment))
        sim.run(until=0.1)
        assert b.resets_sent >= 1

    def test_rst_to_closed_port_is_silent(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        rst = Segment(seq=1, rst=True)
        network.send(Packet(("A", 1, ), ("B", 9), 0, segment=rst))
        sim.run(until=0.1)
        assert b.resets_sent == 0  # no RST storm

    def test_duplicate_final_ack_harmless(self):
        sim = Simulator()
        network, a, b = make_pair(sim)
        conn, child, _ = connect(sim, a, b)
        a.send(conn, b"ping")
        sim.run(until=0.1)
        # Replay an old ACK from the client.
        dup = Segment(seq=conn.snd_nxt, ack=child.snd_nxt, is_ack=True,
                      window=65535)
        network.send(Packet(("A", conn.local_port), ("B", 80), 0,
                            segment=dup))
        sim.run(until=0.2)
        assert child.state == TcpState.ESTABLISHED  # nothing broke


class TestPortManagement:
    def test_ephemeral_ports_unique(self):
        sim = Simulator()
        _, a, b = make_pair(sim)
        listener = b.socket()
        b.bind(listener, 80)
        b.listen(listener, 64)
        conns = []
        for _ in range(10):
            conn = a.socket()
            a.connect(conn, ("B", 80))
            conns.append(conn)
        sim.run(until=0.1)
        ports = [c.local_port for c in conns]
        assert len(set(ports)) == 10

    def test_many_sequential_short_connections(self):
        """Port turnover + TIME_WAIT cleanup across many connections."""
        sim = Simulator()
        _, a, b = make_pair(sim)
        listener = b.socket()
        b.bind(listener, 80)
        b.listen(listener, 64)

        def serve(lst):
            while True:
                child = b.accept(lst)
                if child is None:
                    return

                def echo(conn):
                    data = b.recv(conn, 1024)
                    if data:
                        b.send(conn, data)
                        b.close(conn)

                child.on_readable = echo

        listener.on_accept_ready = serve
        completed = []

        def one_round(index):
            conn = a.socket()

            def on_connected(c):
                a.send(c, b"n%d" % index)

            def on_readable(c):
                data = a.recv(c, 1024)
                if data:
                    completed.append(data)
                    a.close(c)

            conn.on_connected = on_connected
            conn.on_readable = on_readable
            a.connect(conn, ("B", 80))

        for index in range(30):
            sim.call_later(index * 0.01, lambda i=index: one_round(i))
        sim.run(until=5.0)
        assert len(completed) == 30
        assert a.active_connections == 0
        assert b.active_connections == 0
