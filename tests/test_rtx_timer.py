"""One re-armable retransmission timer per connection (RFC 6298 §5).

Every ACK that advances SND.UNA restarts the timer.  It must move one
deadline, not queue a new heap entry and leave the superseded one to
fire as a no-op a full RTO later.  Expiry still backs off and gives up as
before, and after live migration it runs on the engine that owns the
connection.
"""

from collections import Counter

from repro.sim import Simulator
from repro.stack.tcp.engine import RetransmitTimer, TcpEngine
from repro.stack.tcp.tcb import TcpState
from repro.units import gbps, usec
from tests.test_tcp_engine import bulk_send, echo_server, make_pair


def live_rtx_entries(sim) -> Counter:
    """Uncancelled retransmission-timer heap entries, per timer."""
    return Counter(
        event._fn.__self__ for _, _, event in sim._heap
        if not event._cancelled and isinstance(
            getattr(getattr(event, "_fn", None), "__self__", None),
            RetransmitTimer))


def record_retransmits(engine, log):
    """Log (engine host id, sim time, the connection's RTO) for each of
    ``engine``'s retransmissions."""
    retransmit = engine._retransmit_one

    def recording(conn):
        log.append((engine.host_id, engine.sim.now, conn.rto))
        retransmit(conn)

    engine._retransmit_one = recording


def severed_connection(**engine_kwargs):
    """A→B, established, then B stops answering, with 1000 B in flight.
    Returns (sim, network, a, conn, errors)."""
    sim = Simulator()
    network, a, b = make_pair(sim, **engine_kwargs)
    echo_server(b, 80, bytearray())
    conn = a.socket()
    errors = []
    conn.on_error = lambda c, errno: errors.append(errno)
    a.connect(conn, ("B", 80))
    sim.run(until=0.01)
    assert conn.state == TcpState.ESTABLISHED
    del network._endpoints["B"]  # sever: B stops answering
    network.add_endpoint("B", lambda packet: None)
    a.send(conn, b"x" * 1000)
    assert conn.inflight == 1000
    return sim, network, a, conn, errors


def test_heap_holds_one_rtx_entry_per_open_connection():
    sim = Simulator()
    _, a, b = make_pair(sim, rate=gbps(1), delay=usec(50))
    received = bytearray()
    echo_server(b, 80, received)
    conns = []
    for _ in range(8):
        conn = a.socket()
        bulk_send(a, conn, b"b" * (256 * 1024))
        a.connect(conn, ("B", 80))
        conns.append(conn)
    for step in range(1, 21):
        sim.run(until=step * 0.5e-3)
        entries = live_rtx_entries(sim)
        assert max(entries.values(), default=0) <= 1
        assert len(entries) <= a.active_connections + b.active_connections
    assert sum(conn.bytes_acked for conn in conns) > 1024 * 1024
    # Lossless, so a timer ACKs keep pushing back never expires armed.
    sim.run(until=1.0)
    assert len(received) == 8 * 256 * 1024
    assert sum(conn.retransmissions for conn in conns) == 0


def test_migrated_connection_retransmits_only_from_its_target():
    sim, network, a, conn, _ = severed_connection()
    a2 = TcpEngine(sim, network, "A2")
    log = []
    record_retransmits(a, log)
    record_retransmits(a2, log)
    # The first expiry runs on A; the connection then moves to A2.
    first = conn._rtx_timer.deadline
    sim.run(until=first)
    assert [entry[:2] for entry in log] == [("A", first)]
    a.migrate_connection(conn, a2)
    assert conn.engine is a2 and conn.inflight == 1000
    sim.run(until=first + 3.0)
    engines = [engine for engine, _, _ in log[1:]]
    assert len(engines) >= 3 and set(engines) == {"A2"}
    # One retransmission per expiry, each a (doubled) RTO after the last.
    for (_, earlier, rto), (_, later, _) in zip(log, log[1:]):
        assert abs(later - earlier - rto) < 1e-9
    assert conn.retransmissions == len(log)
    live = live_rtx_entries(sim)
    assert list(live.values()) == [1] and conn._rtx_timer in live


def test_rto_backs_off_then_gives_up_with_etimedout():
    sim, _, a, conn, errors = severed_connection(max_retries=4)
    log = []
    record_retransmits(a, log)
    sim.run(until=60.0)
    assert errors == ["ETIMEDOUT"]
    assert conn.state == TcpState.CLOSED
    assert len(log) == a.max_retries == 4
    rtos = [rto for _, _, rto in log]
    assert rtos == [rtos[0] * 2 ** k for k in range(4)]
    for (_, earlier, rto), (_, later, _) in zip(log, log[1:]):
        assert abs(later - earlier - rto) < 1e-9  # waits the doubled RTO
    assert conn._rtx_timer.deadline is None
    assert not live_rtx_entries(sim)
