"""Memory per connection follows bytes in flight, not capacity.

A shared NSM multiplexes many tenants' short connections (§2, Fig. 17),
so a connection must cost what it holds, and nothing once it is closed.
A send buffer that zero-fills its whole capacity (4 MiB by default) at
creation, kept alive after close by the retransmission timers still
queued for it, costs MiBs per closed connection.  A lazily grown slab,
one re-armable retransmission timer per connection (not one superseded
timer per ACK left in the heap) and a timer that holds its connection
weakly bring that under 1 KiB.  tracemalloc counts Python allocations,
so the figure is deterministic and machine-independent.
"""

import gc
import tracemalloc
import weakref

from repro.core.host import NetKernelHost
from repro.sim import Simulator
from repro.stack.tcp.engine import RetransmitTimer

PORT = 7
MSG = b"m" * 64
WARMUP = 8
CONNS = 64
#: The tripwire: one 4 MiB slab per closed connection would be 3,277x
#: this, and one superseded timer per ACK about 2x.
MAX_BYTES_PER_CONN = 1280


def _world():
    """An echo server VM and a client VM sharing one NSM (default TCP
    buffers).  Returns the simulator, the NSM's TCP engine and a
    ``cycles(n)`` generator factory: n sequential socket, connect, 64 B
    echo, close cycles."""
    sim = Simulator()
    host = NetKernelHost(sim)
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    server_vm = host.add_vm("srv", vcpus=1, nsm=nsm)
    client_vm = host.add_vm("cli", vcpus=1, nsm=nsm)
    api_s, api_c = host.socket_api(server_vm), host.socket_api(client_vm)

    def server():
        listener = yield from api_s.socket()
        yield from api_s.bind(listener, PORT)
        yield from api_s.listen(listener)
        while True:
            conn = yield from api_s.accept(listener)
            while True:
                data = yield from api_s.recv(conn, 4096)
                if not data:
                    break
                yield from api_s.send(conn, data)
            yield from api_s.close(conn)

    def cycles(n):
        for _ in range(n):
            sock = yield from api_c.socket()
            yield from api_c.connect(sock, ("nsm0", PORT))
            yield from api_c.send(sock, MSG)
            got = b""
            while len(got) < len(MSG):
                got += yield from api_c.recv(sock, 4096)
            assert got == MSG
            yield from api_c.close(sock)

    server_vm.spawn(server())
    engine = nsm.stack.engine

    def run(n):
        sim.run_until_event(client_vm.spawn(cycles(n)), limit=10.0)
        # Past TIME_WAIT, so every connection is destroyed, yet well
        # before the 200 ms SYN retransmission timers come due.
        sim.run(until=sim.now + 2 * engine.time_wait_sec)
        assert engine.active_connections == 0

    return sim, engine, run


def test_closed_connection_costs_at_most_1_25_kib():
    sim, engine, run = _world()
    assert engine.send_buf_bytes == 4 * 1024 * 1024
    run(WARMUP)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(CONNS)
        gc.collect()
        per_conn = (tracemalloc.get_traced_memory()[0] - before) / CONNS
    finally:
        tracemalloc.stop()
    assert per_conn <= MAX_BYTES_PER_CONN, f"{per_conn / 1024:.1f} KiB"


def _record_opened(engine):
    """Weak references to every connection ``engine.socket()`` makes
    from now on."""
    opened = []
    socket = engine.socket

    def recording_socket():
        conn = socket()
        opened.append(weakref.ref(conn))
        return conn

    engine.socket = recording_socket
    return opened


def test_stale_rtx_timer_does_not_pin_a_closed_connection():
    sim, engine, run = _world()
    # An RTO floor well above TIME_WAIT: each connection's timer entry is
    # still queued, live, when the connection is destroyed.
    engine.rto_min = 10 * engine.time_wait_sec
    run(WARMUP)
    opened = _record_opened(engine)
    rtx_entries = []
    call_due = sim.call_due

    def recording_call_due(when, fn):
        entry = call_due(when, fn)
        if isinstance(getattr(fn, "__self__", None), RetransmitTimer):
            rtx_entries.append(entry)
        return entry

    sim.call_due = recording_call_due
    run(1)
    gc.collect()
    pending = [event for _, _, event in sim._heap
               if event in rtx_entries and not event._cancelled]
    assert pending, "a retransmission timer entry is still queued"
    assert len(opened) == 2  # the client's socket and the accepted child
    assert [ref() for ref in opened] == [None, None]


def test_closed_connection_is_freed_without_a_gc_pass():
    """Teardown drops the connection's callbacks, which close over the
    ServiceLib context that holds the connection, so reference counting
    frees it and its buffers at once, not the next cyclic GC pass."""
    _, engine, run = _world()
    run(WARMUP)
    opened = _record_opened(engine)
    gc.collect()
    gc.disable()
    try:
        run(1)
        assert len(opened) == 2
        assert [ref() for ref in opened] == [None, None]
    finally:
        gc.enable()
