"""Memory per connection follows bytes in flight, not capacity.

A shared NSM multiplexes many tenants' short connections (§2, Fig. 17),
so a connection must cost what it holds, and nothing once it is closed.
A send buffer that zero-fills its whole capacity (4 MiB by default) at
creation, kept alive after close by the retransmission timers still
queued for it, costs MiBs per closed connection.  A lazily grown slab
and timers that hold their connection weakly bring that to a few KiB.
tracemalloc counts Python allocations, so the figure is deterministic
and machine-independent.
"""

import gc
import tracemalloc
import weakref

from repro.core.host import NetKernelHost
from repro.sim import Simulator

PORT = 7
MSG = b"m" * 64
WARMUP = 8
CONNS = 64
#: The tripwire: one 4 MiB slab per closed connection would be 256x this.
MAX_BYTES_PER_CONN = 16 * 1024


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


def test_closed_connection_costs_at_most_16_kib():
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


def test_stale_rtx_timer_does_not_pin_a_closed_connection():
    sim, engine, run = _world()
    run(WARMUP)
    opened = []
    rtx_timers = []
    socket, call_later = engine.socket, sim.call_later

    def recording_socket():
        conn = socket()
        opened.append(weakref.ref(conn))
        return conn

    def recording_call_later(delay, fn):
        event = call_later(delay, fn)
        if fn.__qualname__.startswith("TcpEngine._arm_rtx."):
            rtx_timers.append(event)
        return event

    engine.socket, sim.call_later = recording_socket, recording_call_later
    run(1)
    gc.collect()
    pending = [event for _, _, event in sim._heap if event in rtx_timers]
    assert pending, "the SYN's retransmission timer is still queued"
    assert len(opened) == 2  # the client's socket and the accepted child
    assert [ref() for ref in opened] == [None, None]
