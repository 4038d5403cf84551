"""Placement & migration-state bugfix batch (PR 6 satellites).

1. ``assign_vm_auto`` must never pick a quarantined or deregistered NSM:
   a just-quarantined NSM has zero connection-table entries and would
   otherwise always look least-loaded.
2. A recycled NSM numeric id must not inherit its dead predecessor's
   health verdict (stale ``_last_ack`` → insta-quarantine; stale
   ``quarantined`` entry → misreported as dead and reaped).
3. Migration forwarding chains stay one hop: an A→B→A round trip leaves
   B forwarding to A and nothing else — in particular no self-forward on
   A shadowing its own live state — and every forward reclaims when its
   connection or listener dies (migrate/close soak ends with zero
   entries engine-wide).
"""

import pytest

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.errors import ConfigurationError
from repro.net.fabric import Network
from repro.scenario import forward_counts
from repro.sim import Simulator
from tests.census import assert_census_clean

PORT = 7300


def _host_with_two_nsms():
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim))
    nsm_a = host.add_nsm("nsm-a", vcpus=1, stack="kernel")
    nsm_b = host.add_nsm("nsm-b", vcpus=1, stack="kernel")
    return sim, host, nsm_a, nsm_b


class TestAutoAssignSkipsQuarantined:
    def test_quarantined_nsm_is_never_a_candidate(self):
        """nsm-a has the lower id and zero table entries, so a candidate
        list that ignored ``active`` would always pick it."""
        sim, host, nsm_a, nsm_b = _host_with_two_nsms()
        engine = host.coreengine
        engine.quarantine_nsm(nsm_a.nsm_id, reason="test")
        vm = host.add_vm("vm")  # nsm=None -> assign_vm_auto
        assert engine.vm_to_nsm[vm.vm_id] == nsm_b.nsm_id

        vm2 = host.add_vm("vm2", nsm=nsm_b)
        assert engine.assign_vm_auto(vm2.vm_id) == nsm_b.nsm_id

    def test_explicit_assign_to_quarantined_nsm_rejected(self):
        """A quarantined NSM takes no new VMs, and the VM keeps its
        in-service assignment."""
        sim, host, nsm_a, nsm_b = _host_with_two_nsms()
        engine = host.coreengine
        vm = host.add_vm("vm", nsm=nsm_a)
        engine.quarantine_nsm(nsm_b.nsm_id, reason="test")
        with pytest.raises(ConfigurationError):
            engine.assign_vm(vm.vm_id, nsm_b.nsm_id)
        assert engine.vm_to_nsm[vm.vm_id] == nsm_a.nsm_id

    def test_no_active_nsm_raises_instead_of_assigning_a_corpse(self):
        sim, host, nsm_a, nsm_b = _host_with_two_nsms()
        engine = host.coreengine
        vm = host.add_vm("vm", nsm=nsm_a)
        engine.quarantine_nsm(nsm_a.nsm_id, reason="test")
        engine.quarantine_nsm(nsm_b.nsm_id, reason="test")
        with pytest.raises(ConfigurationError):
            engine.assign_vm_auto(vm.vm_id)

    def test_deregistered_nsm_is_never_a_candidate(self):
        sim, host, nsm_a, nsm_b = _host_with_two_nsms()
        engine = host.coreengine
        host.remove_nsm(nsm_a)
        vm = host.add_vm("vm")
        assert engine.vm_to_nsm[vm.vm_id] == nsm_b.nsm_id


class TestRecycledNsmId:
    def test_fresh_nsm_does_not_inherit_dead_predecessors_verdict(self):
        """Quarantine nsm-a via the health monitor, then force its
        numeric id to be re-issued.  The fresh NSM must not be born
        quarantined, and a stale last-ack timestamp must not let the
        monitor insta-quarantine it."""
        sim, host, nsm_a, nsm_b = _host_with_two_nsms()
        host.add_vm("vm", nsm=nsm_a)
        host.enable_failover(heartbeat_interval=1e-3,
                             detection_timeout=5e-3)
        engine = host.coreengine
        sim.call_at(2e-3, nsm_a.servicelib.crash)
        sim.run(until=0.02)
        dead_id = nsm_a.nsm_id
        assert dead_id in engine.quarantined

        # Simulate an id allocator that recycles the dead id, with the
        # predecessor's ack timestamp still on the books.
        engine._last_ack[dead_id] = 0.0
        engine._ids = iter([dead_id])
        fresh = host.add_nsm("fresh", vcpus=1, stack="kernel")
        assert fresh.nsm_id == dead_id

        assert dead_id not in engine.quarantined
        # Ride several detection windows: the fresh NSM answers its own
        # heartbeats and must stay in service.
        sim.run(until=sim.now + 0.02)
        assert dead_id not in engine.quarantined
        reg = engine._nsms.get(dead_id)
        assert reg is not None and reg.active
        assert engine._last_ack[dead_id] > 0.0


class _EchoFixture:
    """Polling echo server on nsm-a plus a client homed on its own NSM,
    with a stop flag so the listener is closed deterministically."""

    def __init__(self):
        self.sim, self.host, self.nsm_a, self.nsm_b = _host_with_two_nsms()
        self.nsm_client = self.host.add_nsm("nsm-client", vcpus=1,
                                            stack="kernel")
        self.server_vm = self.host.add_vm("server", nsm=self.nsm_a)
        self.client_vm = self.host.add_vm("client", nsm=self.nsm_client)
        self.server_api = self.host.socket_api(self.server_vm)
        self.client_api = self.host.socket_api(self.client_vm)
        self.stop = {"flag": False}
        self.stats = {"echoed": 0, "listener_closed": 0}
        self.server_vm.spawn(self._server())

    def _server(self):
        api, sim = self.server_api, self.sim
        lsock = yield from api.socket()
        yield from api.bind(lsock, PORT)
        yield from api.listen(lsock, backlog=32)
        while not self.stop["flag"]:
            conn = api.accept_nonblocking(lsock)
            if conn is None:
                yield sim.timeout(1e-4)
                continue
            sim.process(self._echo(conn))
        yield from api.close(lsock)
        self.stats["listener_closed"] += 1

    def _echo(self, conn):
        api = self.server_api
        while True:
            data = yield from api.recv(conn, 4096)
            if not data:
                yield from api.close(conn)
                return
            yield from api.send(conn, data)
            self.stats["echoed"] += 1

    def engines(self):
        return (self.nsm_a.stack.engine, self.nsm_b.stack.engine,
                self.nsm_client.stack.engine)


class TestForwardChainCollapse:
    def test_a_b_a_round_trip_stays_one_hop(self):
        pool_before = NQE_POOL.outstanding
        fx = _EchoFixture()
        sim, host = fx.sim, fx.host
        done = {}

        def client():
            api = fx.client_api
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm-a", PORT))
            yield from api.send(sock, b"hop0")
            done["hop0"] = yield from api.recv(sock, 64)
            yield sim.timeout(20e-3)  # ride through A->B
            yield from api.send(sock, b"hop1")
            done["hop1"] = yield from api.recv(sock, 64)
            yield sim.timeout(20e-3)  # ride through B->A
            yield from api.send(sock, b"hop2")
            done["hop2"] = yield from api.recv(sock, 64)
            yield from api.close(sock)

        fx.client_vm.spawn(client())
        sim.call_at(10e-3, lambda: sim.process(
            host.migrate_vm(fx.server_vm, fx.nsm_b)))
        sim.call_at(30e-3, lambda: sim.process(
            host.migrate_vm(fx.server_vm, fx.nsm_a)))
        # Pause after both moves, before shutdown: the forwards are live.
        sim.run(until=0.05)
        engine_a, engine_b, _ = fx.engines()
        # Collapsed chain: B (the intermediate hop) forwards the
        # listener port straight to A; A — the current owner — holds no
        # entry at all, in particular no self-forward shadowing its own
        # live listener.
        assert engine_b._port_forwards[PORT] is engine_a
        assert PORT not in engine_a._port_forwards
        assert PORT in engine_a._listeners
        assert engine_a._listeners[PORT]._port_forwarders == [engine_b]
        # No dangling entries anywhere, even with the forwards live.
        _, dangling = forward_counts(host)
        assert dangling == 0

        sim.call_at(60e-3, lambda: fx.stop.update(flag=True))
        sim.run(until=0.1)
        assert done == {"hop0": b"hop0", "hop1": b"hop1", "hop2": b"hop2"}
        assert fx.stats["listener_closed"] == 1
        # Closing the listener reclaimed B's port forward; the conn's
        # forwards died with its close.
        assert_census_clean(host, pool_before, clean_shutdown=True)

    def test_migrate_close_soak_reclaims_every_forward(self):
        """Short-lived connections against a server that keeps bouncing
        A->B->A->B: every conn close must reclaim its forwards on every
        engine that ever hosted it, so the run ends at zero entries."""
        fx = _EchoFixture()
        sim, host = fx.sim, fx.host
        counters = {"rtts": 0, "errors": 0}

        def client_loop():
            api = fx.client_api
            while not fx.stop["flag"]:
                try:
                    sock = yield from api.socket()
                    yield from api.connect(sock, ("nsm-a", PORT))
                    yield from api.send(sock, b"ping")
                    yield from api.recv(sock, 64)
                    yield from api.close(sock)
                    counters["rtts"] += 1
                except Exception:
                    counters["errors"] += 1
                yield sim.timeout(1.5e-3)

        def bouncer():
            targets = [fx.nsm_b, fx.nsm_a, fx.nsm_b]
            for target in targets:
                yield sim.timeout(12e-3)
                yield from host.migrate_vm(fx.server_vm, target)

        pool_before = NQE_POOL.outstanding
        fx.client_vm.spawn(client_loop())
        sim.process(bouncer())
        sim.call_at(60e-3, lambda: fx.stop.update(flag=True))
        sim.run(until=0.12)

        assert counters["rtts"] >= 10
        assert counters["errors"] == 0
        assert fx.stats["listener_closed"] == 1
        assert_census_clean(host, pool_before, clean_shutdown=True)
        assert len(host.coreengine.table) == 0
