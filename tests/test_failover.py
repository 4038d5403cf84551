"""NSM health monitoring, quarantine + connection failover, GuestLib op
deadlines, and bounded CoreEngine delivery backpressure (§8)."""

import pytest

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL, NqeOp
from repro.errors import ConfigurationError, SocketError, TimedOutError
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec
from tests.census import assert_census_clean


def _host(sim, **kwargs):
    return NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)), **kwargs)


class TestHealthMonitor:
    def test_heartbeats_flow_and_healthy_nsm_stays_in_service(self):
        sim = Simulator()
        host = _host(sim)
        host.add_nsm("nsm0", vcpus=1, stack="kernel")
        host.enable_failover(heartbeat_interval=1e-3,
                             detection_timeout=5e-3)
        sim.run(until=0.05)
        ce = host.coreengine
        assert ce.stats()["heartbeats_sent"] > 10
        assert ce.stats()["heartbeat_acks"] > 10
        assert ce.quarantined == {}

    def test_detection_timeout_must_exceed_interval(self):
        sim = Simulator()
        host = _host(sim)
        with pytest.raises(ConfigurationError):
            host.enable_failover(heartbeat_interval=5e-3,
                                 detection_timeout=5e-3)

    def test_stalled_nsm_detected_after_timeout(self):
        sim = Simulator()
        host = _host(sim)
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        host.enable_failover(heartbeat_interval=1e-3,
                             detection_timeout=5e-3)
        sim.call_at(0.02, lambda: nsm.servicelib.stall(0.1))
        sim.run(until=0.05)
        ce = host.coreengine
        assert nsm.nsm_id in ce.quarantined
        assert ce.quarantined[nsm.nsm_id] == "heartbeat-timeout"
        # Quarantine is permanent even though the stall itself ended.
        sim.run(until=0.2)
        assert nsm.nsm_id in ce.quarantined
        assert ce.stats()["nsms_quarantined"] == 1


class TestFailover:
    def test_crash_rebinds_vm_to_standby_and_resets_connections(self):
        sim = Simulator()
        host = _host(sim)
        primary = host.add_nsm("nsm-a", vcpus=1, stack="kernel")
        standby = host.add_nsm("nsm-b", vcpus=1, stack="kernel")
        nsm_srv = host.add_nsm("nsm-srv", vcpus=1, stack="kernel")
        server_vm = host.add_vm("server", vcpus=1, nsm=nsm_srv)
        client_vm = host.add_vm("client", vcpus=1, nsm=primary,
                                op_timeout=10e-3)
        host.enable_failover(heartbeat_interval=1e-3,
                             detection_timeout=5e-3)
        obs = host.enable_observability()
        api_s = host.socket_api(server_vm)
        api_c = host.socket_api(client_vm)
        log = {"resets": 0, "ok_after_crash": 0, "errors": []}

        def server():
            listener = yield from api_s.socket()
            yield from api_s.bind(listener, 80)
            yield from api_s.listen(listener)
            while True:
                conn = yield from api_s.accept(listener)
                server_vm.spawn(echo(conn))

        def echo(conn):
            try:
                while True:
                    data = yield from api_s.recv(conn, 65536)
                    if not data:
                        break
                    yield from api_s.send(conn, data)
            except SocketError:
                pass

        def client():
            sock = None
            while sim.now < 0.18:
                try:
                    if sock is None:
                        sock = yield from api_c.socket()
                        yield from api_c.connect(sock, ("nsm-srv", 80))
                    yield from api_c.send(sock, b"ping")
                    data = yield from api_c.recv(sock, 4096)
                    assert data
                    if sim.now > 0.05:
                        log["ok_after_crash"] += 1
                    yield sim.timeout(1e-3)
                except TimedOutError:
                    sock = None
                    yield sim.timeout(1e-3)
                except SocketError as error:
                    if error.errno_name == "ECONNRESET":
                        log["resets"] += 1
                    else:
                        log["errors"].append(error.errno_name)
                    sock = None
                    yield sim.timeout(1e-3)

        server_vm.spawn(server())
        client_vm.spawn(client())
        sim.call_at(0.05, primary.servicelib.crash)
        sim.run(until=0.2)

        ce = host.coreengine
        assert primary.nsm_id in ce.quarantined
        assert ce.vm_to_nsm[client_vm.vm_id] == standby.nsm_id
        assert log["resets"] >= 1          # in-flight conn failed fast
        assert log["ok_after_crash"] > 5   # traffic resumed on the standby
        assert log["errors"] == []
        assert ce.stats()["conns_reset_on_failover"] >= 1
        assert ce.stats()["vms_failed_over"] == 1
        counters = obs.report()["coreengine"]
        assert counters["nsms_quarantined"] == 1
        assert counters["vms_failed_over"] == 1

    def test_crash_without_standby_fails_ops_fast_not_hung(self):
        sim = Simulator()
        host = _host(sim)
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm, op_timeout=10e-3)
        host.enable_failover(heartbeat_interval=1e-3,
                             detection_timeout=5e-3)
        api = host.socket_api(vm)
        outcome = {}

        def app():
            yield sim.timeout(0.03)  # quarantine has happened by now
            started = sim.now
            try:
                yield from api.socket()
            except SocketError as error:
                outcome["errno"] = error.errno_name
                outcome["latency"] = sim.now - started

        vm.spawn(app())
        sim.call_at(0.005, nsm.servicelib.crash)
        sim.run(until=0.1)
        assert nsm.nsm_id in host.coreengine.quarantined
        assert outcome["errno"] == "ECONNRESET"  # failed fast at the switch
        assert outcome["latency"] < 1e-3         # no deadline wait needed


class TestOpDeadlines:
    def test_non_idempotent_op_times_out_instead_of_hanging(self):
        sim = Simulator()
        host = _host(sim)
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm, op_timeout=5e-3)
        api = host.socket_api(vm)
        outcome = {}

        def app():
            try:
                yield from api.socket()
            except TimedOutError:
                outcome["timed_out_at"] = sim.now

        nsm.servicelib.crash()  # silent from t=0; no health monitor armed
        vm.spawn(app())
        sim.run(until=0.1)
        assert outcome["timed_out_at"] == pytest.approx(5e-3, rel=0.2)
        assert vm.guestlib.op_timeouts == 1
        assert vm.guestlib.op_retries == 0  # SOCKET is not idempotent

    def test_idempotent_op_retries_through_a_stall(self):
        sim = Simulator()
        host = _host(sim)
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm, op_timeout=5e-3,
                         max_op_retries=3)
        obs = host.enable_observability()
        api = host.socket_api(vm)
        outcome = {}

        def app():
            sock = yield from api.socket()
            nsm.servicelib.stall(0.008)  # longer than the first deadline
            yield from api.setsockopt(sock, "nodelay", 1)
            outcome["value"] = yield from api.getsockopt(sock, "nodelay")

        vm.spawn(app())
        sim.run(until=0.1)
        assert outcome["value"] == 1
        assert vm.guestlib.op_retries >= 1
        assert vm.guestlib.op_timeouts >= 1
        # obs reads the same GuestLib counters; nothing was quarantined.
        assert obs.report()["failover"] == {
            "guestlib.op_retries": vm.guestlib.op_retries,
            "guestlib.op_timeouts": vm.guestlib.op_timeouts}


class TestDeliveryBackpressure:
    def test_full_ring_of_dead_consumer_drops_after_budget(self):
        """A crashed-but-undetected NSM stops draining its rings; once
        they fill, _deliver must drop after the stall budget instead of
        wedging the switch, and every dropped element must return to the
        pool."""
        outstanding_before = NQE_POOL.outstanding
        sim = Simulator()
        host = _host(sim)
        host.coreengine.ring_slots = 4
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm, op_timeout=2e-3)
        host.coreengine.deliver_stall_budget = 1e-3
        api = host.socket_api(vm)

        def app():
            for _ in range(12):
                try:
                    yield from api.socket()
                except SocketError:
                    pass

        nsm.servicelib.crash()
        vm.spawn(app())
        sim.run(until=0.1)
        ce = host.coreengine
        assert ce.stats()["nqes_dropped_backpressure"] > 0
        # Reclaim what is still parked in the dead NSM's 4-slot rings,
        # then let the VM poller consume the fail-fast results.
        ce.quarantine_nsm(nsm.nsm_id, reason="test-cleanup")
        sim.run(until=0.11)
        assert len(ce.table) == 0
        assert_census_clean(host, outstanding_before)
        # Every SOCKET failed, so no fd may outlive it.
        assert vm.guestlib.fd_table == {}

    def test_drop_nqe_returns_element_to_pool(self):
        sim = Simulator()
        host = _host(sim)
        ce = host.coreengine.shards[0]
        outstanding_before = NQE_POOL.outstanding
        dropped_before = ce.stats()["nqes_dropped"]
        nqe = NQE_POOL.acquire(NqeOp.DATA_ARRIVED, 1, 0, 1,
                               created_at=sim.now)
        assert NQE_POOL.outstanding == outstanding_before + 1
        ce._drop_nqe(nqe)
        assert NQE_POOL.outstanding == outstanding_before
        assert ce.stats()["nqes_dropped"] == dropped_before + 1
