"""Deregistering a VM or an NSM with NQEs still in flight (§4.4, §8).

The reclaim path must leave no leaked hugepage buffers, no pooled NQEs
outstanding, and no stale ConnectionTable entries — and the switch must
keep serving everyone else."""

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.errors import SocketError, TimedOutError
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec
from repro.scenario import census
from tests.census import assert_census_clean


def _host(sim):
    return NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))


class TestVmDeregisterInflight:
    def test_vm_teardown_mid_stream_reconciles_resources(self):
        outstanding_before = NQE_POOL.outstanding
        sim = Simulator()
        host = _host(sim)
        nsm_c = host.add_nsm("nsmC", vcpus=1, stack="kernel")
        nsm_s = host.add_nsm("nsmS", vcpus=1, stack="kernel")
        server_vm = host.add_vm("srv", vcpus=1, nsm=nsm_s)
        client_vm = host.add_vm("cli", vcpus=1, nsm=nsm_c,
                                op_timeout=5e-3)
        api_s = host.socket_api(server_vm)
        api_c = host.socket_api(client_vm)
        stop = {"flag": False}
        state = {"sent": 0}

        def server():
            listener = yield from api_s.socket()
            yield from api_s.bind(listener, 80)
            yield from api_s.listen(listener)
            conn = yield from api_s.accept(listener)
            try:
                while True:
                    data = yield from api_s.recv(conn, 65536)
                    if not data:
                        break
            except SocketError:
                pass

        def client():
            try:
                sock = yield from api_c.socket()
                yield from api_c.connect(sock, ("nsmS", 80))
                while not stop["flag"]:
                    yield from api_c.send(sock, b"x" * 8192)
                    state["sent"] += 8192
            except (SocketError, TimedOutError):
                pass

        server_vm.spawn(server())
        client_vm.spawn(client())
        # Stall the serving NSM so NQEs pile up in its rings, stop the
        # client issuing new ops, then tear the VM down mid-flight.
        sim.call_at(0.018, lambda: nsm_c.servicelib.stall(6e-3))

        def stop_client():
            stop["flag"] = True

        sim.call_at(0.019, stop_client)
        dropped_before = {}

        def teardown():
            dropped_before["nqes"] = host.coreengine.nqes_dropped
            host.remove_vm(client_vm)

        sim.call_at(0.021, teardown)
        sim.run(until=0.2)

        ce = host.coreengine
        assert state["sent"] > 0
        # In-flight NQEs existed at teardown and were reclaimed, not lost.
        assert ce.nqes_dropped > dropped_before["nqes"]
        # No stale ConnectionTable entries for the vanished VM.
        assert ce.table.entries_for_vm(client_vm.vm_id) == []
        assert "cli" not in host.vms
        # Every payload buffer came back to the departed client's region
        # and every pooled NQE element was released.  The connection
        # balance is not asserted: remove_vm never tells the NSM, so the
        # departed client's context stays open on nsmC.
        found = census(host, outstanding_before)
        assert found.hugepages == []
        assert found.pool_delta == 0

    def test_switch_keeps_serving_other_vms_after_teardown(self):
        sim = Simulator()
        host = _host(sim)
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        doomed = host.add_vm("doomed", vcpus=1, nsm=nsm, op_timeout=5e-3)
        survivor = host.add_vm("survivor", vcpus=1, nsm=nsm)
        api_d = host.socket_api(doomed)
        api_v = host.socket_api(survivor)
        state = {"after": 0}

        def doomed_app():
            try:
                sock = yield from api_d.socket()
                yield from api_d.bind(sock, 81)
                yield from api_d.listen(sock)
            except (SocketError, TimedOutError):
                pass

        def survivor_app():
            listener = yield from api_v.socket()
            yield from api_v.bind(listener, 80)
            yield from api_v.listen(listener)
            while True:
                yield sim.timeout(5e-3)
                sock = yield from api_v.socket()
                yield from api_v.close(sock)
                if sim.now > 0.02:
                    state["after"] += 1

        doomed.spawn(doomed_app())
        survivor.spawn(survivor_app())
        sim.call_at(0.02, lambda: host.remove_vm(doomed))
        sim.run(until=0.1)
        assert state["after"] > 5  # the switch outlived the teardown


class TestCloseRacesConnect:
    def test_close_during_handshake_releases_parked_connect(self):
        # A CLOSE that reaches ServiceLib while the TCP handshake is in
        # flight must resolve the parked CONNECT request NQE (the stack
        # never fires connect callbacks for a closed socket).
        outstanding_before = NQE_POOL.outstanding
        sim = Simulator()
        host = _host(sim)
        nsm_c = host.add_nsm("nsmC", vcpus=1, stack="kernel")
        nsm_s = host.add_nsm("nsmS", vcpus=1, stack="kernel")
        server_vm = host.add_vm("srv", vcpus=1, nsm=nsm_s)
        client_vm = host.add_vm("cli", vcpus=1, nsm=nsm_c,
                                op_timeout=5e-3)
        api_s = host.socket_api(server_vm)
        api_c = host.socket_api(client_vm)
        state = {}
        result = {}

        def server():
            listener = yield from api_s.socket()
            yield from api_s.bind(listener, 80)
            yield from api_s.listen(listener)
            yield from api_s.accept(listener)

        def connector():
            sock = yield from api_c.socket()
            state["sock"] = sock
            try:
                yield from api_c.connect(sock, ("nsmS", 80))
                result["connect"] = "ok"
            except (SocketError, TimedOutError) as error:
                result["connect"] = getattr(error, "errno_name", "timeout")

        def closer():
            while "sock" not in state:
                yield sim.timeout(1e-6)
            # One hop of the 25us-per-way handshake is now in flight.
            yield sim.timeout(2e-5)
            yield from api_c.close(state["sock"])

        server_vm.spawn(server())
        client_vm.spawn(connector())
        client_vm.spawn(closer())
        sim.run(until=0.05)

        assert result["connect"] == "ECONNRESET"
        assert_census_clean(host, outstanding_before)


class TestNsmDeregisterInflight:
    def test_nsm_teardown_resets_connections_and_reconciles(self):
        outstanding_before = NQE_POOL.outstanding
        sim = Simulator()
        host = _host(sim)
        nsm_c = host.add_nsm("nsmC", vcpus=1, stack="kernel")
        nsm_s = host.add_nsm("nsmS", vcpus=1, stack="kernel")
        server_vm = host.add_vm("srv", vcpus=1, nsm=nsm_s)
        client_vm = host.add_vm("cli", vcpus=1, nsm=nsm_c,
                                op_timeout=5e-3)
        api_s = host.socket_api(server_vm)
        api_c = host.socket_api(client_vm)
        state = {}

        def server():
            listener = yield from api_s.socket()
            yield from api_s.bind(listener, 80)
            yield from api_s.listen(listener)
            conn = yield from api_s.accept(listener)
            try:
                while True:
                    data = yield from api_s.recv(conn, 65536)
                    if not data:
                        break
            except SocketError:
                pass

        def client():
            sock = yield from api_c.socket()
            state["sock"] = sock
            yield from api_c.connect(sock, ("nsmS", 80))
            try:
                while True:
                    yield from api_c.send(sock, b"y" * 8192)
            except TimedOutError:
                state["outcome"] = "timeout"
            except SocketError as error:
                state["outcome"] = error.errno_name

        def late_op():
            # Issued just after the stall begins: this SETSOCKOPT is
            # provably sitting in the dead NSM's job ring at teardown,
            # so the reclaim path must fail it fast.
            yield sim.timeout(0.019)
            try:
                yield from api_c.setsockopt(state["sock"], "nodelay", 1)
                state["late_op"] = "ok"
            except (SocketError, TimedOutError) as error:
                state["late_op"] = error.errno_name

        server_vm.spawn(server())
        client_vm.spawn(client())
        client_vm.spawn(late_op())
        # Stall ServiceLib first so the teardown provably happens with
        # NQEs still sitting in the NSM's rings.
        sim.call_at(0.018, lambda: nsm_c.servicelib.stall(0.01))

        def teardown():
            # Orderly NSM shutdown: stop ServiceLib, then unplug the
            # device — with the client's stream still in flight.
            nsm_c.servicelib.crash()
            host.coreengine.deregister(nsm_c.nsm_id)

        sim.call_at(0.02, teardown)
        sim.run(until=0.2)

        ce = host.coreengine
        # The client learned its connection died (fail-fast result or
        # reset event), rather than hanging forever.
        assert state["outcome"] in ("ECONNRESET", "timeout")
        assert state["late_op"] == "ECONNRESET"  # failed fast, not hung
        assert ce.nqes_failed_fast > 0
        # No stale table entries point at the departed NSM.
        assert ce.table.entries_for_nsm(nsm_c.nsm_id) == []
        assert client_vm.vm_id not in ce.vm_to_nsm
        # Resources reconcile once the dust settles.
        assert_census_clean(host, outstanding_before)
