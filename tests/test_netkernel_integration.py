"""Integration tests: the full NetKernel path.

GuestLib → NQE → CoreEngine → ServiceLib → stack → fabric → back.
"""

import pytest

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.errors import SocketError
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec
from tests.census import assert_census_clean


@pytest.fixture
def env():
    sim = Simulator()
    network = Network(sim, default_rate_bps=gbps(10),
                      default_delay_sec=usec(25))
    host = NetKernelHost(sim, network)
    return sim, network, host


def transfer(sim, host, nsm, payload, server_vcpus=1, client_vcpus=1):
    """Send ``payload`` from one VM to another through ``nsm``."""
    vm_server = host.add_vm(f"vmS{nsm.name}", vcpus=server_vcpus, nsm=nsm)
    vm_client = host.add_vm(f"vmC{nsm.name}", vcpus=client_vcpus, nsm=nsm)
    api_server = host.socket_api(vm_server)
    api_client = host.socket_api(vm_client)
    result = {}

    def server():
        listener = yield from api_server.socket()
        yield from api_server.bind(listener, 80)
        yield from api_server.listen(listener, 64)
        conn = yield from api_server.accept(listener)
        data = bytearray()
        while True:
            chunk = yield from api_server.recv(conn, 65536)
            if not chunk:
                break
            data.extend(chunk)
        result["received"] = bytes(data)
        yield from api_server.close(conn)
        yield from api_server.close(listener)

    def client():
        # Let the server finish socket/bind/listen round trips first.
        yield sim.timeout(0.001)
        sock = yield from api_client.socket()
        yield from api_client.connect(sock, (nsm.name, 80))
        yield from api_client.send(sock, payload)
        yield from api_client.close(sock)

    vm_server.spawn(server())
    vm_client.spawn(client())
    sim.run(until=30.0)
    return result, vm_server, vm_client


class TestDataPath:
    def test_end_to_end_integrity_kernel_nsm(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        payload = bytes(i % 255 for i in range(200_000))
        result, *_ = transfer(sim, host, nsm, payload)
        assert result["received"] == payload

    def test_end_to_end_integrity_mtcp_nsm(self, env):
        sim, _, host = env
        nsm = host.add_nsm("mtcp0", vcpus=1, stack="mtcp")
        payload = bytes((i * 7) % 251 for i in range(100_000))
        result, *_ = transfer(sim, host, nsm, payload)
        assert result["received"] == payload

    def test_end_to_end_integrity_shm_nsm(self, env):
        sim, _, host = env
        nsm = host.add_nsm("shm0", vcpus=1, stack="shm")
        payload = bytes((i * 13) % 249 for i in range(100_000))
        result, *_ = transfer(sim, host, nsm, payload)
        assert result["received"] == payload

    def test_hugepages_fully_released(self, env):
        sim, _, host = env
        outstanding_before = NQE_POOL.outstanding
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        transfer(sim, host, nsm, b"d" * 300_000)
        assert_census_clean(host, outstanding_before)

    def test_connection_table_drains_after_close(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        transfer(sim, host, nsm, b"tiny")
        # Only the listener could remain, but we closed it too.
        assert len(host.coreengine.table) == 0

    def test_multi_queue_set_vm(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=2, stack="kernel")
        payload = bytes(i % 250 for i in range(150_000))
        result, *_ = transfer(sim, host, nsm, payload, server_vcpus=2,
                              client_vcpus=2)
        assert result["received"] == payload


class TestControlPath:
    def test_connect_refused(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        outcome = {}

        def client():
            sock = yield from api.socket()
            try:
                yield from api.connect(sock, ("nsm0", 9999))
            except SocketError as error:
                outcome["errno"] = error.errno_name

        vm.spawn(client())
        sim.run(until=5.0)
        assert outcome["errno"] in ("ECONNREFUSED", "ECONNRESET")

    def test_bind_conflict_reported_through_nqe_path(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        outcome = {}

        def app():
            s1 = yield from api.socket()
            yield from api.bind(s1, 80)
            yield from api.listen(s1)
            s2 = yield from api.socket()
            try:
                yield from api.bind(s2, 80)
            except SocketError as error:
                outcome["errno"] = error.errno_name

        vm.spawn(app())
        sim.run(until=5.0)
        assert outcome["errno"] == "EADDRINUSE"

    def test_two_vms_cannot_bind_same_port_on_shared_nsm(self, env):
        """Port namespace is per-NSM: a consequence of multiplexing."""
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm1 = host.add_vm("vm1", vcpus=1, nsm=nsm)
        vm2 = host.add_vm("vm2", vcpus=1, nsm=nsm)
        outcome = {}

        def binder(api, key, delay):
            yield host.sim.timeout(delay)
            sock = yield from api.socket()
            try:
                yield from api.bind(sock, 80)
                yield from api.listen(sock)
                outcome[key] = "ok"
            except SocketError as error:
                outcome[key] = error.errno_name

        vm1.spawn(binder(host.socket_api(vm1), "vm1", 0.0))
        vm2.spawn(binder(host.socket_api(vm2), "vm2", 0.01))
        sim.run(until=5.0)
        assert outcome["vm1"] == "ok"
        assert outcome["vm2"] == "EADDRINUSE"

    def test_setsockopt_roundtrip(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        done = {}

        def app():
            sock = yield from api.socket()
            yield from api.setsockopt(sock, "SO_REUSEPORT", 1)
            done["ok"] = True

        vm.spawn(app())
        sim.run(until=1.0)
        assert done.get("ok")


class TestMultiplexing:
    def test_one_nsm_serves_two_client_vms(self, env):
        """Use case 1's mechanism: distinct VMs, one network stack."""
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        vm_server = host.add_vm("srv", vcpus=1, nsm=nsm)
        api_server = host.socket_api(vm_server)
        results = {}

        def server():
            listener = yield from api_server.socket()
            yield from api_server.bind(listener, 80)
            yield from api_server.listen(listener, 64)
            for _ in range(2):
                conn = yield from api_server.accept(listener)
                data = yield from api_server.recv(conn, 1024)
                yield from api_server.send(conn, b"ack:" + data)
                yield from api_server.close(conn)

        vm_server.spawn(server())

        def client(vm_name, message):
            vm = host.add_vm(vm_name, vcpus=1, nsm=nsm)
            api = host.socket_api(vm)

            def app():
                sock = yield from api.socket()
                yield from api.connect(sock, ("nsm0", 80))
                yield from api.send(sock, message)
                reply = yield from api.recv(sock, 1024)
                results[vm_name] = reply
                yield from api.close(sock)

            vm.spawn(app())

        client("cli1", b"one")
        client("cli2", b"two")
        sim.run(until=10.0)
        assert results["cli1"] == b"ack:one"
        assert results["cli2"] == b"ack:two"


class TestAccounting:
    def test_cycles_attributed_to_all_roles(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        transfer(sim, host, nsm, b"c" * 100_000)
        cycles = host.cycles_by_role()
        assert cycles["vms"] > 0
        assert cycles["nsms"] > 0
        assert cycles["coreengine"] > 0

    def test_interrupt_driven_polling_counters(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        _, vm_server, vm_client = transfer(sim, host, nsm, b"p" * 50_000)
        device = host.coreengine.vm_device(vm_client.vm_id)
        assert device.wakeups_polled + device.wakeups_interrupt > 0

    def test_ce_switch_counters(self, env):
        sim, _, host = env
        nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
        transfer(sim, host, nsm, b"s" * 10_000)
        stats = host.coreengine.stats()
        assert stats["nqes_switched"] > 10
        assert stats["batches"] > 0
        assert stats["avg_batch"] >= 1.0
