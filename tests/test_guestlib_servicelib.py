"""Focused tests for GuestLib/ServiceLib mechanics: send-buffer
accounting, receive credit, accepted-socket placement, stale events."""

import pytest

from repro.core.guestlib import DEFAULT_SNDBUF, RECV_CREDIT_QUANTUM
from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.errors import NotConnectedError
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec
from tests.census import assert_census_clean


@pytest.fixture
def env():
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))
    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    return sim, host, nsm


def start_sink_server(sim, host, nsm, port=80, drain=True):
    vm = host.add_vm("sinkvm", vcpus=1, nsm=nsm)
    api = host.socket_api(vm)
    state = {"conns": [], "bytes": 0}

    def server():
        listener = yield from api.socket()
        yield from api.bind(listener, port)
        yield from api.listen(listener, 64)
        while True:
            conn = yield from api.accept(listener)
            state["conns"].append(conn)
            if drain:
                vm.spawn(drainer(conn))

    def drainer(conn):
        while True:
            data = yield from api.recv(conn, 1 << 20)
            if not data:
                break
            state["bytes"] += len(data)

    vm.spawn(server())
    return vm, api, state


class TestSendAccounting:
    def test_tx_inflight_tracks_and_drains(self, env):
        sim, host, nsm = env
        start_sink_server(sim, host, nsm)
        vm = host.add_vm("cli", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        snapshot = {}

        def client():
            yield sim.timeout(0.001)
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm0", 80))
            yield from api.send(sock, b"x" * 10_000)
            snapshot["inflight_after_send"] = sock.tx_inflight
            # Wait for all SEND_RESULT credits.
            while sock.tx_inflight > 0:
                yield sim.timeout(0.001)
            snapshot["drained"] = True
            yield from api.close(sock)

        vm.spawn(client())
        sim.run(until=5.0)
        assert snapshot["inflight_after_send"] > 0  # pipelined
        assert snapshot.get("drained")

    def test_send_blocks_at_buffer_cap_until_credit(self, env):
        sim, host, nsm = env
        start_sink_server(sim, host, nsm)
        vm = host.add_vm("cli", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        done = {}

        def client():
            yield sim.timeout(0.001)
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm0", 80))
            # Far beyond the send-buffer cap: must still complete via
            # SEND_RESULT credit, never exceeding the cap in flight.
            total = DEFAULT_SNDBUF * 4
            yield from api.send(sock, b"y" * total)
            done["sent"] = total
            yield from api.close(sock)

        def watcher():
            sock_max = 0
            while "sent" not in done:
                for sock in vm.guestlib.fd_table.values():
                    sock_max = max(sock_max, sock.tx_inflight)
                yield sim.timeout(0.0005)
            done["max_inflight"] = sock_max

        vm.spawn(client())
        vm.spawn(watcher())
        sim.run(until=20.0)
        assert done["sent"] == DEFAULT_SNDBUF * 4
        assert done["max_inflight"] <= DEFAULT_SNDBUF

    def test_send_on_unconnected_socket_rejected(self, env):
        sim, host, nsm = env
        vm = host.add_vm("cli", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        outcome = {}

        def client():
            sock = yield from api.socket()
            try:
                yield from api.send(sock, b"nope")
            except NotConnectedError:
                outcome["raised"] = True

        vm.spawn(client())
        sim.run(until=1.0)
        assert outcome.get("raised")


class TestReceiveCredit:
    def test_credit_nqes_flow_back(self, env):
        """Consuming >= one quantum triggers RECV_CREDIT toward the NSM."""
        sim, host, nsm = env
        server_vm, server_api, state = start_sink_server(sim, host, nsm)
        vm = host.add_vm("cli", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)

        def client():
            yield sim.timeout(0.001)
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm0", 80))
            yield from api.send(sock, b"z" * (3 * RECV_CREDIT_QUANTUM))
            yield from api.close(sock)

        vm.spawn(client())
        sim.run(until=10.0)
        assert state["bytes"] == 3 * RECV_CREDIT_QUANTUM
        # The server-side VM must have produced credit NQEs.
        served = [c for c in server_vm.guestlib.fd_table.values()]
        assert state["bytes"] >= RECV_CREDIT_QUANTUM

    def test_unread_data_stalls_sender_via_window(self, env):
        """If the app never recv()s, ServiceLib's receive window fills
        and TCP flow control pushes back on the sender."""
        sim, host, nsm = env
        start_sink_server(sim, host, nsm, drain=False)
        vm = host.add_vm("cli", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        progress = {}

        def client():
            yield sim.timeout(0.001)
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm0", 80))
            deadline = sim.now + 2.0
            payload = b"w" * 65536
            progress["sent"] = 0
            while sim.now < deadline and progress["sent"] < 64 * 1024 * 1024:
                # send() eventually blocks for good once every buffer in
                # the chain (GuestLib cap -> stack send buf -> peer stack
                # recv buf -> ServiceLib window) is full.
                yield from api.send(sock, payload)
                progress["sent"] += len(payload)

        vm.spawn(client())
        sim.run(until=3.0)
        # Bounded by NSM recv window + stack buffers + hugepage budget,
        # far below what 2 seconds at 10G could carry (~2.5 GB).
        assert progress["sent"] < 32 * 1024 * 1024


class TestAcceptPlacement:
    def test_accepted_sockets_round_robin_queue_sets(self, env):
        sim, host, nsm = env
        server_vm = host.add_vm("srv", vcpus=2, nsm=nsm)
        api_s = host.socket_api(server_vm)
        accepted = []

        def server():
            listener = yield from api_s.socket()
            yield from api_s.bind(listener, 80)
            yield from api_s.listen(listener, 64)
            for _ in range(4):
                conn = yield from api_s.accept(listener)
                accepted.append(conn)

        server_vm.spawn(server())

        for index in range(4):
            vm = host.add_vm(f"c{index}", vcpus=1, nsm=nsm)
            api = host.socket_api(vm)

            def client(api=api):
                yield sim.timeout(0.001)
                sock = yield from api.socket()
                yield from api.connect(sock, ("nsm0", 80))

            vm.spawn(client())
        sim.run(until=5.0)
        assert len(accepted) == 4
        qsets = {sock.home_qset for sock in accepted}
        assert qsets == {0, 1}  # spread over both vCPU lanes


class TestStaleEvents:
    def test_data_for_closed_socket_freed(self, env):
        """DATA_ARRIVED racing a close must free its hugepage buffer."""
        sim, host, nsm = env
        outstanding_before = NQE_POOL.outstanding
        server_vm, _, state = start_sink_server(sim, host, nsm)
        vm = host.add_vm("cli", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)

        def client():
            yield sim.timeout(0.001)
            sock = yield from api.socket()
            yield from api.connect(sock, ("nsm0", 80))
            yield from api.send(sock, b"k" * 100_000)
            yield from api.close(sock)

        vm.spawn(client())
        sim.run(until=10.0)
        assert_census_clean(host, outstanding_before)
