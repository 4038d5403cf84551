"""Tests for UDP (SOCK_DGRAM) support across the whole system.

Table 1 of the paper redirects datagram sockets alongside stream ones;
these tests cover the stack-level UDP layer and the full NetKernel and
baseline datagram paths.
"""

import pytest

from repro.baseline.host import BaselineHost
from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.errors import (
    AddressInUseError,
    MessageTooLargeError,
    SocketError,
)
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.stack.kernel_stack import KernelStack
from repro.stack.udp import MAX_DATAGRAM
from repro.cpu.core import Core
from repro.units import gbps, usec
from tests.census import assert_census_clean


def make_stacks(sim):
    network = Network(sim, default_rate_bps=gbps(10),
                      default_delay_sec=usec(25))
    a = KernelStack(sim, network, "hostA", [Core(sim)])
    b = KernelStack(sim, network, "hostB", [Core(sim)])
    return network, a, b


class TestUdpLayer:
    def test_datagram_roundtrip(self):
        sim = Simulator()
        _, a, b = make_stacks(sim)
        server = b.udp_socket()
        b.udp_bind(server, 53)
        client = a.udp_socket()
        a.udp_sendto(client, b"query", ("hostB", 53))
        sim.run()
        data, src = b.udp_recvfrom(server, 100)
        assert data == b"query"
        assert src[0] == "hostA"
        # Reply to the source address.
        b.udp_sendto(server, b"answer", src)
        sim.run()
        reply, reply_src = a.udp_recvfrom(client, 100)
        assert reply == b"answer"
        assert reply_src == ("hostB", 53)

    def test_sendto_autobinds_ephemeral_port(self):
        sim = Simulator()
        _, a, b = make_stacks(sim)
        server = b.udp_socket()
        b.udp_bind(server, 53)
        client = a.udp_socket()
        assert client.port is None
        a.udp_sendto(client, b"x", ("hostB", 53))
        assert client.port is not None

    def test_unroutable_datagram_silently_dropped(self):
        sim = Simulator()
        _, a, b = make_stacks(sim)
        client = a.udp_socket()
        a.udp_sendto(client, b"void", ("hostB", 9))
        sim.run()
        assert b.udp.unroutable == 1

    def test_oversized_datagram_rejected(self):
        sim = Simulator()
        _, a, _ = make_stacks(sim)
        client = a.udp_socket()
        with pytest.raises(MessageTooLargeError):
            a.udp_sendto(client, b"x" * (MAX_DATAGRAM + 1), ("hostB", 1))

    def test_port_conflict(self):
        sim = Simulator()
        _, a, _ = make_stacks(sim)
        s1, s2 = a.udp_socket(), a.udp_socket()
        a.udp_bind(s1, 53)
        with pytest.raises(AddressInUseError):
            a.udp_bind(s2, 53)

    def test_full_buffer_drops_not_blocks(self):
        sim = Simulator()
        _, a, b = make_stacks(sim)
        server = b.udp_socket()
        b.udp_bind(server, 53)
        server.rx_capacity = 1000
        client = a.udp_socket()
        for _ in range(5):
            a.udp_sendto(client, b"d" * 400, ("hostB", 53))
        sim.run()
        assert server.datagrams_received == 2
        assert server.datagrams_dropped == 3

    def test_datagram_boundaries_preserved(self):
        sim = Simulator()
        _, a, b = make_stacks(sim)
        server = b.udp_socket()
        b.udp_bind(server, 53)
        client = a.udp_socket()
        for payload in (b"one", b"twotwo", b"three33"):
            a.udp_sendto(client, payload, ("hostB", 53))
        sim.run()
        got = [b.udp_recvfrom(server, 100)[0] for _ in range(3)]
        assert got == [b"one", b"twotwo", b"three33"]

    def test_cpu_cycles_charged(self):
        sim = Simulator()
        _, a, b = make_stacks(sim)
        server = b.udp_socket()
        b.udp_bind(server, 53)
        client = a.udp_socket()
        a.udp_sendto(client, b"x" * 1000, ("hostB", 53))
        sim.run()
        assert a.cores[0].busy_by_component["kernel.udp_tx"] > 0
        assert b.cores[0].busy_by_component["kernel.udp_rx"] > 0


def udp_echo_pair(env):
    """Run a UDP echo server + client; returns the reply seen."""
    sim, server_vm, client_vm, api_s, api_c, server_addr = env
    result = {}

    def server():
        sock = yield from api_s.socket(sock_type="dgram")
        yield from api_s.bind(sock, 5353)
        data, src = yield from api_s.recvfrom(sock, 2048)
        yield from api_s.sendto(sock, b"echo:" + data, src)

    def client():
        yield sim.timeout(0.001)
        sock = yield from api_c.socket(sock_type="dgram")
        yield from api_c.sendto(sock, b"hello-dgram", server_addr)
        reply, src = yield from api_c.recvfrom(sock, 2048)
        result["reply"] = reply
        result["src"] = src
        yield from api_c.close(sock)

    server_vm.spawn(server())
    client_vm.spawn(client())
    sim.run(until=5.0)
    return result


class TestNetKernelUdp:
    @pytest.fixture
    def env(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                          default_delay_sec=usec(25)))
        nsm_s = host.add_nsm("nsmS", vcpus=1, stack="kernel")
        nsm_c = host.add_nsm("nsmC", vcpus=1, stack="kernel")
        server_vm = host.add_vm("srv", vcpus=1, nsm=nsm_s)
        client_vm = host.add_vm("cli", vcpus=1, nsm=nsm_c)
        return (sim, server_vm, client_vm, host.socket_api(server_vm),
                host.socket_api(client_vm), ("nsmS", 5353)), host

    def test_datagram_echo_through_nqe_path(self, env):
        env_tuple, _host = env
        result = udp_echo_pair(env_tuple)
        assert result["reply"] == b"echo:hello-dgram"
        assert result["src"][0] == "nsmS"

    def test_no_hugepage_leaks(self, env):
        env_tuple, host = env
        outstanding_before = NQE_POOL.outstanding
        udp_echo_pair(env_tuple)
        assert_census_clean(host, outstanding_before)

    def test_dgram_socket_on_shm_nsm_rejected(self):
        sim = Simulator()
        host = NetKernelHost(sim, Network(sim))
        nsm = host.add_nsm("shm0", vcpus=1, stack="shm")
        vm = host.add_vm("vm1", vcpus=1, nsm=nsm)
        api = host.socket_api(vm)
        outcome = {}

        def app():
            try:
                yield from api.socket(sock_type="dgram")
            except SocketError as error:
                outcome["errno"] = error.errno_name

        vm.spawn(app())
        sim.run(until=1.0)
        assert outcome["errno"] == "EINVAL"

    def test_large_datagram_stream(self, env):
        """Many datagrams, integrity and boundaries preserved."""
        (sim, server_vm, client_vm, api_s, api_c, addr), _host = env
        received = []

        def server():
            sock = yield from api_s.socket(sock_type="dgram")
            yield from api_s.bind(sock, 5353)
            for _ in range(20):
                data, _src = yield from api_s.recvfrom(sock, 1 << 16)
                received.append(data)

        def client():
            yield sim.timeout(0.001)
            sock = yield from api_c.socket(sock_type="dgram")
            for index in range(20):
                payload = bytes([index]) * (100 + index * 37)
                yield from api_c.sendto(sock, payload, addr)

        server_vm.spawn(server())
        client_vm.spawn(client())
        sim.run(until=5.0)
        assert len(received) == 20
        for index, data in enumerate(received):
            assert data == bytes([index]) * (100 + index * 37)


class TestBaselineUdp:
    def test_datagram_echo(self):
        sim = Simulator()
        host = BaselineHost(sim, Network(sim, default_rate_bps=gbps(10),
                                         default_delay_sec=usec(25)))
        server_vm = host.add_vm("server", vcpus=1)
        client_vm = host.add_vm("client", vcpus=1)
        env = (sim, server_vm, client_vm, host.socket_api(server_vm),
               host.socket_api(client_vm), ("server", 5353))
        result = udp_echo_pair(env)
        assert result["reply"] == b"echo:hello-dgram"
        assert result["src"] == ("server", 5353)
