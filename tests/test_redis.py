"""Tests for the redis-like application over every architecture/stack —
the §6.3 claim: protocol-speaking apps run unmodified on any NSM."""

from repro.apps.redis import RedisClient, RedisServer, _FrameParser, \
    encode_command
from repro.baseline.host import BaselineHost
from repro.core.host import NetKernelHost
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec


class TestFraming:
    def test_roundtrip(self):
        parser = _FrameParser()
        parser.feed(encode_command(b"SET", b"k", b"v" * 100))
        assert parser.next_frame() == [b"SET", b"k", b"v" * 100]
        assert parser.next_frame() is None

    def test_partial_then_complete(self):
        frame = encode_command(b"GET", b"key")
        parser = _FrameParser()
        parser.feed(frame[:5])
        assert parser.next_frame() is None
        parser.feed(frame[5:])
        assert parser.next_frame() == [b"GET", b"key"]

    def test_pipelined_frames(self):
        parser = _FrameParser()
        parser.feed(encode_command(b"PING") + encode_command(b"GET", b"x"))
        assert parser.next_frame() == [b"PING"]
        assert parser.next_frame() == [b"GET", b"x"]

    def test_binary_safe_values(self):
        payload = bytes(range(256))
        parser = _FrameParser()
        parser.feed(encode_command(b"SET", b"bin", payload))
        assert parser.next_frame() == [b"SET", b"bin", payload]


def run_session(env_builder, stack="kernel"):
    sim = Simulator()
    server_vm, client_vm, api_s, api_c, addr = env_builder(sim, stack)
    server = RedisServer(sim, api_s, port=6379, cores=server_vm.cores)
    server.start(server_vm)
    transcript = {}

    def session():
        yield sim.timeout(0.002)
        client = RedisClient(sim, api_c, addr)
        yield from client.connect()
        transcript["ping"] = yield from client.ping()
        transcript["set"] = yield from client.set(b"answer", b"42")
        transcript["get"] = yield from client.get(b"answer")
        transcript["missing"] = yield from client.get(b"nope")
        transcript["del"] = yield from client.command(b"DEL", b"answer")
        transcript["get2"] = yield from client.get(b"answer")
        yield from client.close()

    client_vm.spawn(session())
    sim.run(until=10.0)
    return transcript, server


def netkernel_env(sim, stack):
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(10),
                                      default_delay_sec=usec(25)))
    nsm_s = host.add_nsm("nsmS", vcpus=1, stack=stack)
    nsm_c = host.add_nsm("nsmC", vcpus=1, stack=stack)
    server_vm = host.add_vm("srv", vcpus=1, nsm=nsm_s)
    client_vm = host.add_vm("cli", vcpus=1, nsm=nsm_c)
    return (server_vm, client_vm, host.socket_api(server_vm),
            host.socket_api(client_vm), ("nsmS", 6379))


def baseline_env(sim, stack):
    host = BaselineHost(sim, Network(sim, default_rate_bps=gbps(10),
                                     default_delay_sec=usec(25)))
    server_vm = host.add_vm("srv", vcpus=1, stack=stack)
    client_vm = host.add_vm("cli", vcpus=1, stack=stack)
    return (server_vm, client_vm, host.socket_api(server_vm),
            host.socket_api(client_vm), ("srv", 6379))


EXPECTED = {
    "ping": b"+PONG",
    "set": b"+OK",
    "get": b"42",
    "missing": b"$-1",
    "del": b":1",
    "get2": b"$-1",
}


class TestRedisEverywhere:
    def test_netkernel_kernel_nsm(self):
        transcript, server = run_session(netkernel_env, "kernel")
        assert transcript == EXPECTED
        assert server.commands == 6

    def test_netkernel_mtcp_nsm(self):
        """§6.3: the same unmodified redis runs over mTCP."""
        transcript, _ = run_session(netkernel_env, "mtcp")
        assert transcript == EXPECTED

    def test_baseline(self):
        transcript, _ = run_session(baseline_env, "kernel")
        assert transcript == EXPECTED

    def test_large_values_survive_segmentation(self):
        sim = Simulator()
        (server_vm, client_vm, api_s, api_c,
         addr) = netkernel_env(sim, "kernel")
        server = RedisServer(sim, api_s, cores=server_vm.cores)
        server.start(server_vm)
        result = {}
        big = bytes(i % 251 for i in range(200_000))

        def session():
            yield sim.timeout(0.002)
            client = RedisClient(sim, api_c, addr)
            yield from client.connect()
            yield from client.set(b"blob", big)
            result["blob"] = yield from client.get(b"blob")
            yield from client.close()

        client_vm.spawn(session())
        sim.run(until=20.0)
        assert result["blob"] == big
