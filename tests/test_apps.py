"""Tests for the application models: epoll server, load gen, iperf.

Each app runs on both architectures through the same code — the
transparency property NetKernel promises (§4.1).
"""

import pytest

from repro.apps.epoll_server import EpollServer
from repro.apps.iperf import StreamReceiver, StreamSender
from repro.apps.load_gen import LoadGenerator, LoadStats
from repro.baseline.host import BaselineHost
from repro.core.host import NetKernelHost
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec


def netkernel_env(sim, stack="kernel", server_vcpus=1, client_vcpus=2):
    network = Network(sim, default_rate_bps=gbps(10),
                      default_delay_sec=usec(25))
    host = NetKernelHost(sim, network)
    nsm_s = host.add_nsm("nsmS", vcpus=1, stack=stack)
    nsm_c = host.add_nsm("nsmC", vcpus=1, stack=stack)
    server_vm = host.add_vm("server", vcpus=server_vcpus, nsm=nsm_s)
    client_vm = host.add_vm("client", vcpus=client_vcpus, nsm=nsm_c)
    return (host, server_vm, client_vm, host.socket_api(server_vm),
            host.socket_api(client_vm), ("nsmS", 80))


def baseline_env(sim, server_vcpus=1, client_vcpus=2):
    network = Network(sim, default_rate_bps=gbps(10),
                      default_delay_sec=usec(25))
    host = BaselineHost(sim, network)
    server_vm = host.add_vm("server", vcpus=server_vcpus)
    client_vm = host.add_vm("client", vcpus=client_vcpus)
    return (host, server_vm, client_vm, host.socket_api(server_vm),
            host.socket_api(client_vm), ("server", 80))


@pytest.mark.parametrize("env_factory", [netkernel_env, baseline_env],
                         ids=["netkernel", "baseline"])
class TestEpollServerWithLoadGen:
    def test_serves_all_requests(self, env_factory):
        sim = Simulator()
        (_, server_vm, client_vm, api_s, api_c, remote) = env_factory(sim)
        server = EpollServer(sim, api_s, port=80, request_size=64,
                             response_size=64)
        server.start(server_vm)
        load = LoadGenerator(sim, api_c, remote, total_requests=60,
                             concurrency=8)
        sim.run(until=0.005)
        load.start(client_vm)
        sim.run(until=30.0)
        assert load.stats.completed == 60
        assert load.stats.errors == 0
        assert server.stats.requests == 60
        assert load.stats.rps > 0

    def test_latency_summary_fields(self, env_factory):
        sim = Simulator()
        (_, server_vm, client_vm, api_s, api_c, remote) = env_factory(sim)
        server = EpollServer(sim, api_s, port=80)
        server.start(server_vm)
        load = LoadGenerator(sim, api_c, remote, total_requests=20,
                             concurrency=4)
        sim.run(until=0.005)
        load.start(client_vm)
        sim.run(until=30.0)
        summary = load.stats.latency_summary()
        assert summary["min"] <= summary["median"] <= summary["max"]
        assert summary["mean"] > 0
        assert load.stats.percentile(50) <= load.stats.percentile(99)

    def test_keepalive_mode(self, env_factory):
        sim = Simulator()
        (_, server_vm, client_vm, api_s, api_c, remote) = env_factory(sim)
        server = EpollServer(sim, api_s, port=80, keepalive=True)
        server.start(server_vm)
        load = LoadGenerator(sim, api_c, remote, total_requests=40,
                             concurrency=4, keepalive=True)
        sim.run(until=0.005)
        load.start(client_vm)
        sim.run(until=30.0)
        assert load.stats.completed >= 40
        assert server.stats.requests >= 40


@pytest.mark.parametrize("env_factory", [netkernel_env, baseline_env],
                         ids=["netkernel", "baseline"])
class TestIperf:
    def test_stream_goodput_measured(self, env_factory):
        sim = Simulator()
        (_, server_vm, client_vm, api_s, api_c, remote) = env_factory(sim)
        receiver = StreamReceiver(sim, api_s, port=80)
        receiver.start(server_vm)
        sender = StreamSender(sim, api_c, remote, message_size=8192,
                              duration=0.05, streams=2)
        sim.run(until=0.005)
        sender.start(client_vm)
        sim.run(until=5.0)
        assert receiver.stats.bytes > 0
        assert receiver.stats.bytes == sender.stats.bytes


class TestLoadStats:
    def test_empty_summary(self):
        stats = LoadStats()
        summary = stats.latency_summary()
        assert summary == {"min": 0.0, "mean": 0.0, "stddev": 0.0,
                           "median": 0.0, "max": 0.0}
        assert stats.percentile(99) == 0.0
        assert stats.rps == 0.0

    def test_summary_math(self):
        stats = LoadStats()
        for latency in (0.001, 0.002, 0.003):
            stats.record(latency)
        summary = stats.latency_summary()
        assert summary["min"] == pytest.approx(1.0)
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["median"] == pytest.approx(2.0)
        assert summary["max"] == pytest.approx(3.0)
