"""Tests for packets, links and the fabric."""

import pytest

from repro.errors import ConfigurationError
from repro.net.fabric import Network
from repro.net.link import Link
from repro.net.packet import HEADER_BYTES, Packet
from repro.sim import Simulator
from repro.units import gbps, mbps, usec


@pytest.fixture
def sim():
    return Simulator()


def make_packet(payload=1000, src=("a", 1), dst=("b", 2), **kwargs):
    return Packet(src, dst, payload, **kwargs)


class TestPacket:
    def test_wire_size_includes_headers(self):
        packet = make_packet(payload=100)
        assert packet.size == 100 + HEADER_BYTES

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            make_packet(payload=-1)

    def test_unique_ids(self):
        ids = {make_packet().packet_id for _ in range(50)}
        assert len(ids) == 50


class TestLink:
    def test_serialization_plus_propagation_delay(self, sim):
        link = Link(sim, rate_bps=1e6, delay_sec=0.01)
        arrived = []
        packet = make_packet(payload=1250 - HEADER_BYTES)  # 10^4 bits
        link.transmit(packet, lambda p: arrived.append(sim.now))
        sim.run()
        assert arrived[0] == pytest.approx(0.01 + 0.01)

    def test_back_to_back_packets_serialize(self, sim):
        link = Link(sim, rate_bps=1e6, delay_sec=0.0)
        times = []
        for _ in range(2):
            link.transmit(make_packet(payload=1250 - HEADER_BYTES),
                          lambda p: times.append(sim.now))
        sim.run()
        assert times[0] == pytest.approx(0.01)
        assert times[1] == pytest.approx(0.02)

    def test_droptail_queue_overflow(self, sim):
        link = Link(sim, rate_bps=1e3, queue_bytes=2000)
        accepted = sum(
            1 for _ in range(5)
            if link.transmit(make_packet(payload=900), lambda p: None))
        assert accepted == 2
        assert link.dropped_packets == 3

    def test_ecn_marking_above_threshold(self, sim):
        link = Link(sim, rate_bps=1e3, queue_bytes=100_000,
                    ecn_threshold_bytes=1000)
        marked = []
        for _ in range(5):
            packet = make_packet(payload=900, ecn_capable=True)
            link.transmit(packet, lambda p: marked.append(p.ecn_marked))
        sim.run()
        assert marked[0] is False       # queue was empty
        assert any(marked[1:])          # backlog exceeded threshold
        assert link.marked_packets >= 1

    def test_non_ecn_packets_never_marked(self, sim):
        link = Link(sim, rate_bps=1e3, queue_bytes=100_000,
                    ecn_threshold_bytes=0)
        got = []
        link.transmit(make_packet(payload=100, ecn_capable=False),
                      lambda p: got.append(p.ecn_marked))
        sim.run()
        assert got == [False]

    def test_loss_injection_deterministic_under_seed(self, sim):
        link_a = Link(sim, rate_bps=1e9, loss_rate=0.5, seed=3)
        link_b = Link(sim, rate_bps=1e9, loss_rate=0.5, seed=3)
        results_a = [link_a.transmit(make_packet(), lambda p: None)
                     for _ in range(20)]
        results_b = [link_b.transmit(make_packet(), lambda p: None)
                     for _ in range(20)]
        assert results_a == results_b
        assert any(not ok for ok in results_a)

    def test_invalid_params(self, sim):
        with pytest.raises(ConfigurationError):
            Link(sim, rate_bps=0)
        with pytest.raises(ConfigurationError):
            Link(sim, rate_bps=1e9, delay_sec=-1)
        with pytest.raises(ConfigurationError):
            Link(sim, rate_bps=1e9, loss_rate=1.5)


class TestNetwork:
    def test_endpoint_to_endpoint_delivery(self, sim):
        network = Network(sim, default_rate_bps=gbps(1),
                          default_delay_sec=usec(10))
        got = []
        network.add_endpoint("a", lambda p: None)
        network.add_endpoint("b", got.append)
        network.send(make_packet(src=("a", 1), dst=("b", 2)))
        sim.run()
        assert len(got) == 1

    def test_unknown_destination_raises(self, sim):
        network = Network(sim)
        network.add_endpoint("a", lambda p: None)
        with pytest.raises(ConfigurationError):
            network.send(make_packet(src=("a", 1), dst=("zz", 2)))

    def test_duplicate_endpoint_rejected(self, sim):
        network = Network(sim)
        network.add_endpoint("a", lambda p: None)
        with pytest.raises(ConfigurationError):
            network.add_endpoint("a", lambda p: None)

    def test_bottleneck_in_path(self, sim):
        network = Network(sim, default_rate_bps=gbps(10),
                          default_delay_sec=0.0)
        bottleneck = Link(sim, rate_bps=mbps(1), delay_sec=0.0,
                          name="shared")
        network.set_bottleneck(bottleneck)
        arrivals = []
        network.add_endpoint("a", lambda p: None)
        network.add_endpoint("b", lambda p: arrivals.append(sim.now))
        network.send(make_packet(payload=1250 - HEADER_BYTES,
                                 src=("a", 1), dst=("b", 2)))
        sim.run()
        # 10^4 bits over 1 Mbps dominates the 10G access links.
        assert arrivals[0] == pytest.approx(0.01, rel=0.01)
        assert bottleneck.delivered_packets == 1
