"""Tests for the kernel/mTCP stack flavours' cost behaviour."""

import pytest

from repro.cpu.core import Core
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.stack.kernel_stack import KernelStack
from repro.stack.mtcp_stack import MtcpStack
from repro.units import gbps, usec


@pytest.fixture
def sim():
    return Simulator()


def make(sim, cls, name, cores=1, **kwargs):
    network = Network(sim, default_rate_bps=gbps(10),
                      default_delay_sec=usec(25))
    return cls(sim, network, name, [Core(sim) for _ in range(cores)],
               **kwargs)


class TestKernelStack:
    def test_rx_costs_dominate_tx(self, sim):
        stack = make(sim, KernelStack, "k")
        assert (stack._segment_rx_cycles(8192)
                > stack._segment_tx_cycles(8192))

    def test_pure_ack_cheap(self, sim):
        stack = make(sim, KernelStack, "k")
        assert stack._segment_tx_cycles(0) < stack._segment_tx_cycles(64)
        assert stack._segment_rx_cycles(0) < stack._segment_rx_cycles(64)

    def test_connection_costs_nonzero(self, sim):
        stack = make(sim, KernelStack, "k")
        assert stack._conn_setup_cycles() > 0
        assert stack._conn_teardown_cycles() > 0


class TestMtcpStack:
    def test_cheaper_than_kernel_per_request(self, sim):
        kernel = make(sim, KernelStack, "k1")
        mtcp = make(sim, MtcpStack, "m1")
        assert 2 * mtcp._conn_setup_cycles() < kernel._conn_setup_cycles()

    def test_core_count_envelope_enforced(self, sim):
        # §7.4 fn. 4: mTCP is only stable at 1/2/4/8 vCPUs.
        with pytest.raises(ValueError):
            make(sim, MtcpStack, "m2", cores=3)

    def test_supported_counts_ok(self, sim):
        for index, count in enumerate(MtcpStack.SUPPORTED_CORE_COUNTS):
            make(sim, MtcpStack, f"m4-{index}", cores=count)
