"""Cross-validation: the functional simulation and the analytic model
must tell the same story.

The analytic model (repro.model) and the packet-level simulation share
the cost model but exercise completely different code; agreeing on
relative results is strong evidence neither is wired wrong.
"""

import gc

import pytest

from repro.apps.epoll_server import EpollServer
from repro.apps.load_gen import LoadGenerator
from repro.core.host import NetKernelHost
from repro.model import throughput as tp
from repro.net.fabric import Network
from repro.sim import Simulator
from repro.units import gbps, usec


def functional_rps(stack: str, requests: int = 600) -> float:
    """Measured requests/second of the functional NetKernel system."""
    # A finished run leaves every connection's 4 MiB send slab behind in
    # reference cycles (~5 GB at 600 requests); collect it now so back-to-
    # back runs do not stack on top of each other until the next full GC.
    gc.collect()
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim, default_rate_bps=gbps(100),
                                      default_delay_sec=usec(25)))
    nsm_server = host.add_nsm("srv-nsm", vcpus=1, stack=stack)
    nsm_client = host.add_nsm("cli-nsm", vcpus=2, stack=stack)
    server_vm = host.add_vm("server", vcpus=1, nsm=nsm_server)
    client_vm = host.add_vm("client", vcpus=2, nsm=nsm_client)
    server = EpollServer(sim, host.socket_api(server_vm), port=80,
                         app_cycles_per_request=2_500.0,
                         cores=server_vm.cores)
    server.start(server_vm)
    load = LoadGenerator(sim, host.socket_api(client_vm), ("srv-nsm", 80),
                         total_requests=requests, concurrency=50)
    sim.run(until=0.002)
    load.start(client_vm)
    sim.run(until=60.0)
    assert load.stats.completed == requests
    return load.stats.rps


class TestFunctionalVsModel:
    def test_mtcp_beats_kernel_in_both_worlds(self):
        """The Table 3 ordering must hold functionally too."""
        functional_kernel = functional_rps("kernel")
        functional_mtcp = functional_rps("mtcp")
        model_kernel = tp.requests_per_second("netkernel", stack="kernel")
        model_mtcp = tp.requests_per_second("netkernel", stack="mtcp")
        assert functional_mtcp > functional_kernel
        assert model_mtcp > model_kernel
        # And the win factors are in the same ballpark (within 2x).
        functional_win = functional_mtcp / functional_kernel
        model_win = model_mtcp / model_kernel
        assert 0.5 <= functional_win / model_win <= 2.0

    def test_functional_kernel_rps_is_same_order_as_model(self):
        """Absolute capacity: functional within ~2x of the calibrated
        70K rps/core (per-segment + per-connection charges approximate
        the end-to-end request cost)."""
        measured = functional_rps("kernel")
        model = tp.requests_per_second("netkernel", stack="kernel")
        assert model / 2.5 <= measured <= model * 2.5

    def test_fig12_functional_equals_model_exactly(self):
        """The hugepage microbench shares constants by construction."""
        from repro.experiments.fig12_memcopy import functional_copy_gbps

        for size in (64, 1024, 8192):
            assert functional_copy_gbps(size, messages=200) == pytest.approx(
                tp.memcopy_throughput_gbps(size), rel=1e-6)

    def test_fig11_functional_equals_model_exactly(self):
        from repro.experiments.fig11_nqe_switching import (
            functional_switch_rate,
        )

        for batch in (1, 8, 64):
            assert functional_switch_rate(batch, 1024) == pytest.approx(
                tp.nqe_switch_rate(batch), rel=0.01)
