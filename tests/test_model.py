"""Tests for the analytic models against the paper's reported numbers.

Tolerances are deliberately loose where the paper's curve has effects the
calibrated model abstracts (documented in EXPERIMENTS.md); tight where
the constants were fitted directly.
"""

import pytest

from repro.model import multiplexing as mx
from repro.model import overhead
from repro.model import throughput as tp
from repro.trace.ag_trace import generate_fleet


class TestStreamThroughput:
    @pytest.mark.parametrize("direction,streams,paper", [
        ("send", 1, 30.9), ("recv", 1, 13.6),
        ("send", 8, 55.2), ("recv", 8, 17.4),
    ])
    def test_baseline_tops_match_figs_13_16(self, direction, streams, paper):
        measured = tp.stream_throughput_gbps("baseline", direction, 16384,
                                             streams=streams)
        assert measured == pytest.approx(paper, rel=0.1)

    @pytest.mark.parametrize("direction,streams", [
        ("send", 1), ("recv", 1), ("send", 8), ("recv", 8),
    ])
    def test_netkernel_on_par_with_baseline(self, direction, streams):
        """The headline parity claim of §7.3."""
        for size in (64, 1024, 8192, 16384):
            baseline = tp.stream_throughput_gbps("baseline", direction,
                                                 size, streams=streams)
            netkernel = tp.stream_throughput_gbps("netkernel", direction,
                                                  size, streams=streams)
            assert netkernel == pytest.approx(baseline, rel=0.25)

    def test_throughput_monotone_in_message_size(self):
        values = [tp.stream_throughput_gbps("netkernel", "send", s,
                                            streams=8)
                  for s in (64, 256, 1024, 4096, 16384)]
        assert values == sorted(values)

    def test_fig18_line_rate_by_4_vcpus(self):
        nk = tp.stream_throughput_gbps("netkernel", "send", 8192, 8,
                                       vm_vcpus=4, nsm_vcpus=4)
        base = tp.stream_throughput_gbps("baseline", "send", 8192, 8,
                                         vm_vcpus=4)
        assert nk == pytest.approx(100.0, rel=0.01)
        assert base == pytest.approx(100.0, rel=0.01)

    def test_fig19_recv_91g_at_8_vcpus(self):
        for arch, kwargs in (("baseline", {"vm_vcpus": 8}),
                             ("netkernel", {"vm_vcpus": 8, "nsm_vcpus": 8})):
            measured = tp.stream_throughput_gbps(arch, "recv", 8192, 8,
                                                 **kwargs)
            assert measured == pytest.approx(91.0, rel=0.05)

    def test_table4_send_saturates_at_vm_ceiling(self):
        values = [tp.stream_throughput_gbps("netkernel", "send", 8192, 8,
                                            vm_vcpus=1, nsm_vcpus=2,
                                            nsm_count=k)
                  for k in (1, 2, 3, 4)]
        assert values[0] == pytest.approx(85.1, rel=0.12)
        assert values[1] == pytest.approx(94.0, rel=0.03)
        assert values[3] == pytest.approx(94.2, rel=0.03)

    def test_table4_recv_scales_to_cap(self):
        values = [tp.stream_throughput_gbps("netkernel", "recv", 8192, 8,
                                            vm_vcpus=1, nsm_vcpus=2,
                                            nsm_count=k)
                  for k in (1, 2, 3, 4)]
        assert values[0] == pytest.approx(33.6, rel=0.1)
        assert values[3] == pytest.approx(91.0, rel=0.05)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            tp.stream_throughput_gbps("baseline", "sideways", 8192)
        with pytest.raises(ValueError):
            tp.stream_throughput_gbps("quantum", "send", 8192)


class TestMicrobenchModels:
    def test_fig11_endpoints(self):
        assert tp.nqe_switch_rate(1) == pytest.approx(8.0e6, rel=0.05)
        assert tp.nqe_switch_rate(256) == pytest.approx(198.5e6, rel=0.05)

    def test_fig12_endpoints(self):
        assert tp.memcopy_throughput_gbps(64) == pytest.approx(4.9, rel=0.1)
        assert tp.memcopy_throughput_gbps(8192) == pytest.approx(144.2,
                                                                 rel=0.05)


class TestRps:
    def test_fig17_parity_at_70k(self):
        baseline = tp.requests_per_second("baseline")
        netkernel = tp.requests_per_second("netkernel")
        assert baseline == pytest.approx(70e3, rel=0.05)
        assert netkernel == pytest.approx(baseline, rel=0.1)

    def test_fig20_kernel_scaling(self):
        one = tp.requests_per_second("netkernel", vcpus=1)
        eight = tp.requests_per_second("netkernel", vcpus=8)
        assert eight / one == pytest.approx(5.7, rel=0.05)
        assert eight == pytest.approx(400e3, rel=0.1)

    def test_fig20_mtcp_values(self):
        for vcpus, paper in tp.PAPER["fig20_mtcp_rps"].items():
            measured = tp.requests_per_second("netkernel", stack="mtcp",
                                              vcpus=vcpus)
            assert measured == pytest.approx(paper, rel=0.1)

    def test_table3_kernel_vs_mtcp_speedup_band(self):
        """mTCP gives 1.4x-1.9x over the kernel NSM (§6.3)."""
        for vcpus in (1, 2, 4):
            kernel = tp.requests_per_second("netkernel", vcpus=vcpus,
                                            app="nginx", reuseport=False)
            mtcp = tp.requests_per_second("netkernel", stack="mtcp",
                                          vcpus=vcpus, app="nginx",
                                          reuseport=False)
            assert 1.25 <= mtcp / kernel <= 2.0

    def test_table3_absolute_values(self):
        for vcpus, paper in tp.PAPER["table3_kernel_rps"].items():
            measured = tp.requests_per_second("netkernel", vcpus=vcpus,
                                              app="nginx", reuseport=False)
            assert measured == pytest.approx(paper, rel=0.12)
        for vcpus, paper in tp.PAPER["table3_mtcp_rps"].items():
            measured = tp.requests_per_second("netkernel", stack="mtcp",
                                              vcpus=vcpus, app="nginx",
                                              reuseport=False)
            assert measured == pytest.approx(paper, rel=0.12)

    def test_table4_rps_scales_with_nsm_count(self):
        values = [tp.requests_per_second("netkernel", vcpus=2, vm_vcpus=1,
                                         nsm_count=k)
                  for k in (1, 2, 3, 4)]
        assert values[1] == pytest.approx(2 * values[0], rel=0.05)
        assert values[3] == pytest.approx(520e3, rel=0.1)

    def test_reuseport_matters_for_kernel_only(self):
        with_rp = tp.requests_per_second("netkernel", vcpus=4)
        without = tp.requests_per_second("netkernel", vcpus=4,
                                         reuseport=False)
        assert with_rp > without
        mtcp_with = tp.requests_per_second("netkernel", stack="mtcp",
                                           vcpus=4)
        mtcp_without = tp.requests_per_second("netkernel", stack="mtcp",
                                              vcpus=4, reuseport=False)
        assert mtcp_with == mtcp_without  # per-core accept queues


class TestShm:
    def test_fig10_netkernel_reaches_100g(self):
        assert tp.shm_throughput_gbps(8192) == pytest.approx(101.0, rel=0.05)

    def test_fig10_speedup_about_2x_at_large_messages(self):
        nk = tp.shm_throughput_gbps(8192)
        baseline = tp.baseline_colocated_gbps(8192)
        assert 1.6 <= nk / baseline <= 2.6

    def test_small_messages_no_big_win(self):
        nk = tp.shm_throughput_gbps(64)
        baseline = tp.baseline_colocated_gbps(64)
        assert nk / baseline < 2.0


class TestOverhead:
    def test_table6_rises_with_throughput(self):
        ratios = [overhead.overhead_ratio_throughput(g)
                  for g in (20, 40, 60, 80, 100)]
        assert all(r > 1.0 for r in ratios)
        assert ratios == sorted(ratios)
        assert ratios[-1] - ratios[0] > 0.2  # a real ramp, not flat

    def test_table7_flat_and_mild(self):
        ratios = [overhead.overhead_ratio_rps(r)
                  for r in (100e3, 300e3, 500e3)]
        assert all(1.0 < r < 1.2 for r in ratios)
        assert max(ratios) - min(ratios) < 0.02

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            overhead.overhead_ratio_rps(0)
        with pytest.raises(ValueError):
            overhead.cycles_per_second_bulk("quantum", 10)


class TestMultiplexing:
    def test_table2_matches_paper(self):
        fleet = generate_fleet(200, seed=7)
        packing = mx.table2_packing(fleet)
        assert packing["baseline_ags"] == 16
        assert packing["netkernel_ags"] >= 25
        assert packing["cores_saved_fraction"] >= 0.35
        assert packing["nsm_mean_utilization"] < 0.6

    def test_fig8_saves_cores(self):
        from repro.experiments.fig07_trace import canonical_ags

        result = mx.fig8_comparison(canonical_ags())
        assert result["baseline_cores"] == 12
        assert result["netkernel_cores"] < result["baseline_cores"]
        assert result["per_core_improvement"] > 1.2

    def test_more_ags_never_fewer_nsm_cores(self):
        fleet = generate_fleet(20, seed=3)
        few = mx.nsm_cores_for(fleet[:5])
        many = mx.nsm_cores_for(fleet)
        assert many >= few
