"""Tests for the congestion-control algorithms."""

import pytest

from repro.stack.cc.base import CongestionControl, INITIAL_WINDOW_MSS
from repro.stack.cc.cubic import CubicCC
from repro.stack.cc.dctcp import DctcpCC
from repro.stack.cc.vmcc import VmCC, VmSharedWindow

MSS = 1448


class TestBase:
    def test_initial_window(self):
        cc = CongestionControl(MSS)
        assert cc.cwnd == INITIAL_WINDOW_MSS * MSS

    def test_window_floor_is_one_mss(self):
        cc = CongestionControl(MSS)
        cc.cwnd = 10.0
        assert cc.window_bytes == MSS

    def test_invalid_mss(self):
        with pytest.raises(ValueError):
            CongestionControl(0)


class TestCubic:
    def test_slow_start_grows(self):
        cc = CubicCC(MSS, clock=lambda: 0.0)
        start = cc.cwnd
        cc.on_ack(MSS)
        assert cc.cwnd > start

    def test_cubic_growth_after_loss(self):
        clock = {"t": 0.0}
        cc = CubicCC(MSS, clock=lambda: clock["t"])
        cc.cwnd = 100 * MSS
        cc.ssthresh = 50 * MSS
        cc.on_fast_retransmit()
        w_after_loss = cc.cwnd
        # Advance time; window should grow back toward w_max.
        for step in range(50):
            clock["t"] += 0.01
            cc.on_ack(MSS)
        assert cc.cwnd > w_after_loss

    def test_timeout_collapses(self):
        cc = CubicCC(MSS, clock=lambda: 1.0)
        cc.cwnd = 80 * MSS
        cc.on_timeout()
        assert cc.cwnd == MSS

    def test_beta_decrease(self):
        cc = CubicCC(MSS, clock=lambda: 0.0)
        cc.cwnd = 100 * MSS
        cc.ssthresh = 1.0  # not slow start
        cc.on_fast_retransmit()
        assert cc.cwnd == pytest.approx(70 * MSS, rel=0.01)


class TestDctcp:
    def test_no_marks_behaves_like_reno_growth(self):
        cc = DctcpCC(MSS)
        cc.ssthresh = cc.cwnd
        start = cc.cwnd
        cc.on_ack(int(start), ecn_echo=False)
        assert cc.cwnd > start

    def test_alpha_rises_with_marks(self):
        cc = DctcpCC(MSS)
        cc.ssthresh = cc.cwnd  # congestion avoidance
        for _ in range(40):
            cc.on_ack(int(cc.cwnd), ecn_echo=True)
        assert cc.alpha > 0.3

    def test_full_marking_raises_alpha_after_a_window(self):
        cc = DctcpCC(MSS)
        cc.ssthresh = cc.cwnd
        before_alpha = cc.alpha
        # Two windows' worth of fully marked ACKs guarantees at least one
        # once-per-window alpha update despite window growth in between.
        cc.on_ack(int(cc.cwnd), ecn_echo=True)
        cc.on_ack(int(cc.cwnd), ecn_echo=True)
        assert cc.alpha > before_alpha

    def test_mark_in_slow_start_exits_slow_start(self):
        cc = DctcpCC(MSS)
        assert cc.in_slow_start
        cc.on_ack(MSS, ecn_echo=True)
        assert not cc.in_slow_start

    def test_unmarked_traffic_keeps_alpha_decaying(self):
        cc = DctcpCC(MSS)
        cc.ssthresh = cc.cwnd
        cc.alpha = 0.5
        for _ in range(30):
            cc.on_ack(int(cc.cwnd), ecn_echo=False)
        assert cc.alpha < 0.5


class TestVmCC:
    def test_flows_share_one_window(self):
        shared = VmSharedWindow(MSS)
        flows = [VmCC(MSS, shared=shared) for _ in range(4)]
        per_flow = flows[0].window_bytes
        assert per_flow == pytest.approx(shared.cwnd / 4, abs=MSS)

    def test_more_flows_means_smaller_slice(self):
        shared = VmSharedWindow(MSS)
        VmCC(MSS, shared=shared)
        one_flow = shared.per_flow_window()
        VmCC(MSS, shared=shared)
        assert shared.per_flow_window() == pytest.approx(one_flow / 2)

    def test_any_flow_ack_advances_shared_window(self):
        shared = VmSharedWindow(MSS)
        f1 = VmCC(MSS, shared=shared)
        f2 = VmCC(MSS, shared=shared)
        start = shared.cwnd
        f1.on_ack(MSS)
        f2.on_ack(MSS)
        assert shared.cwnd == pytest.approx(start + 2 * MSS)

    def test_any_flow_loss_cuts_shared_window(self):
        shared = VmSharedWindow(MSS)
        f1 = VmCC(MSS, shared=shared)
        VmCC(MSS, shared=shared)
        shared.cwnd = 100 * MSS
        shared.ssthresh = 50 * MSS
        f1.on_fast_retransmit()
        assert shared.cwnd == pytest.approx(50 * MSS)

    def test_close_unregisters_flow(self):
        shared = VmSharedWindow(MSS)
        f1 = VmCC(MSS, shared=shared)
        VmCC(MSS, shared=shared)
        assert shared.active_flows == 2
        f1.on_connection_close()
        assert shared.active_flows == 1

    def test_total_window_independent_of_flow_count(self):
        # The defining VMCC property: N flows never get more than the
        # one shared window in aggregate.
        shared = VmSharedWindow(MSS)
        flows = [VmCC(MSS, shared=shared) for _ in range(8)]
        total = sum(f.window_bytes for f in flows)
        assert total <= shared.cwnd + 8 * MSS  # floor slack only

    def test_requires_shared_window(self):
        with pytest.raises(ValueError):
            VmCC(MSS, shared=None)

    def test_mss_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VmCC(1200, shared=VmSharedWindow(MSS))
