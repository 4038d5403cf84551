"""Tests for cores and the cost model."""

import pytest

from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.errors import ResourceError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def _finish(sim, core, cycles):
    """Run a process that yields ``core.execute(cycles)`` until it has
    resumed."""
    def wait():
        yield core.execute(cycles)

    sim.run_until_event(sim.process(wait()))


class TestCore:
    def test_execute_takes_cycles_over_hz_seconds(self, sim):
        core = Core(sim, hz=1e9)
        _finish(sim, core, 5e8)
        assert sim.now == pytest.approx(0.5)

    def test_work_serializes_fifo(self, sim):
        core = Core(sim, hz=1e9)
        core.execute(1e9)
        _finish(sim, core, 1e9)
        assert sim.now == pytest.approx(2.0)

    def test_busy_ledger_by_component(self, sim):
        core = Core(sim, hz=1e9)
        core.charge(100, "a")
        core.charge(50, "a")
        core.charge(25, "b")
        assert core.busy_by_component["a"] == 150
        assert core.busy_by_component["b"] == 25
        assert core.busy_cycles == 175

    def test_negative_work_rejected(self, sim):
        core = Core(sim)
        with pytest.raises(ResourceError):
            core.execute(-1)
        with pytest.raises(ResourceError):
            core.charge(-1)

    def test_idle_gap_not_counted_busy(self, sim):
        core = Core(sim, hz=1e9)
        _finish(sim, core, 1e8)
        sim.timeout(1.0)
        sim.run()
        _finish(sim, core, 1e8)
        # Work resumes at now, not at the old completion time.
        assert sim.now == pytest.approx(1.2)


class TestCostModel:
    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.ce_switch_fixed = 1.0

    def test_fig11_unbatched_calibration(self):
        # 2.3 GHz / ~287 cycles ~= 8.0M NQEs/s (the paper's number).
        rate = DEFAULT_COST_MODEL.ce_nqe_rate(batch=1)
        assert rate == pytest.approx(8.0e6, rel=0.05)

    def test_fig11_saturation(self):
        rate = DEFAULT_COST_MODEL.ce_nqe_rate(batch=256)
        assert rate == pytest.approx(198.5e6, rel=0.05)

    def test_batching_is_monotone(self):
        rates = [DEFAULT_COST_MODEL.ce_nqe_rate(b)
                 for b in (1, 2, 4, 8, 16, 32, 64, 128, 256)]
        assert rates == sorted(rates)

    def test_fig12_copy_calibration(self):
        model = DEFAULT_COST_MODEL
        # 64B messages ~4.9 Gbps; 8KB ~144 Gbps on one core.
        rate64 = model.core_hz / model.hugepage_copy_cycles(64) * 64 * 8
        rate8k = model.core_hz / model.hugepage_copy_cycles(8192) * 8192 * 8
        assert rate64 == pytest.approx(4.9e9, rel=0.1)
        assert rate8k == pytest.approx(144.2e9, rel=0.1)

    def test_amdahl_speedup_bounds(self):
        assert CostModel.amdahl_speedup(1, 0.5) == 1.0
        assert CostModel.amdahl_speedup(8, 0.0) == 8.0
        assert CostModel.amdahl_speedup(8, 0.1) < 8.0

    def test_amdahl_invalid_cores(self):
        with pytest.raises(ValueError):
            CostModel.amdahl_speedup(0, 0.1)

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_COST_MODEL.ce_batch_cycles(0)

    def test_membw_contention_grows_with_load(self):
        model = DEFAULT_COST_MODEL
        low = model.nsm_copy_cycles(8192, aggregate_gbps=10)
        high = model.nsm_copy_cycles(8192, aggregate_gbps=100)
        assert high > low

