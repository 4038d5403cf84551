"""Tests for the synthetic AG trace generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.ag_trace import (
    AgTrace,
    aggregate,
    generate_ag_trace,
    generate_fleet,
)


class TestAgTrace:
    def test_basic_stats(self):
        trace = AgTrace("t", [10.0, 20.0, 30.0])
        assert trace.peak == 30.0
        assert trace.mean == pytest.approx(20.0)

    def test_negative_values_clamped(self):
        trace = AgTrace("t", [-5.0, 5.0])
        assert trace.values[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AgTrace("t", [])


class TestGenerator:
    def test_deterministic_under_seed(self):
        a = generate_ag_trace(seed=42)
        b = generate_ag_trace(seed=42)
        assert a.values == b.values

    def test_different_seeds_differ(self):
        assert (generate_ag_trace(seed=1).values
                != generate_ag_trace(seed=2).values)

    def test_fleet_profile_has_low_mean_utilization(self):
        fleet = generate_fleet(100, seed=5)
        # Load is relative to a provisioned capacity of 100.
        mean_util = sum(t.mean / 100.0 for t in fleet) / len(fleet)
        assert mean_util < 0.06  # "very low most of the time"

    def test_hot_profile_is_bursty(self):
        traces = [generate_ag_trace(profile="hot", seed=s)
                  for s in range(40)]
        peaky = [t for t in traces if t.peak > 8 * max(t.mean, 0.1)]
        assert len(peaky) > len(traces) // 2

    def test_values_bounded(self):
        for seed in range(20):
            trace = generate_ag_trace(profile="hot", seed=seed)
            assert all(0.0 <= v <= 120.0 for v in trace.values)

    def test_length_matches_minutes(self):
        assert len(generate_ag_trace(minutes=30)) == 30

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_generator_never_produces_invalid_traces(self, seed):
        trace = generate_ag_trace(seed=seed)
        assert len(trace) == 60
        assert all(0.0 <= v <= 120.0 for v in trace.values)
        assert trace.peak >= trace.mean


class TestAggregate:
    def test_sums_per_interval(self):
        a = AgTrace("a", [1.0, 2.0])
        b = AgTrace("b", [10.0, 20.0])
        assert aggregate([a, b]) == [11.0, 22.0]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            aggregate([AgTrace("a", [1.0]), AgTrace("b", [1.0, 2.0])])

    def test_empty(self):
        assert aggregate([]) == []

    def test_aggregate_smoother_than_parts(self):
        """The statistical-multiplexing property: peak-to-mean of the sum
        is below the mean peak-to-mean of the parts."""
        fleet = generate_fleet(50, seed=21)
        agg = aggregate(fleet)
        agg_ratio = max(agg) / (sum(agg) / len(agg))
        part_ratios = [t.peak / max(t.mean, 1e-9) for t in fleet]
        assert agg_ratio < sum(part_ratios) / len(part_ratios)
