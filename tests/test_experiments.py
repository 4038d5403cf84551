"""Tests for the experiment runners and the report machinery.

Fast (analytic) experiments run at full fidelity; the DES-backed ones run
scaled-down here and at full scale in the benchmark harness.
"""

import pytest

from repro.experiments import REGISTRY, run_experiment
from repro.experiments.report import ExperimentResult, qualitative

ANALYTIC_EXPERIMENTS = [
    "fig7", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "table2", "table3",
    "table4", "table6", "table7",
]


class TestReport:
    def test_table_str_contains_everything(self):
        result = ExperimentResult("figX", "demo", ["a", "b"],
                                  [[1, 2.5], [3, 40000.0]], notes="hello")
        text = result.table_str()
        assert "figX" in text and "demo" in text
        assert "hello" in text
        assert "40,000" in text

    def test_row_dicts_and_column(self):
        result = ExperimentResult("figX", "demo", ["a", "b"], [[1, 2]])
        assert result.row_dicts() == [{"a": 1, "b": 2}]
        assert result.column("b") == [2]

    def test_qualitative(self):
        assert qualitative(110, 100) == "+10%"
        assert qualitative(90, 100) == "-10%"
        assert qualitative(5, 0) == "n/a"


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {f"fig{i}" for i in range(7, 22)} | {
            f"table{i}" for i in range(2, 8)}
        assert expected <= set(REGISTRY)
        extras = set(REGISTRY) - expected
        # Beyond the paper's own figures/tables we register ablations,
        # the §8 robustness experiments (NSM failover, live migration),
        # and the §7 operational follow-ons (NSM autoscaling, the
        # NDR/PDR capacity envelope).
        assert all(x.startswith("ablation-")
                   or x in ("fig-failover", "fig-migration",
                            "fig-autoscale", "fig-capacity")
                   for x in extras)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    @pytest.mark.parametrize("exp_id", sorted(REGISTRY))
    def test_declared_params_match_runner_signature(self, exp_id):
        """The declared parameter tuple IS the runner's keyword
        interface — names, order-insensitively, with a default for
        every one — so the declarations can never drift from the code."""
        import inspect

        entry = REGISTRY[exp_id]
        runner = entry.resolve()
        signature = inspect.signature(runner)
        accepted = {
            name for name, parameter in signature.parameters.items()
            if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD,
                                  parameter.KEYWORD_ONLY)
        }
        assert set(entry.params) == accepted, (
            f"{exp_id}: declared {sorted(entry.params)} but "
            f"{entry.module}.{entry.fn} accepts {sorted(accepted)}")
        defaults = entry.param_defaults()
        assert set(defaults) == set(entry.params), (
            f"{exp_id}: every declared parameter needs a default")

    @pytest.mark.parametrize("exp_id", sorted(REGISTRY))
    def test_every_registry_module_exposes_canonical_run(self, exp_id):
        import importlib

        entry = REGISTRY[exp_id]
        module = importlib.import_module(
            f"repro.experiments.{entry.module}")
        assert callable(getattr(module, "run")), (
            f"repro.experiments.{entry.module} has no canonical run()")

    def test_canonical_id_aliases(self):
        from repro.experiments.registry import canonical_id

        assert canonical_id("fig08") == "fig8"
        assert canonical_id("FIG08") == "fig8"
        assert canonical_id("table02") == "table2"
        assert canonical_id("fig13") == "fig13"
        assert canonical_id("fig-migration") == "fig-migration"
        assert canonical_id("fig99") == "fig99"  # unknown: unchanged

    def test_unknown_kwargs_rejected_with_declared_interface(self):
        from repro.errors import JobValidationError

        with pytest.raises(JobValidationError) as excinfo:
            run_experiment("fig7", minutess=3)
        assert "minutess" in str(excinfo.value)
        assert "minutes" in str(excinfo.value)


@pytest.mark.parametrize("exp_id", ANALYTIC_EXPERIMENTS)
def test_analytic_experiment_runs(exp_id):
    result = run_experiment(exp_id)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.table_str()


class TestExperimentContent:
    def test_fig7_trace_shape(self):
        result = run_experiment("fig7")
        assert len(result.rows) == 60
        for name in ("AG1", "AG2", "AG3"):
            series = result.column(name)
            assert max(series) > 70      # bursts near capacity
            peak = max(series)
            mean = sum(series) / len(series)
            assert peak > 4 * mean       # bursty

    def test_fig8_netkernel_beats_baseline_per_core(self):
        result = run_experiment("fig8")
        baseline = result.column("baseline_rps_per_core")
        netkernel = result.column("netkernel_rps_per_core")
        assert sum(netkernel) > sum(baseline)

    def test_table2_core_saving(self):
        result = run_experiment("table2")
        rows = {row[0]: row for row in result.rows}
        assert rows["# AGs"][2] > rows["# AGs"][1]
        assert "cores saved" in result.notes

    def test_fig11_functional_matches_model(self):
        result = run_experiment("fig11")
        for row in result.rows:
            batch, model, functional = row[0], row[1], row[2]
            assert functional == pytest.approx(model, rel=0.05)

    def test_fig12_functional_matches_model(self):
        result = run_experiment("fig12")
        for row in result.rows:
            assert row[2] == pytest.approx(row[1], rel=0.05)

    def test_fig13_parity_column(self):
        result = run_experiment("fig13")
        for row in result.row_dicts():
            assert row["netkernel_gbps"] == pytest.approx(
                row["baseline_gbps"], rel=0.25)

    def test_fig20_mtcp_reaches_1_1m(self):
        result = run_experiment("fig20")
        final = result.row_dicts()[-1]
        assert final["nk_mtcp_krps"] == pytest.approx(1100, rel=0.1)

    def test_table6_ramp(self):
        result = run_experiment("table6")
        measured = result.column("measured")
        assert measured == sorted(measured)

    def test_fig10_crossover_and_win(self):
        result = run_experiment("fig10")
        speedups = result.column("speedup")
        assert speedups[-1] > 1.6          # big win at 8KB
        assert speedups[0] < speedups[-1]  # growing with size


class TestDesExperimentsScaledDown:
    """Small configurations keeping test runtime reasonable; the bench
    harness runs the full versions."""

    def test_fig9_quick(self):
        from repro.experiments import fig09_fairness

        base_a, base_b = fig09_fairness._run_one(
            16, vm_level_cc=False, duration=1.2)
        nk_a, nk_b = fig09_fairness._run_one(
            16, vm_level_cc=True, duration=1.2)
        base_share = base_a / (base_a + base_b)
        nk_share = nk_a / (nk_a + nk_b)
        # Baseline: ~1/3 for the 8-flow VM; VMCC: ~1/2.
        assert base_share < 0.45
        assert 0.38 <= nk_share <= 0.68
        assert nk_share > base_share

    def test_fig21_quick(self):
        result = run_experiment("fig21", scale=0.02, time_factor=0.1)
        rows = result.row_dicts()
        # During the all-three window (paper seconds 10-20) the caps hold.
        window = [r for r in rows if 12 <= r["t_sec"] <= 18]
        assert window
        vm1 = sum(r["vm1"] for r in window) / len(window)
        vm2 = sum(r["vm2"] for r in window) / len(window)
        vm3 = sum(r["vm3"] for r in window) / len(window)
        assert vm1 <= 1.4       # capped at 1 Gbps (paper scale)
        assert vm2 <= 0.8       # capped at 0.5 Gbps
        assert vm3 > vm1 + vm2  # work conservation: VM3 takes the rest

    def test_table5_quick(self):
        result = run_experiment("table5", requests=300, concurrency=60)
        rows = {row[0]: dict(zip(result.columns, row))
                for row in result.rows}
        kernel = rows["NetKernel"]
        baseline = rows["Baseline"]
        mtcp = rows["NetKernel, mTCP NSM"]
        # Baseline and NetKernel comparable; mTCP tighter than kernel.
        assert kernel["mean"] == pytest.approx(baseline["mean"], rel=0.5)
        assert mtcp["stddev"] <= kernel["stddev"]
        assert mtcp["mean"] <= kernel["mean"]
