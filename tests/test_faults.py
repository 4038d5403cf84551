"""repro.faults: plan validation, injector effects, seeded determinism,
and the ``repro chaos`` CLI."""

import pytest

from repro.cli import main
from repro.errors import (
    ConfigurationError,
    ConnectionResetError_,
    ERRNO_EXCEPTIONS,
    TimedOutError,
    socket_error_for,
)
from repro.faults import FaultInjector, FaultPlan, PLAN_NAMES, named_plan
from repro.faults.chaos import run_chaos
from tests import scenario_runs


class TestFaultPlan:
    def test_builders_accumulate_events(self):
        plan = (FaultPlan(seed=7)
                .nsm_crash(0.2, "nsm-a")
                .nsm_stall(0.1, "nsm-b", duration=0.05)
                .doorbell_loss(0.05, 0.1, probability=0.2)
                .ring_slot_drop(0.05, 0.1, probability=0.05)
                .hugepage_squeeze(0.1, "vm1", fraction=0.5, duration=0.1)
                .delayed_completion(0.05, 0.1, delay=1e-4))
        assert len(plan) == 6
        described = plan.describe()
        assert described["seed"] == 7
        assert [e["kind"] for e in described["events"]] == [
            "nsm-crash", "nsm-stall", "doorbell-loss", "ring-slot-drop",
            "hugepage-exhaustion", "delayed-completion"]

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().doorbell_loss(0.0, 0.1, probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan().hugepage_squeeze(0.0, "vm", fraction=0.0,
                                         duration=0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan().nsm_crash(-1.0, "nsm-a")
        with pytest.raises(ConfigurationError):
            named_plan("unknown-plan", duration=1.0)

    def test_named_plans_cover_every_cli_name(self):
        for name in PLAN_NAMES:
            plan = named_plan(name, duration=1.0, seed=3)
            assert len(plan) == 1
            assert plan.name == name
            assert plan.events[0].at == pytest.approx(0.3)


class TestInjectorWiring:
    def test_arm_twice_rejected(self):
        from repro.core.host import NetKernelHost
        from repro.sim import Simulator

        sim = Simulator()
        host = NetKernelHost(sim)
        host.add_nsm("nsm-a", vcpus=1, stack="kernel")
        injector = FaultInjector(sim, host,
                                 FaultPlan().nsm_crash(0.1, "nsm-a"))
        injector.arm()
        with pytest.raises(ConfigurationError):
            injector.arm()

    def test_unknown_target_rejected_at_arm(self):
        from repro.core.host import NetKernelHost
        from repro.sim import Simulator

        sim = Simulator()
        host = NetKernelHost(sim)
        host.add_nsm("nsm-a", vcpus=1, stack="kernel")
        plan = FaultPlan().doorbell_loss(0.0, 0.1, probability=0.5,
                                         target="no-such-device")
        with pytest.raises(ConfigurationError):
            FaultInjector(sim, host, plan).arm()


class TestChaosDeterminism:
    def test_same_seed_same_fingerprint(self):
        first = scenario_runs.chaos(11, "nsm-crash", 0.2)
        second = run_chaos(seed=11, plan_name="nsm-crash", duration=0.2)
        assert (first["switch_fingerprint"]
                == second["switch_fingerprint"])
        assert first["leaks"] == [] and second["leaks"] == []

    def test_probabilistic_plan_replays_bit_identically(self):
        first = run_chaos(seed=4, plan_name="ring-drop", duration=0.2)
        second = run_chaos(seed=4, plan_name="ring-drop", duration=0.2)
        assert (first["switch_fingerprint"]
                == second["switch_fingerprint"])
        assert first["leaks"] == [] and second["leaks"] == []

    def test_different_seeds_diverge_under_random_faults(self):
        # 20% doorbell loss over thousands of kicks: two seeds agreeing
        # by chance is astronomically unlikely.
        first = run_chaos(seed=1, plan_name="doorbell-loss", duration=0.2)
        second = run_chaos(seed=2, plan_name="doorbell-loss", duration=0.2)
        assert (first["switch_fingerprint"]
                != second["switch_fingerprint"])


class TestChaosEffects:
    def test_crash_plan_quarantines_and_recovers(self):
        result = run_chaos(seed=5, plan_name="nsm-crash", duration=0.3)
        assert result["faults"]["crashes"] == 1
        assert result["quarantined"]  # the primary NSM was detected dead
        assert result["counters"]["resets"] >= 1  # client saw ECONNRESET
        assert result["recovery_sec"] is not None
        assert result["leaks"] == []

    def test_squeeze_plan_grabs_and_returns_memory(self):
        result = run_chaos(seed=5, plan_name="hugepage-squeeze",
                           duration=0.3)
        assert result["faults"]["squeezes"] == 1
        assert result["faults"]["squeezed_bytes"] > 0
        assert result["faults"]["buffers_held"] == 0  # released after window
        assert result["leaks"] == []

    def test_loss_plans_actually_drop(self):
        doorbells = run_chaos(seed=9, plan_name="doorbell-loss",
                              duration=0.2)
        assert doorbells["faults"]["doorbells_dropped"] > 0
        slots = run_chaos(seed=9, plan_name="ring-drop", duration=0.2)
        assert slots["faults"]["slots_dropped"] > 0
        assert slots["ce"]["nqes_dropped"] >= slots["faults"]["slots_dropped"]

    @pytest.mark.parametrize("seed", [2, 23])
    def test_doorbell_loss_strands_no_nqe(self, seed):
        # Each seed drops the last doorbell a device rings before it goes
        # quiet, which used to leave a SEND NQE and its hugepage buffer
        # in the client's ring for good.  The window's close re-rings it.
        result = scenario_runs.chaos(seed, "doorbell-loss", 0.2)
        assert result["faults"]["doorbells_dropped"] > 0
        assert result["leaks"] == []

    def test_delayed_completion_slows_but_does_not_break(self):
        result = run_chaos(seed=9, plan_name="delayed-completion",
                           duration=0.2)
        assert result["faults"]["completions_delayed"] > 0
        assert result["counters"]["requests_ok"] > 0
        assert result["leaks"] == []


class TestChaosCli:
    def test_chaos_verify_exit_zero(self, capsys):
        code = main(["chaos", "--seed", "5", "--plan", "nsm-crash",
                     "--duration", "0.2", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify OK" in out

    def test_chaos_json_output(self, capsys):
        import json

        code = main(["chaos", "--seed", "5", "--plan", "nsm-stall",
                     "--duration", "0.2", "--json"])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["kind"] == "chaos"
        assert envelope["error"] is None
        payload = envelope["data"]["result"]
        assert payload["plan"]["name"] == "nsm-stall"
        assert payload["leaks"] == []
        assert len(payload["switch_fingerprint"]) == 64


class TestErrorsExtensions:
    def test_timed_out_error_carries_etimedout(self):
        error = TimedOutError("late")
        assert error.errno_name == "ETIMEDOUT"

    def test_factory_resolves_aliased_names(self):
        assert isinstance(socket_error_for("ECONNRESET"),
                          ConnectionResetError_)
        assert isinstance(socket_error_for("ETIMEDOUT"), TimedOutError)

    def test_errno_exceptions_matches_declared_names(self):
        for errno_name, exc_type in ERRNO_EXCEPTIONS.items():
            assert exc_type.errno_name == errno_name

    def test_all_exports_resolve(self):
        import repro.errors as errors_module

        for name in errors_module.__all__:
            assert hasattr(errors_module, name)
