"""Control-plane job lifecycle: validation, retries, crash-resume."""

import json

import pytest

from repro.ctrl.executor import execute_job
from repro.ctrl.jobs import DONE, FAILED, JobSpec, QUEUED, RUNNING
from repro.ctrl.store import RunStore, canonical_json
from repro.ctrl.worker import JobWorker
from repro.errors import JobValidationError, UnknownJobError


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JobValidationError, match="unknown job kind"):
            JobSpec("frobnicate").validate()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(JobValidationError, match="fig99"):
            JobSpec("experiment", experiment="fig99").validate()

    def test_unknown_experiment_param_rejected_before_dispatch(self):
        spec = JobSpec("experiment", experiment="fig7",
                       params={"bogus": 1})
        with pytest.raises(JobValidationError) as excinfo:
            spec.validate()
        # The error names the offender and the declared interface.
        assert "bogus" in str(excinfo.value)
        assert "minutes" in str(excinfo.value)

    def test_unknown_scenario_param_rejected(self):
        with pytest.raises(JobValidationError, match="warp_factor"):
            JobSpec("chaos", params={"warp_factor": 9}).validate()

    def test_experiment_id_on_scenario_kind_rejected(self):
        with pytest.raises(JobValidationError, match="no experiment id"):
            JobSpec("chaos", experiment="fig7").validate()

    def test_zero_padded_experiment_id_accepted(self):
        JobSpec("experiment", experiment="fig08").validate()

    def test_seed_flows_into_seeded_kinds(self):
        spec = JobSpec("chaos", seed=42)
        assert spec.effective_params()["seed"] == 42
        pinned = JobSpec("chaos", params={"seed": 7}, seed=42)
        assert pinned.effective_params()["seed"] == 7

    def test_spec_round_trips_through_dict(self):
        spec = JobSpec("migrate", params={"streams": 4}, seed=3,
                       max_retries=1, backoff_base=0.01)
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(JobValidationError, match="surprise"):
            JobSpec.from_dict({"kind": "chaos", "surprise": True})


class TestRunStore:
    def test_ids_are_sequential_and_persistent(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        first = store.new_job(JobSpec("chaos"))
        second = store.new_job(JobSpec("chaos"))
        assert [first.job_id, second.job_id] == ["job-000001",
                                                 "job-000002"]
        # A fresh handle on the same directory continues the sequence.
        again = RunStore(tmp_path / "runs").new_job(JobSpec("chaos"))
        assert again.job_id == "job-000003"

    def test_job_record_round_trips(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        job = store.new_job(JobSpec("migrate", params={"streams": 2}))
        job.transition(RUNNING)
        job.attempts = 1
        store.save_job(job)
        loaded = store.load_job(job.job_id)
        assert loaded.state == RUNNING
        assert loaded.attempts == 1
        assert loaded.spec.params == {"streams": 2}
        assert loaded.history == [QUEUED, RUNNING]

    def test_unknown_job_raises(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        with pytest.raises(UnknownJobError):
            store.load_job("job-999999")
        with pytest.raises(UnknownJobError):
            store.load_result("job-999999")

    def test_result_bytes_are_canonical(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        payload = {"b": 2, "a": [1, {"z": 0, "y": 1}]}
        store.save_result("job-000001", payload)
        assert store.result_bytes("job-000001").decode() \
            == canonical_json(payload)
        # Same payload, different insertion order: identical bytes.
        store.save_result("job-000002",
                          {"a": [1, {"y": 1, "z": 0}], "b": 2})
        assert store.result_bytes("job-000001") \
            == store.result_bytes("job-000002")


def _flaky_executor(failures_then_success):
    """An injectable executor failing the first N attempts."""
    calls = {"count": 0}

    def executor(spec, fleet_probe=None):
        calls["count"] += 1
        if calls["count"] <= failures_then_success:
            raise RuntimeError(f"transient #{calls['count']}")
        return {"kind": spec.kind, "ran_on_attempt": calls["count"]}

    executor.calls = calls
    return executor


class TestWorkerLifecycle:
    def test_retry_with_backoff_then_done(self, tmp_path):
        sleeps = []
        executor = _flaky_executor(2)
        worker = JobWorker(RunStore(tmp_path / "runs"),
                           executor=executor, sleep=sleeps.append)
        job = worker.run_to_completion(
            JobSpec("chaos", max_retries=3, backoff_base=0.01))
        assert job.state == DONE
        assert job.attempts == 3
        assert job.error is None
        # Exponential: base, 2*base (the third attempt succeeded).
        assert sleeps == pytest.approx([0.01, 0.02])
        assert worker.store.load_result(job.job_id)["ran_on_attempt"] == 3
        assert worker.counters["retries"] == 2

    def test_retries_exhausted_marks_failed(self, tmp_path):
        sleeps = []
        executor = _flaky_executor(99)
        worker = JobWorker(RunStore(tmp_path / "runs"),
                           executor=executor, sleep=sleeps.append)
        job = worker.run_to_completion(
            JobSpec("chaos", max_retries=1, backoff_base=0.01))
        assert job.state == FAILED
        assert job.attempts == 2  # first try + one retry
        assert "transient" in job.error
        assert not worker.store.has_result(job.job_id)
        assert worker.counters["failed"] == 1

    def test_deterministically_failing_job_retries_in_order(self, tmp_path):
        """The ISSUE scenario: a job that fails deterministically walks
        queued -> running -> queued -> running -> failed with bounded
        attempts, and the history records every transition."""
        worker = JobWorker(RunStore(tmp_path / "runs"),
                           executor=_flaky_executor(99),
                           sleep=lambda _t: None)
        job = worker.run_to_completion(JobSpec("chaos", max_retries=1))
        assert job.history == [QUEUED, RUNNING, QUEUED, RUNNING, FAILED]

    def test_crash_resume_requeues_running_job_exactly_once(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        # Simulate a worker that died mid-job: record stuck in
        # ``running`` with one attempt spent, no result.
        job = store.new_job(JobSpec("chaos", max_retries=3))
        job.transition(RUNNING)
        job.attempts = 1
        store.save_job(job)

        executor = _flaky_executor(0)
        worker = JobWorker(store, executor=executor,
                           sleep=lambda _t: None)
        assert worker.counters["recovered"] == 1
        executed = worker.drain()
        assert executed == 1
        assert executor.calls["count"] == 1  # not duplicated
        final = store.load_job(job.job_id)
        assert final.state == DONE
        assert final.attempts == 2  # the lost attempt still counts
        assert "recovered" in final.history
        assert store.has_result(job.job_id)
        # A second recovery pass finds nothing to do.
        assert JobWorker(store, executor=executor,
                         sleep=lambda _t: None).drain() == 0
        assert executor.calls["count"] == 1

    def test_recovered_jobs_run_before_new_submissions(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        stuck = store.new_job(JobSpec("chaos"))
        stuck.transition(RUNNING)
        store.save_job(stuck)
        order = []

        def executor(spec, fleet_probe=None):
            order.append(spec.params.get("seed"))
            return {"ok": True}

        worker = JobWorker(store, executor=executor,
                           sleep=lambda _t: None)
        worker.run_to_completion(JobSpec("chaos", params={"seed": 1}))
        assert order == [None, 1]  # the recovered job went first

    def test_invalid_spec_never_reaches_the_store(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        worker = JobWorker(store, executor=_flaky_executor(0))
        with pytest.raises(JobValidationError):
            worker.submit(JobSpec("experiment", experiment="fig7",
                                  params={"bogus": 1}))
        assert store.list_jobs() == []


class TestExecutorPayloads:
    def test_experiment_payload_round_trips(self, tmp_path):
        from repro.experiments import ExperimentResult, run_experiment

        payload = execute_job(
            JobSpec("experiment", experiment="fig08"))
        assert payload["kind"] == "experiment"
        assert payload["exp_id"] == "fig8"
        direct = run_experiment("fig8")
        assert payload["result"] == direct.to_dict()
        assert ExperimentResult.from_dict(
            payload["result"]).table_str() == direct.table_str()

    def test_payload_is_json_canonicalizable(self):
        payload = execute_job(
            JobSpec("experiment", experiment="fig7",
                    params={"minutes": 3}))
        blob = canonical_json(payload)
        assert json.loads(blob)["result"]["exp_id"] == "fig7"
