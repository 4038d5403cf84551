"""Job model for the control plane: every run is a Job.

A :class:`JobSpec` describes *what* to run — an experiment or a
registered scenario (chaos, migrate, capacity, autoscale) — with
explicit parameters, a seed, and a bounded retry budget.  A
:class:`Job` is one spec's lifecycle in the RunStore::

    queued -> running -> done
                     \\-> queued (retry, exponential backoff)
                     \\-> failed (retries exhausted)

Specs are validated *before* they are enqueued: unknown kinds, unknown
experiment ids, and unknown parameters are rejected with a
:class:`~repro.errors.JobValidationError` naming the allowed choices,
so a bad submission never reaches a runner as a ``TypeError``.
Experiment parameters validate against the declared interface in
``repro.experiments.registry``; the scenario kinds validate against the
parameters each :class:`~repro.scenario.Scenario` declares (checked
against the runners' real signatures by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import JobValidationError
from repro.scenario import SCENARIOS

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STATES = (QUEUED, RUNNING, DONE, FAILED)

#: Parameters each job kind accepts; experiments and scenarios declare
#: theirs in repro.experiments.registry and repro.scenario.
KIND_PARAMS: Dict[str, tuple] = {
    "experiment": (),  # resolved via the registry entry
    **{kind: scenario.params for kind, scenario in SCENARIOS.items()},
}


class JobSpec:
    """What to run.  Immutable once submitted; persisted verbatim."""

    __slots__ = ("kind", "experiment", "params", "seed", "max_retries",
                 "backoff_base")

    def __init__(self, kind: str, experiment: Optional[str] = None,
                 params: Optional[Dict[str, Any]] = None, seed: int = 0,
                 max_retries: int = 2, backoff_base: float = 0.05):
        self.kind = kind
        self.experiment = experiment
        self.params = dict(params or {})
        self.seed = int(seed)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)

    def validate(self) -> None:
        """Reject malformed specs with a clear, typed error."""
        if self.kind not in KIND_PARAMS:
            raise JobValidationError(
                f"unknown job kind {self.kind!r}; choose from "
                f"{sorted(KIND_PARAMS)}")
        if self.max_retries < 0:
            raise JobValidationError(
                f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base < 0:
            raise JobValidationError(
                f"backoff_base must be >= 0: {self.backoff_base}")
        if self.kind == "experiment":
            if not self.experiment:
                raise JobValidationError(
                    "experiment jobs need an experiment id "
                    "(JobSpec.experiment / --id)")
            from repro.experiments.registry import experiment_entry

            experiment_entry(self.experiment).validate_kwargs(self.params)
            return
        if self.experiment:
            raise JobValidationError(
                f"{self.kind!r} jobs take no experiment id "
                f"(got {self.experiment!r})")
        allowed = KIND_PARAMS[self.kind]
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise JobValidationError(
                f"unknown parameter(s) {unknown} for kind "
                f"{self.kind!r}; allowed: {', '.join(allowed)}")

    def effective_params(self) -> Dict[str, Any]:
        """Params as the executor will pass them: the spec's seed flows
        into seeded kinds unless the caller pinned one explicitly."""
        params = dict(self.params)
        if self.kind in SCENARIOS:
            # Every scenario runner is seeded.
            params.setdefault("seed", self.seed)
        elif self.kind == "experiment":
            from repro.experiments.registry import experiment_entry

            entry = experiment_entry(self.experiment)
            if "seed" in entry.params:
                params.setdefault("seed", self.seed)
        return params

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "experiment": self.experiment,
            "params": dict(self.params),
            "seed": self.seed,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobValidationError(
                f"job spec must be an object, got {type(data).__name__}")
        extra = set(data) - {"kind", "experiment", "params", "seed",
                             "max_retries", "backoff_base"}
        if extra:
            raise JobValidationError(
                f"unknown job-spec field(s): {sorted(extra)}")
        if "kind" not in data:
            raise JobValidationError("job spec needs a 'kind'")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise JobValidationError("'params' must be an object")
        return cls(kind=data["kind"], experiment=data.get("experiment"),
                   params=params, seed=data.get("seed", 0),
                   max_retries=data.get("max_retries", 2),
                   backoff_base=data.get("backoff_base", 0.05))


class Job:
    """One spec's lifecycle in the RunStore."""

    __slots__ = ("job_id", "spec", "state", "attempts", "error",
                 "history")

    def __init__(self, job_id: str, spec: JobSpec, state: str = QUEUED,
                 attempts: int = 0, error: Optional[str] = None,
                 history: Optional[List[str]] = None):
        self.job_id = job_id
        self.spec = spec
        self.state = state
        self.attempts = attempts
        self.error = error
        self.history = list(history or [QUEUED])

    def transition(self, state: str) -> None:
        if state not in STATES:
            raise JobValidationError(f"unknown job state {state!r}")
        self.state = state
        self.history.append(state)

    def backoff_for(self, attempt: int) -> float:
        """Exponential backoff before re-running a failed attempt
        (attempt 1 -> base, 2 -> 2*base, 3 -> 4*base, …)."""
        return self.spec.backoff_base * (2 ** max(0, attempt - 1))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "history": list(self.history),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        return cls(job_id=data["id"], spec=JobSpec.from_dict(data["spec"]),
                   state=data["state"], attempts=data.get("attempts", 0),
                   error=data.get("error"),
                   history=data.get("history"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Job {self.job_id} {self.spec.kind} state={self.state} "
                f"attempts={self.attempts}>")
