"""Control-plane service: jobs, runs, and fleet state as an API.

This package makes the reproduction *operable* the way the paper makes
the network stack operable: every run — experiment, chaos, migrate,
capacity, autoscale — is a :class:`~repro.ctrl.jobs.Job` with a
persisted spec, a retry budget, and a stored result, executed by one
serialized :class:`~repro.ctrl.worker.JobWorker` against a JSON
file-backed :class:`~repro.ctrl.store.RunStore`.  Two doors, one core:
the ``repro job`` CLI verbs and the ``repro serve`` REST layer
(``repro.ctrl.service``) both drive the same executor, so their stored
results are byte-identical.
"""

from repro.ctrl.envelope import Envelope
from repro.ctrl.executor import execute_job
from repro.ctrl.fleet import FleetState, fleet_snapshot
from repro.ctrl.jobs import Job, JobSpec
from repro.ctrl.store import RunStore
from repro.ctrl.worker import JobWorker

__all__ = [
    "Envelope",
    "execute_job",
    "FleetState",
    "fleet_snapshot",
    "Job",
    "JobSpec",
    "RunStore",
    "JobWorker",
]
