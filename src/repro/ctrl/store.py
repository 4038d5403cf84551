"""JSON file-backed RunStore: job specs and results.

Layout (one directory, human-inspectable)::

    <root>/
      jobs/<job_id>.json      # Job record: spec + state + attempts
      results/<job_id>.json   # canonical result payload (see below)

Every write is atomic (tmp file + ``os.replace``) and every JSON dump is
canonical — ``sort_keys=True, indent=2`` and a trailing newline — so the
same payload always produces byte-identical files.  That is what the
acceptance check leans on: a job submitted through the CLI and the same
job submitted over ``POST /jobs`` store *the same bytes*.  Result files
deliberately contain only the run's payload — no job id, no timestamps
— so identity is a plain file comparison.

Crash-resume: :meth:`RunStore.recover` flips any job left ``running``
(the worker process died mid-job) back to ``queued`` without touching
its attempt count; the worker re-queues them ahead of new work.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, List

from repro.errors import UnknownJobError
from repro.ctrl.jobs import Job, JobSpec, QUEUED, RUNNING

#: Default store location (relative to the invoking directory).
DEFAULT_STORE = "runs"


def canonical_json(payload: Any) -> str:
    """The one serialization every stored artifact uses."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=str) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class RunStore:
    """Persistent job + result store (see module doc)."""

    def __init__(self, root: str = DEFAULT_STORE):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        for directory in (self.jobs_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- jobs -----------------------------------------------------------------

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _next_id(self) -> str:
        highest = 0
        for path in self.jobs_dir.glob("job-*.json"):
            suffix = path.stem.rsplit("-", 1)[-1]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        return f"job-{highest + 1:06d}"

    def new_job(self, spec: JobSpec) -> Job:
        """Validate, allocate an id, persist as queued."""
        spec.validate()
        job = Job(self._next_id(), spec)
        self.save_job(job)
        return job

    def save_job(self, job: Job) -> None:
        _atomic_write(self._job_path(job.job_id),
                      canonical_json(job.to_dict()))

    def load_job(self, job_id: str) -> Job:
        path = self._job_path(job_id)
        if not path.is_file():
            raise UnknownJobError(
                f"no such job {job_id!r} in store {self.root}")
        return Job.from_dict(json.loads(path.read_text()))

    def list_jobs(self) -> List[Job]:
        jobs = []
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            jobs.append(Job.from_dict(json.loads(path.read_text())))
        return jobs

    def recover(self) -> List[Job]:
        """Re-queue jobs a dead worker left ``running``; return every
        job now queued, FIFO by id (recovered ones keep their slot)."""
        queued = []
        for job in self.list_jobs():
            if job.state == RUNNING:
                job.transition(QUEUED)
                job.history.append("recovered")
                self.save_job(job)
            if job.state == QUEUED:
                queued.append(job)
        return queued

    # -- results --------------------------------------------------------------

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def save_result(self, job_id: str, payload: Any) -> Path:
        """Store a job's result payload canonically; returns the path."""
        path = self._result_path(job_id)
        _atomic_write(path, canonical_json(payload))
        return path

    def load_result(self, job_id: str) -> Any:
        path = self._result_path(job_id)
        if not path.is_file():
            raise UnknownJobError(
                f"no stored result for job {job_id!r} in {self.root}")
        return json.loads(path.read_text())

    def result_bytes(self, job_id: str) -> bytes:
        """The stored result verbatim (byte-identity checks)."""
        path = self._result_path(job_id)
        if not path.is_file():
            raise UnknownJobError(
                f"no stored result for job {job_id!r} in {self.root}")
        return path.read_bytes()

    def has_result(self, job_id: str) -> bool:
        return self._result_path(job_id).is_file()
