"""Serialized job worker: FIFO submission, one job at a time.

This is the Aether-V execution model the NSM autoscaler already uses
in-simulation (``core/autoscaler.py``), lifted to the control plane:
submissions enqueue immediately, a single worker drains the queue in
order, and at most one run is ever in flight — so two jobs can never
interleave their simulations, and their results stay comparable.

Lifecycle per attempt::

    queued -> running -> done                      (result persisted)
                     \\-> queued   after backoff    (attempts <= retries)
                     \\-> failed                    (retries exhausted)

Backoff is exponential off ``spec.backoff_base`` and flows through an
injectable ``sleep`` so tests run instantly.  On construction the
worker *recovers* the store: jobs a dead worker left ``running`` are
re-queued (same id, attempt count preserved) ahead of new submissions —
a killed-mid-job worker resumes without losing or duplicating a run.

The worker runs inline (:meth:`drain`, what the CLI uses) or as a
daemon thread (:meth:`start`, what ``repro serve`` uses).
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from typing import Callable, Dict, Optional

from repro.ctrl.executor import execute_job
from repro.ctrl.fleet import FleetState
from repro.ctrl.jobs import DONE, FAILED, Job, JobSpec, QUEUED, RUNNING
from repro.ctrl.store import RunStore


class JobWorker:
    """One store, one FIFO queue, one job in flight (module docstring)."""

    def __init__(self, store: RunStore,
                 fleet: Optional[FleetState] = None,
                 executor: Callable = execute_job,
                 sleep: Callable[[float], None] = time.sleep):
        self.store = store
        self.fleet = fleet if fleet is not None else FleetState()
        self.executor = executor
        self.sleep = sleep
        self.counters: Dict[str, int] = {
            "executed": 0, "retries": 0, "failed": 0, "recovered": 0,
        }
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        for job in store.recover():
            if "recovered" in job.history:
                self.counters["recovered"] += 1
            self._queue.put(job.job_id)

    # -- submission ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Validate + persist as queued + enqueue; returns the Job."""
        job = self.store.new_job(spec)
        self._queue.put(job.job_id)
        return job

    # -- execution -------------------------------------------------------------

    def drain(self) -> int:
        """Run every queued job to completion, FIFO; returns how many
        attempts were executed.  This is the synchronous (CLI) mode."""
        executed = 0
        while True:
            try:
                job_id = self._queue.get_nowait()
            except queue.Empty:
                return executed
            if job_id is None:
                continue
            executed += self._run_one(job_id)

    def start(self) -> "JobWorker":
        """Run as a daemon thread (the ``repro serve`` mode)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-job-worker", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop after the in-flight job finishes."""
        self._stopping = True
        self._queue.put(None)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _loop(self) -> None:
        while not self._stopping:
            job_id = self._queue.get()
            if job_id is None:
                continue
            self._run_one(job_id)

    def _run_one(self, job_id: str) -> int:
        """One attempt of one job; re-queues on retryable failure.
        Returns the number of attempts executed (this call: 1)."""
        job = self.store.load_job(job_id)
        if job.state not in (QUEUED, RUNNING):
            return 0  # already finished (duplicate enqueue is a no-op)
        job.transition(RUNNING)
        job.attempts += 1
        self.store.save_job(job)
        self.counters["executed"] += 1
        try:
            payload = self.executor(
                job.spec, fleet_probe=self.fleet.probe(job.job_id))
        except Exception as error:  # noqa: BLE001 - jobs may fail anyhow
            job.error = "".join(traceback.format_exception_only(
                type(error), error)).strip()
            if job.attempts <= job.spec.max_retries:
                self.counters["retries"] += 1
                job.transition(QUEUED)
                self.store.save_job(job)
                self.sleep(job.backoff_for(job.attempts))
                self._queue.put(job.job_id)
            else:
                self.counters["failed"] += 1
                job.transition(FAILED)
                self.store.save_job(job)
            return 1
        self.store.save_result(job.job_id, payload)
        job.error = None
        job.transition(DONE)
        self.store.save_job(job)
        return 1

    def run_to_completion(self, spec: JobSpec) -> Job:
        """Submit + drain (the thin-adapter path the CLI verbs use):
        recovered and previously queued jobs run first, FIFO, then the
        new one; returns the new job's final record."""
        job = self.submit(spec)
        self.drain()
        return self.store.load_job(job.job_id)
