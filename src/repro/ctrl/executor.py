"""The one executor every entry point runs jobs through.

``repro job submit``, ``POST /jobs``, and the legacy one-shot
subcommands (``repro chaos`` …) all end up in :func:`execute_job`, so a
run's stored payload is identical no matter which door it came in
through — that is the acceptance bar for this control plane.  The
executor is pure: it takes a validated :class:`~repro.ctrl.jobs.JobSpec`
(plus an optional fleet-state publisher) and returns a JSON-safe
payload.  Persistence and retries belong to the worker; rendering
belongs to the CLI/service layers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.ctrl.jobs import JobSpec
from repro.scenario import SCENARIOS

#: Signature of a fleet publisher: called with the live host mid-run.
FleetProbe = Callable[[object], None]


def execute_job(spec: JobSpec,
                fleet_probe: Optional[FleetProbe] = None) -> Dict[str, Any]:
    """Run one job synchronously and return its result payload.

    Payloads are deterministic for a fixed spec (runners are seeded
    DES workloads) and contain no wall-clock timestamps or job ids, so
    the RunStore can persist them byte-identically across invocations.
    """
    params = spec.effective_params()
    if spec.kind == "experiment":
        from repro.experiments.registry import (canonical_id,
                                                experiment_entry)

        entry = experiment_entry(spec.experiment)
        result = entry(**params)
        return {
            "kind": "experiment",
            "exp_id": canonical_id(spec.experiment),
            "params": params,
            "result": result.to_dict(),
        }
    if spec.kind == "bench":
        from repro.perf import run_benchmarks

        results = run_benchmarks(params.get("names") or None,
                                 quick=bool(params.get("quick", False)))
        return {"kind": "bench", "params": params, "results": results}
    if spec.kind in SCENARIOS:
        return SCENARIOS[spec.kind].run(params, fleet_probe)
    raise AssertionError(f"unvalidated job kind {spec.kind!r}")
