"""Fleet state: what the provider's operators see.

NetKernel's pitch is that the network stack is *operated
infrastructure*: the provider can ask, at any moment, which NSMs are
serving, which are quarantined, which VM is homed where, and how the
datapath is doing.  :func:`fleet_snapshot` renders one host into that
JSON-ready view; :class:`FleetState` is the thread-safe latest-snapshot
holder the control-plane service reads for ``GET /fleet`` while a job's
simulation is still running in the worker thread (executors publish
through :meth:`FleetState.probe`).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional


def fleet_snapshot(host) -> Dict[str, Any]:
    """NSM health/quarantine, per-VM assignment, shard layout, and obs
    counters for one :class:`~repro.core.host.NetKernelHost`."""
    engine = host.coreengine
    quarantined = dict(engine.quarantined)
    nsms = []
    for name, nsm in sorted(host.nsms.items()):
        nsms.append({
            "name": name,
            "nsm_id": nsm.nsm_id,
            "stack": nsm.stack_name,
            "vcpus": nsm.vcpus,
            "active": engine.nsm_active(nsm.nsm_id),
            "quarantined": quarantined.get(nsm.nsm_id),
        })
    per_vm_drops = engine.per_vm_drops()
    vms = []
    for name, vm in sorted(host.vms.items()):
        vms.append({
            "name": name,
            "vm_id": vm.vm_id,
            "nsm_id": engine.vm_to_nsm.get(vm.vm_id),
            "drops": per_vm_drops.get(vm.vm_id,
                                      {"dropped": 0,
                                       "dropped_backpressure": 0,
                                       "shed": 0}),
        })
    shards = {
        "count": engine.n_shards,
        "vm_home": {str(vm_id): engine.shard_of_vm(vm_id)
                    for vm_id in sorted(engine._vms)},
        "nsm_home": {str(nsm_id): engine.shard_of_nsm(nsm_id)
                     for nsm_id in sorted(engine._nsms)},
        # Per-shard load (active NSMs / homed VMs / live connections)
        # — what shard-aware placement and the autoscaler's
        # emptiest-shard spawn decide on.
        "loads": {str(index): row
                  for index, row in sorted(engine.shard_loads().items())},
    }
    return {
        "sim_now": round(host.sim.now, 9),
        "nsms": nsms,
        "vms": vms,
        "quarantined": {str(k): v for k, v in sorted(quarantined.items())},
        "shards": shards,
        "counters": engine.stats(),
        "overload": (engine.overload.stats()
                     if engine.overload is not None else None),
    }


class FleetState:
    """Latest fleet snapshot, shared between worker and HTTP threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._snapshot: Optional[Dict[str, Any]] = None
        self._job_id: Optional[str] = None

    def probe(self, job_id: str):
        """A per-job publisher suitable as ``run_chaos(fleet_probe=…)``:
        called with the live host, stores a fresh snapshot."""
        def publish(host) -> None:
            self.update(job_id, fleet_snapshot(host))
        return publish

    def update(self, job_id: str, snapshot: Dict[str, Any]) -> None:
        with self._lock:
            self._job_id = job_id
            self._snapshot = snapshot

    def view(self) -> Dict[str, Any]:
        """What ``GET /fleet`` returns (empty-handed before any job)."""
        with self._lock:
            return {"job_id": self._job_id, "fleet": self._snapshot}
