"""NSM autoscaler: fleet-scale elasticity on the AG-trace load signal.

The paper's §7.3 multiplexing argument (">40% of cores saved") assumes
someone right-sizes the NSM population as offered load moves.  This
module is that someone: a control loop watches a load signal (typically
the per-minute :func:`repro.trace.ag_trace.aggregate` of an AG fleet)
plus per-NSM live connection counts, decides how many NSMs the host
should run, and converges to it by spawning NSMs, retiring drained ones,
and rebalancing VMs with the existing live-migration path
(``host.migrate_vm`` — park → drain → export/import → rebind → resume,
so tenant connections survive every move).

The execution model follows the Aether-V job-queue pattern (SNIPPETS.md
§2): the control loop only *submits* jobs; a single worker process pulls
them FIFO and runs them one at a time, so provisioning and migrations
are serialised — at most one VM is ever mid-migration because of the
autoscaler, and a retire never races a spawn.  Jobs re-validate their
target when they finally run (the NSM they were queued against may have
been quarantined meanwhile) and migration failures are counted, not
fatal: a crash mid-rebalance degrades to the PR 3 failover path.

Invariants (asserted by the chaos harness and tests/test_autoscaler.py):
no VM is ever left assigned to an inactive NSM at a job boundary, TCP
migration forwards all reclaim once their connections die, and the NQE
pool returns to balance after the run.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError, NetKernelError

LoadSignal = Union[Sequence[float], Callable[[int], float]]


class AutoscalePolicy:
    """Sizing rule: offered load (normalized RPS, AG units) → NSM count.

    ``nsm_capacity`` is one NSM's worth of normalized load (an AG's
    provisioned peak is 100, so the default says one NSM absorbs three
    fully-bursting AGs).  ``headroom`` over-provisions against the next
    interval's burst; min/max clamp the fleet.
    """

    def __init__(self, nsm_capacity: float = 300.0, headroom: float = 1.2,
                 min_nsms: int = 1, max_nsms: int = 8,
                 rebalance_spread: int = 2):
        if nsm_capacity <= 0:
            raise ConfigurationError(
                f"nsm_capacity must be positive: {nsm_capacity}")
        if not 1 <= min_nsms <= max_nsms:
            raise ConfigurationError(
                f"need 1 <= min_nsms <= max_nsms: {min_nsms}..{max_nsms}")
        self.nsm_capacity = nsm_capacity
        self.headroom = headroom
        self.min_nsms = min_nsms
        self.max_nsms = max_nsms
        #: Rebalance when the VM-count gap between the most- and
        #: least-loaded NSM reaches this spread.
        self.rebalance_spread = max(2, rebalance_spread)

    def desired_nsms(self, offered_load: float) -> int:
        raw = math.ceil(max(0.0, offered_load) * self.headroom
                        / self.nsm_capacity)
        return max(self.min_nsms, min(self.max_nsms, raw))


class _Job:
    __slots__ = ("kind", "target", "submitted_at")

    def __init__(self, kind: str, target=None, submitted_at: float = 0.0):
        self.kind = kind          # "spawn" | "retire" | "migrate"
        self.target = target
        self.submitted_at = submitted_at


class NsmAutoscaler:
    """The control loop + serialized job worker (see module docstring)."""

    def __init__(self, sim, host, load_signal: LoadSignal,
                 interval_sec: float = 60.0,
                 policy: Optional[AutoscalePolicy] = None,
                 stack: str = "kernel", nsm_vcpus: int = 1,
                 provision_delay_sec: float = 2e-3,
                 name_prefix: str = "auto-nsm"):
        if interval_sec <= 0:
            raise ConfigurationError(
                f"interval must be positive: {interval_sec}")
        self.sim = sim
        self.host = host
        self.policy = policy or AutoscalePolicy()
        self.interval = interval_sec
        self.stack = stack
        self.nsm_vcpus = nsm_vcpus
        self.provision_delay = provision_delay_sec
        self.name_prefix = name_prefix
        self._load_signal = load_signal

        #: NSMs this autoscaler spawned (name → module).  Only managed
        #: NSMs are ever retired; statically provisioned ones are a
        #: floor the operator owns.
        self.managed: Dict[str, object] = {}
        #: Managed NSMs queued or mid-drain for retirement.
        self._draining: set = set()
        #: NSM ids whose crash we have already scheduled a reap for.
        self._reaped: set = set()
        #: Stacks of retired NSMs: their engines stay fabric endpoints
        #: and may legitimately hold one-hop forwards for live
        #: connections, so leak checks must keep seeing them.
        self.retired_stacks: List[object] = []

        self.counters = {
            "ticks": 0, "spawned": 0, "retired": 0, "retire_aborted": 0,
            "migrations": 0, "migration_failures": 0, "jobs": 0,
        }
        #: Audit log: dicts of (t, action, detail), in submission order.
        self.events: List[dict] = []
        #: Invariant breaches seen at job boundaries (must stay empty).
        self.violations: List[str] = []

        self._seq = 0
        self._jobs = deque()
        self._job_waiter = sim.event()
        self._running = True
        self._tick = 0
        self._worker = sim.process(self._worker_loop())
        #: The control loop rides Simulator.every: one decision per
        #: interval, stopping cleanly when the autoscaler stops.
        self._control = sim.every(interval_sec, self._control_tick)

    # -- control loop ---------------------------------------------------------

    def stop(self) -> None:
        """Stop deciding and stop the worker after the current job."""
        self._running = False
        if not self._job_waiter.triggered:
            self._job_waiter.succeed()

    def load_at(self, tick: int) -> float:
        signal = self._load_signal
        if callable(signal):
            return float(signal(tick))
        if not len(signal):
            return 0.0
        return float(signal[min(tick, len(signal) - 1)])

    def _control_tick(self):
        if not self._running:
            return False  # ends the Simulator.every series
        engine = self.host.coreengine
        tick = self._tick
        self._tick += 1
        self.counters["ticks"] += 1
        load = self.load_at(tick)
        desired = self.policy.desired_nsms(load)
        # Crashed NSMs (health monitor quarantined them) get their stack
        # state reaped so forwarding entries pointing at them reclaim.
        for nsm_id in sorted(set(engine.quarantined) - self._reaped):
            self._reaped.add(nsm_id)
            self._submit(_Job("reap", target=nsm_id))
        active_ids = set(engine._active_nsm_ids())
        draining_ids = {nsm.nsm_id for name, nsm in self.managed.items()
                        if name in self._draining}
        serving = sorted(active_ids - draining_ids)
        self._log("tick", f"load={load:.1f} desired={desired} "
                          f"serving={len(serving)}")

        if desired > len(serving):
            for _ in range(desired - len(serving)):
                self._submit(_Job("spawn"))
        elif desired < len(serving):
            for name in self._retire_candidates(len(serving) - desired):
                self._draining.add(name)
                self._submit(_Job("retire", target=name))
        self._maybe_rebalance(serving)
        return None

    def _retire_candidates(self, count: int) -> List[str]:
        """Managed, non-draining NSMs with the fewest live connections
        (the cheapest drains first)."""
        engine = self.host.coreengine
        loads = engine.table.nsm_loads()
        candidates = [
            (loads.get(nsm.nsm_id, 0), name)
            for name, nsm in sorted(self.managed.items())
            if name not in self._draining
            and name in self.host.nsms
        ]
        candidates.sort()
        return [name for _load, name in candidates[:count]]

    def _maybe_rebalance(self, serving: List[int]) -> None:
        """One migrate job per tick, most- → least-crowded NSM, once the
        VM-count spread reaches the policy threshold."""
        if len(serving) < 2:
            return
        engine = self.host.coreengine
        counts = {nsm_id: 0 for nsm_id in serving}
        by_nsm: Dict[int, List[int]] = {nsm_id: [] for nsm_id in serving}
        for vm_id, nsm_id in sorted(engine.vm_to_nsm.items()):
            if nsm_id in counts:
                counts[nsm_id] += 1
                by_nsm[nsm_id].append(vm_id)
        most = max(serving, key=lambda n: (counts[n], n))
        least = min(serving, key=lambda n: (counts[n], -n))
        if counts[most] - counts[least] < self.policy.rebalance_spread:
            return
        vm_id = by_nsm[most][0]
        self._submit(_Job("migrate", target=(vm_id, least)))

    # -- job queue (Aether-V: FIFO submission, serialized execution) ----------

    def _submit(self, job: _Job) -> None:
        job.submitted_at = self.sim.now
        self._jobs.append(job)
        self._log("submit", job.kind)
        if not self._job_waiter.triggered:
            self._job_waiter.succeed()
            self._job_waiter = self.sim.event()

    def _worker_loop(self):
        while True:
            waiter = self._job_waiter
            while self._jobs:
                job = self._jobs.popleft()
                self.counters["jobs"] += 1
                yield from self._execute(job)
                self._check_assignments(after=job.kind)
            if not self._running:
                return
            if waiter.triggered:
                continue  # submitted while we were executing
            yield waiter

    def _execute(self, job: _Job):
        if job.kind == "spawn":
            yield from self._do_spawn()
        elif job.kind == "retire":
            yield from self._do_retire(job.target)
        elif job.kind == "migrate":
            vm_id, target_nsm_id = job.target
            yield from self._do_migrate(vm_id, target_nsm_id,
                                        reason="rebalance")
        elif job.kind == "reap":
            self._do_reap(job.target)

    def _do_spawn(self):
        # Model the provisioning latency (image pull, boot, register).
        yield self.sim.timeout(self.provision_delay)
        name = f"{self.name_prefix}{self._seq}"
        self._seq += 1
        # Shard-aware scale-out: the new NSM homes on the emptiest
        # shard, so the policy grows *shards* — shard-local placement
        # (assign_vm_auto's same-shard preference) then steers new VMs
        # there without cross-shard handoffs.  The shard is chosen when
        # the job runs, not when it was queued: the fleet may have
        # changed shape while the job waited.
        engine = self.host.coreengine
        shard = engine.emptiest_shard()
        nsm = self.host.add_nsm(name, vcpus=self.nsm_vcpus,
                                stack=self.stack, shard=shard)
        self.managed[name] = nsm
        self.counters["spawned"] += 1
        self._log("spawn", f"{name}@shard{shard}")
        self._notify("spawn")

    def _do_retire(self, name: str):
        nsm = self.host.nsms.get(name)
        if nsm is None:
            self._draining.discard(name)
            self.managed.pop(name, None)
            return
        engine = self.host.coreengine
        if not engine.nsm_active(nsm.nsm_id):
            # Quarantined (or already gone) while the job was queued:
            # failover moved its VMs; reap the husk's stack state so
            # forwarders pointing at it reclaim, then drop it.
            reap_crashed_stack(nsm.stack)
            self.host.remove_nsm(nsm)
            self._finish_retire(name, nsm)
            return
        # Drain: move every assigned VM to the least-loaded survivor.
        for vm_id in sorted(vm for vm, assigned
                            in engine.vm_to_nsm.items()
                            if assigned == nsm.nsm_id):
            target_id = engine._least_loaded_nsm(exclude=nsm.nsm_id)
            if target_id is None:
                # Nowhere to drain to — abort, keep serving.
                self._draining.discard(name)
                self.counters["retire_aborted"] += 1
                self._log("retire-aborted", name)
                return
            yield from self._do_migrate(vm_id, target_id, reason="drain")
        if any(assigned == nsm.nsm_id
               for assigned in engine.vm_to_nsm.values()):
            # A migration failed and the VM is still here; try again on
            # a later tick rather than yanking a serving NSM.
            self._draining.discard(name)
            self.counters["retire_aborted"] += 1
            self._log("retire-aborted", name)
            return
        self.host.remove_nsm(nsm)
        self._finish_retire(name, nsm)

    def _finish_retire(self, name: str, nsm) -> None:
        self.retired_stacks.append(nsm.stack)
        self.managed.pop(name, None)
        self._draining.discard(name)
        self.counters["retired"] += 1
        self._log("retire", name)
        self._notify("retire")

    def _do_reap(self, nsm_id: int) -> None:
        """A crashed NSM was quarantined: reclaim its stack state (the
        process is dead; its TCP connections and listeners are gone, and
        engines still forwarding toward it must stop) and drop it from
        the host.  Failover already rebound its VMs."""
        nsm = next((n for n in self.host.nsms.values()
                    if n.nsm_id == nsm_id), None)
        if nsm is None:
            return
        stats = reap_crashed_stack(nsm.stack)
        self.host.remove_nsm(nsm)
        self.retired_stacks.append(nsm.stack)
        self.managed.pop(nsm.name, None)
        self._draining.discard(nsm.name)
        self._log("reap", f"{nsm.name}: {stats['conns']} conns, "
                          f"{stats['listeners']} listeners")
        self._notify("reap")

    def _do_migrate(self, vm_id: int, target_nsm_id: int, reason: str):
        engine = self.host.coreengine
        vm = next((v for v in self.host.vms.values()
                   if v.vm_id == vm_id), None)
        target = next((n for n in self.host.nsms.values()
                       if n.nsm_id == target_nsm_id), None)
        if vm is None or target is None:
            return
        if not engine.nsm_active(target_nsm_id):
            # Never migrate toward a dead NSM — the job is stale.
            self.counters["migration_failures"] += 1
            self._log("migrate-stale", f"vm{vm_id}->nsm{target_nsm_id}")
            return
        if engine.vm_to_nsm.get(vm_id) == target_nsm_id:
            return  # failover already moved it here
        try:
            yield from self.host.migrate_vm(vm, target)
        except NetKernelError as exc:
            # Source/target died mid-move (chaos): the engine already
            # unparked the VM; failover owns recovery from here.
            self.counters["migration_failures"] += 1
            self._log("migrate-failed",
                      f"vm{vm_id}->nsm{target_nsm_id}: {exc}")
            return
        self.counters["migrations"] += 1
        self._log("migrate", f"vm{vm_id}->nsm{target_nsm_id} ({reason})")
        self._notify("migrate")

    # -- invariants & audit ----------------------------------------------------

    def _check_assignments(self, after: str) -> None:
        for vm_id, nsm_id in assignment_violations(self.host):
            self.violations.append(
                f"t={self.sim.now:.6f} after {after}: VM {vm_id} "
                f"assigned to inactive NSM {nsm_id}")

    def _log(self, action: str, detail: str = "") -> None:
        self.events.append({"t": round(self.sim.now, 9),
                            "action": action, "detail": detail})

    def _notify(self, action: str) -> None:
        obs = getattr(self.host, "obs", None)
        if obs is not None:
            obs.on_autoscale(action)

    def report(self) -> dict:
        """Counters + fleet shape, JSON-ready, with the per-shard load
        view (active NSMs, homed VMs, live connections per shard) the
        spawn placement steers by."""
        engine = self.host.coreengine
        return {
            "counters": dict(self.counters),
            "managed": sorted(self.managed),
            "draining": sorted(self._draining),
            "active_nsms": len(engine._active_nsm_ids()),
            "shard_loads": engine.shard_loads(),
            "violations": list(self.violations),
        }


# -- invariant helpers (shared by the chaos harness and the tests) -----------


def assignment_violations(host) -> List[tuple]:
    """(vm_id, nsm_id) pairs where a VM points at a missing or inactive
    NSM.  Empty at every autoscaler job boundary, or something is wrong."""
    engine = host.coreengine
    bad = []
    for vm_id, nsm_id in sorted(engine.vm_to_nsm.items()):
        if not engine.nsm_active(nsm_id):
            bad.append((vm_id, nsm_id))
    return bad


def reap_crashed_stack(stack) -> dict:
    """Tear down a dead NSM's TCP engine state in place.

    The process died silently, so no RSTs are emitted: connections are
    destroyed directly (engines holding migration forwards toward them
    reclaim those entries, the PR 6 fix) and listeners are closed (their
    port forwarders reclaim likewise).  Peers discover the death through
    their own timeouts/resets, exactly as with a real host crash.
    """
    engine = getattr(stack, "engine", None)
    if engine is None:
        return {"conns": 0, "listeners": 0}
    conns = list(engine._conns.values())
    for conn in conns:
        engine._destroy(conn)
    listeners = list(engine._listeners.values())
    for conn in listeners:
        engine.close(conn)
    return {"conns": len(conns), "listeners": len(listeners)}
