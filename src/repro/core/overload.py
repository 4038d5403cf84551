"""Overload control with graceful degradation.

NetKernel multiplexes many VMs onto shared NSMs, so the switch is the
natural congestion point: past capacity, the seed behaviour was a cliff
— rings filled, ``full_rejections`` ticked, NQEs vanished into
host-global drop counters, and guests learned nothing until a deadline
fired.  This module turns the knee into a plateau.

One :class:`OverloadGovernor` runs per CoreEngine (per *shard* when the
switch is sharded), sampling two deterministic pressure signals at a
fixed simulated cadence:

* **Ring-occupancy watermarks** — the windowed high-watermark
  (:meth:`SpscRing.take_hwm`) of every ring on every registered device,
  as a fraction of capacity.  Occupancy on the rings the switch consumes
  from means the switch is the bottleneck; occupancy on the rings it
  produces into means a consumer (NSM or VM poller) is.
* **Delivery-latency EWMA** — an exponentially weighted moving average
  of ``now - nqe.created_at`` taken at every successful delivery, i.e.
  the queueing delay an element accumulated between production and
  landing in its destination ring.

The governor holds one of three *levels* with hysteresis (distinct
enter/exit thresholds, one-level-per-sample decay):

* ``0`` (normal): no intervention.
* ``1`` (pressured): ServiceLib halves its effective receive window so
  inbound data stops amplifying the backlog.
* ``2`` (overloaded): per-VM admission control engages at the GuestLib
  op-issue boundary, and the switch arms its weight-aware shed backstop.

Degradation contract (guest-visible):

* Admission rejections surface as ``EAGAIN`` (:class:`TryAgainError`)
  *before* the op is issued — the guest knows the op never reached the
  NSM and retries after a seeded, jittered exponential backoff.
* Ops shed *at the switch* fail fast as OP_RESULT/SEND_RESULT carrying
  ``-EAGAIN``, never silently dropped.
* Deadline expiries keep ``ETIMEDOUT``: a timeout means the op's fate
  is unknown, an EAGAIN means it provably did not happen.

Fairness: each sample window, the governor converts the switch's
*demonstrated* throughput over the previous window into per-VM admission
quotas proportional to configured weights (default 1.0).  A hot VM
exhausts its own quota and backs off; its neighbours keep their shares —
the fig09 isolation property, preserved under overload.  The switch-side
shed quota is the admission quota times a slack factor, so shedding only
catches producers that bypass the guest-side gate (or backlog issued
before the level flipped).

Everything here is deterministic: no wall clock, no RNG — decisions are
pure functions of ring states, lifetime counters, and simulated time, so
a seeded run's admission decisions repeat exactly (tests/test_overload.py
pins one burst's as a golden).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.nqe import Nqe, NqeOp

#: Ops never shed or admission-gated: credits relieve pressure, CLOSE /
#: SHUTDOWN release resources, heartbeats are the health plane, and
#: ACCEPT_ATTACH completes a connection the NSM already holds state for.
EXEMPT_OPS = frozenset((
    NqeOp.RECV_CREDIT, NqeOp.CLOSE, NqeOp.SHUTDOWN, NqeOp.HEARTBEAT,
    NqeOp.ACCEPT_ATTACH,
))

#: Governor levels, for readers of stats dicts.
LEVEL_NORMAL, LEVEL_PRESSURED, LEVEL_OVERLOADED = 0, 1, 2


class OverloadGovernor:
    """Per-shard overload detector + per-VM admission/shed policy."""

    def __init__(self, sim, engine, sample_interval: float = 200e-6,
                 occ_enter: float = 0.75, occ_exit: float = 0.40,
                 latency_enter: float = 2e-3, latency_exit: float = 0.5e-3,
                 ewma_alpha: float = 0.2, min_admit_budget: int = 8,
                 shed_slack: float = 2.0):
        self.sim = sim
        self.engine = engine
        self.sample_interval = sample_interval
        self.occ_enter = occ_enter
        self.occ_exit = occ_exit
        self.latency_enter = latency_enter
        self.latency_exit = latency_exit
        self.ewma_alpha = ewma_alpha
        self.min_admit_budget = min_admit_budget
        self.shed_slack = shed_slack

        #: Current pressure level (0 normal / 1 pressured / 2 overloaded).
        self.level = LEVEL_NORMAL
        #: Delivery-latency EWMA (seconds); 0.0 until the first delivery.
        self.latency_ewma = 0.0
        #: Last sampled max ring-occupancy fraction (diagnostics).
        self.last_occupancy = 0.0
        #: Per-VM admission weights; unlisted VMs weigh 1.0.
        self.vm_weights: Dict[int, float] = {}

        # Window state, rebuilt at every sampler tick.
        self._window_counts: Dict[int, int] = {}
        self._admit_quota: Dict[int, int] = {}
        self._shed_quota: Dict[int, int] = {}
        self._admitted: Dict[int, int] = {}
        self._last_switched = engine.nqes_switched
        #: Injected overload (the ``overload`` FaultKind): the detector
        #: reports level 2 until this simulated instant regardless of the
        #: measured signals.
        self._force_until = 0.0

        self._enabled = True

        # Lifetime counters.
        self.samples = 0
        self.level_transitions = 0
        self.admission_rejections = 0
        self.switch_sheds = 0
        self.vm_admission_rejections: Dict[int, int] = {}
        self._process = sim.process(self._sampler())

    # -- weights ---------------------------------------------------------------

    def set_vm_weight(self, vm_id: int, weight: float) -> None:
        """Set a VM's admission weight (its share of capacity under
        overload is ``weight / sum(weights)``)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight}")
        self.vm_weights[vm_id] = weight

    def stop(self) -> None:
        """Disarm the governor: the sampler exits at its next tick and
        every hook becomes a no-op (level pinned at 0)."""
        self._enabled = False
        self.level = LEVEL_NORMAL
        self._admit_quota = {}
        self._shed_quota = {}

    # -- fault hook ------------------------------------------------------------

    def force_overload(self, until: float) -> None:
        """Pin the detector at level 2 until simulated time ``until``
        (the ``overload`` FaultKind's hook)."""
        if until > self._force_until:
            self._force_until = until

    # -- hot-path hooks (never yield, never allocate beyond dict slots) --------

    def note_delivery(self, latency: float) -> None:
        """Fold one delivery's production→ring latency into the EWMA.
        Called by the switch at every successful delivery."""
        alpha = self.ewma_alpha
        self.latency_ewma += alpha * (latency - self.latency_ewma)

    def ingest(self, nqe: Nqe) -> bool:
        """Account one VM-egress NQE against its VM's window; return
        True when the switch should shed it (weight-aware backstop).

        Shedding triggers only at level 2, only for non-exempt ops, and
        only once a VM's in-window count exceeds its shed quota — the
        admission quota times ``shed_slack`` — so a guest that honours
        the admission gate is never shed at the switch.
        """
        vm_id = nqe.vm_id
        counts = self._window_counts
        seen = counts.get(vm_id, 0) + 1
        counts[vm_id] = seen
        if self.level < LEVEL_OVERLOADED or nqe.op in EXEMPT_OPS:
            return False
        quota = self._shed_quota.get(vm_id)
        if quota is None or seen <= quota:
            return False
        self.switch_sheds += 1
        return True

    def admit(self, vm_id: int, op: Optional[NqeOp] = None) -> bool:
        """Admission check at the guest op-issue boundary.

        Below level 2 everything is admitted.  At level 2 each VM spends
        a per-window quota proportional to its weight; an exhausted
        quota rejects (the guest surfaces EAGAIN and backs off).  Exempt
        ops and VMs registered since the last tick are always admitted.
        """
        if self.level < LEVEL_OVERLOADED:
            return True
        if op is not None and op in EXEMPT_OPS:
            return True
        quota = self._admit_quota.get(vm_id)
        if quota is None:
            return True
        used = self._admitted.get(vm_id, 0)
        if used >= quota:
            self.admission_rejections += 1
            per_vm = self.vm_admission_rejections
            per_vm[vm_id] = per_vm.get(vm_id, 0) + 1
            return False
        self._admitted[vm_id] = used + 1
        return True

    # -- detector --------------------------------------------------------------

    def _sampler(self):
        interval = self.sample_interval
        while self._enabled and getattr(self.engine, "_running", True):
            yield self.sim.timeout(interval)
            if not self._enabled:
                break
            self._sample()

    def _max_occupancy(self) -> float:
        """Max windowed occupancy fraction across every ring of every
        device this engine services (resets each ring's window)."""
        occ = 0.0
        engine = self.engine
        for registry in (engine.switch._vms, engine.switch._nsms):
            for numeric_id in sorted(registry):
                reg = registry[numeric_id]
                if reg.engine is not engine:
                    continue  # homed on a peer shard, governed there
                device = reg.device
                for qs in device.queue_sets:
                    for ring in (qs.job, qs.send, qs.completion,
                                 qs.receive):
                        frac = ring.take_hwm() / ring.capacity
                        if frac > occ:
                            occ = frac
        return occ

    def _sample(self) -> None:
        self.samples += 1
        occ = self._max_occupancy()
        self.last_occupancy = occ
        lat = self.latency_ewma
        forced = self.sim.now < self._force_until
        if forced or occ >= self.occ_enter or lat >= self.latency_enter:
            new_level = LEVEL_OVERLOADED
        elif occ < self.occ_exit and lat < self.latency_exit:
            # Hysteresis: step down one level per clean sample instead
            # of snapping to 0, so a single quiet window under a bursty
            # load does not whiplash admission on and off.
            new_level = max(LEVEL_NORMAL, self.level - 1)
        else:
            # Mid band: hold an elevated level, enter "pressured" from 0.
            new_level = max(self.level, LEVEL_PRESSURED)
        if new_level != self.level:
            self.level_transitions += 1
            old = self.level
            self.level = new_level
            obs = self.engine.switch.obs
            if obs is not None:
                obs.on_overload_level(self.engine, old, new_level,
                                      occ, lat)
        self._retarget_quotas()

    def _retarget_quotas(self) -> None:
        """Convert last window's demonstrated switch throughput into
        weight-proportional per-VM admission quotas for the next window."""
        switched = self.engine.nqes_switched
        delta = switched - self._last_switched
        self._last_switched = switched
        self._window_counts = {}
        self._admitted = {}
        if self.level < LEVEL_OVERLOADED:
            self._admit_quota = {}
            self._shed_quota = {}
            return
        budget = delta if delta > self.min_admit_budget \
            else self.min_admit_budget
        engine = self.engine
        vm_ids = sorted(vm_id for vm_id, reg in engine.switch._vms.items()
                        if reg.engine is engine)
        if not vm_ids:
            self._admit_quota = {}
            self._shed_quota = {}
            return
        weights = self.vm_weights
        total_weight = 0.0
        for vm_id in vm_ids:
            total_weight += weights.get(vm_id, 1.0)
        admit: Dict[int, int] = {}
        shed: Dict[int, int] = {}
        slack = self.shed_slack
        for vm_id in vm_ids:
            share = weights.get(vm_id, 1.0) / total_weight
            quota = int(budget * share)
            if quota < 1:
                quota = 1
            admit[vm_id] = quota
            shed[vm_id] = int(quota * slack) + 1
        self._admit_quota = admit
        self._shed_quota = shed

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic counters (safe for timeline fingerprints)."""
        return {
            "level": self.level,
            "samples": self.samples,
            "level_transitions": self.level_transitions,
            "admission_rejections": self.admission_rejections,
            "switch_sheds": self.switch_sheds,
            "latency_ewma": round(self.latency_ewma, 9),
            "last_occupancy": round(self.last_occupancy, 6),
        }


def governor_for_device(device) -> Optional[OverloadGovernor]:
    """The governor covering a device's home engine (shard), or None.

    GuestLib and ServiceLib resolve their governor through the device's
    registration so sharded switches naturally give every guest its home
    shard's detector.
    """
    reg = getattr(device, "ce_registration", None)
    if reg is None:
        return None
    return reg.engine.overload
