"""NQE lifecycle tracing (the paper's §6/§7 per-stage breakdowns).

Each traced NQE carries a ``trace`` dict of sim-time stamps written at the
four datapath stations:

* ``guest_enqueue`` — GuestLib placed the NQE in its produce ring
* ``ce_out`` / ``ce_back`` — CoreEngine switched it (VM→NSM / NSM→VM)
* ``nsm_consume`` — ServiceLib popped it
* ``nsm_emit`` — ServiceLib produced the response/event NQE

Request/response pairs are correlated by the NQE token (``Nqe.response``
copies the request token), yielding end-to-end latency per op type; every
adjacent pair of stamps yields a per-hop histogram.  Stamping is pure
bookkeeping: no simulated cycles, no events, so an instrumented run has a
timeline identical to an uninstrumented one.
"""

from __future__ import annotations

from typing import Dict

from repro.core.nqe import Nqe, NqeOp
from repro.core.nk_device import ROLE_VM

#: VM→NSM requests that never get a token-matched response NQE; their
#: in-flight record is retired at NSM consume time (one-way latency).
ONE_WAY_OPS = frozenset((NqeOp.SEND, NqeOp.SENDTO, NqeOp.RECV_CREDIT,
                         NqeOp.ACCEPT_ATTACH))

#: Hop names in datapath order (guest → CE → NSM → CE → guest).
HOP_STAGES = ("guest_to_ce", "ce_to_nsm", "nsm_service",
              "nsm_to_ce", "ce_to_guest")


class NqeTracer:
    """Stamps NQEs at each station and folds deltas into histograms."""

    def __init__(self, sim, registry, max_inflight: int = 65536):
        self.sim = sim
        self.registry = registry
        self.max_inflight = max_inflight
        #: token -> request trace dict, for end-to-end correlation.
        self._inflight: Dict[int, dict] = {}
        self._hops = {stage: registry.histogram(f"nqe.hop.{stage}")
                      for stage in HOP_STAGES}
        self.traced = 0
        #: Requests not kept for correlation (in-flight table full).
        self.dropped_records = 0

    # -- stations, in datapath order ----------------------------------------

    def guest_enqueue(self, nqe: Nqe) -> None:
        trace = {"op": nqe.op, "vm_id": nqe.vm_id,
                 "guest_enqueue": self.sim.now}
        nqe.trace = trace
        self.traced += 1
        if len(self._inflight) < self.max_inflight:
            self._inflight[nqe.token] = trace
        else:
            self.dropped_records += 1

    def ce_switch(self, nqe: Nqe, source_role: str) -> None:
        trace = nqe.trace
        if trace is None:
            return  # produced before tracing was enabled
        now = self.sim.now
        if source_role == ROLE_VM:
            trace["ce_out"] = now
            self._hops["guest_to_ce"].record(now - trace["guest_enqueue"])
        else:
            trace["ce_back"] = now
            self._hops["nsm_to_ce"].record(now - trace["nsm_emit"])

    def nsm_consume(self, nqe: Nqe) -> None:
        trace = nqe.trace
        if trace is None or "ce_out" not in trace:
            return
        now = self.sim.now
        trace["nsm_consume"] = now
        self._hops["ce_to_nsm"].record(now - trace["ce_out"])
        if nqe.op in ONE_WAY_OPS:
            request = self._inflight.pop(nqe.token, None)
            if request is not None:
                self.registry.histogram(
                    f"nqe.oneway.{nqe.op.name}", vm=nqe.vm_id,
                ).record(now - request["guest_enqueue"])

    def nsm_emit(self, nqe: Nqe) -> None:
        now = self.sim.now
        nqe.trace = {"op": nqe.op, "vm_id": nqe.vm_id, "nsm_emit": now}
        request = self._inflight.get(nqe.token)
        if request is not None and "nsm_consume" in request:
            self._hops["nsm_service"].record(now - request["nsm_consume"])

    def guest_deliver(self, nqe: Nqe) -> None:
        trace = nqe.trace
        if trace is None or "ce_back" not in trace:
            return
        now = self.sim.now
        trace["guest_deliver"] = now
        self._hops["ce_to_guest"].record(now - trace["ce_back"])
        request = self._inflight.pop(nqe.token, None)
        if request is not None:
            # Token-matched response: full request→response round trip,
            # keyed by the *request* op (SOCKET, CONNECT, CLOSE, ...).
            self.registry.histogram(
                f"nqe.e2e.{request['op'].name}", vm=nqe.vm_id,
            ).record(now - request["guest_enqueue"])
        else:
            # Unsolicited event (DATA_ARRIVED, ACCEPT_EVENT, ...): one-way
            # NSM→guest delivery latency.
            self.registry.histogram(
                f"nqe.event.{nqe.op.name}", vm=nqe.vm_id,
            ).record(now - trace["nsm_emit"])

    # -- reporting -----------------------------------------------------------

    def hop_snapshot(self) -> list:
        """Per-hop histogram snapshots in datapath order."""
        return [dict(self._hops[stage].snapshot(), stage=stage)
                for stage in HOP_STAGES]
