"""NDR/PDR capacity search: where is the knee, and is it a plateau?

Borrowing the methodology of NFV benchmarking harnesses (nfvbench,
RFC 2544): a deterministic binary search over *offered load* finds, per
scenario,

* **NDR** (no-drop rate) — the highest offered rate whose loss fraction
  stays within ``ndr_loss`` (default 1%), and
* **PDR** (partial-drop rate) — the highest rate whose loss stays
  within ``pdr_loss`` (default 10%).

Loss is goodput deficit, ``max(0, 1 - goodput/offered_rate)``, which
subsumes every way an op can fail to complete: admission rejections
(EAGAIN at the guest boundary), switch-side sheds, ring-full drops,
backpressure drops, and deadline expiries.  Each probed rate reports
goodput, loss decomposition, and delivery-latency percentiles, so the
search doubles as a latency-vs-load sweep.

Scenarios:

* ``mux`` — the fig. 8 switching workload on raw NK devices: ``n_vms``
  open-loop producers through one CoreEngine (overload control armed)
  to an echoing NSM consumer.  Producers honour the governor's
  ``admit()`` gate exactly as GuestLib does.
* ``rps`` — full GuestLib→CE→ServiceLib→stack echo round trips,
  ``n_vms`` client VMs paced against a shared server.
* ``failover`` — the ``rps`` workload with the serving NSM crashed
  mid-window and failover armed: capacity *through* a failure.

After the search, the harness re-offers **2× NDR** and checks the
graceful-degradation contract: goodput holds ≥ 80% of the NDR plateau,
per-VM goodput stays fair (Jain index ≥ 0.9), and no op hangs — every
issued op resolves as a completion, a fast EAGAIN, a counted drop, or a
bounded timeout.

Everything is seeded and simulated-time-driven; the same
``(scenario, seed, knobs)`` tuple replays to the same fingerprint,
which ``repro capacity --verify`` and the scenario-smoke CI job assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.nqe import NQE_POOL, NqeOp
from repro.core.sharding import ShardedCoreEngine
from repro.cpu.core import Core
from repro.cpu.cost_model import DEFAULT_COST_MODEL
from repro.errors import ConfigurationError, SocketError, TimedOutError, \
    TryAgainError
from repro.scenario import census, switch_fingerprint
from repro.sim.engine import Simulator

#: scenario -> (default rate_lo, default rate_hi, default window sec).
SCENARIOS: Dict[str, tuple] = {
    "mux": (50e3, 2e6, 0.02),
    "rps": (2e3, 64e3, 0.08),
    "failover": (2e3, 64e3, 0.08),
}

#: Echo clients start issuing after this warm-up (server bind + listen).
_ECHO_WARMUP = 1e-3

#: Per-op service time of the mux scenario's NSM consumer (seconds).
#: The stack, not the switch, is the capacity bottleneck (§7): this
#: pins the mux knee near 1/_MUX_SERVICE_SEC aggregate ops/sec, inside
#: the default search band.
_MUX_SERVICE_SEC = 2e-6

#: Echo payload for the rps/failover scenarios.
_ECHO_BYTES = 64
_ECHO_PORT = 7100


def jain_fairness(values) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²); 1.0 is perfectly fair."""
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        return 1.0
    total = sum(values)
    if total <= 0.0:
        return 1.0
    return (total * total) / (n * sum(v * v for v in values))


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    index = int(round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


# -- scenario: mux (raw-device switching capacity) ---------------------------


def _measure_mux(rate: float, seed: int, window: float,
                 n_vms: int) -> Tuple[dict, List[str]]:
    """Offer ``rate`` control ops/sec across ``n_vms`` producers for
    ``window`` seconds of simulated time; return the step record and
    the census's leaks."""
    pool_before = NQE_POOL.outstanding
    sim = Simulator()
    core = Core(sim, name="cap.ce", hz=DEFAULT_COST_MODEL.core_hz)
    engine = ShardedCoreEngine(sim, [core], batch_size=8, ring_slots=128)
    governor = engine.enable_overload_control()
    nsm_id, nsm_dev = engine.register_nsm("nsm0", queue_sets=1)
    vms = []
    for i in range(n_vms):
        vm_id, vm_dev = engine.register_vm(f"vm{i}", queue_sets=1)
        engine.assign_vm(vm_id, nsm_id)
        vms.append((vm_id, vm_dev))

    counters = {"offered": 0, "rejected": 0, "ring_full": 0, "eagain": 0}
    ok_per_vm = {vm_id: 0 for vm_id, _ in vms}
    latencies: List[float] = []

    nsm_core = Core(sim, name="cap.nsm", hz=DEFAULT_COST_MODEL.core_hz)
    service_cycles = _MUX_SERVICE_SEC * nsm_core.hz

    def responder():
        owner = object()
        qs = nsm_dev.queue_sets[0]
        job_ring, send_ring = nsm_dev.consume_rings(qs)
        completion_ring, _ = nsm_dev.produce_rings(qs)
        scratch: list = []
        backlog: list = []
        while True:
            progressed = False
            if backlog:
                pushed = False
                while backlog and completion_ring.try_push(backlog[0],
                                                           owner=owner):
                    backlog.pop(0)
                    pushed = True
                if pushed:
                    nsm_dev.ring_doorbell()
                    progressed = True
            n = job_ring.drain_into(scratch, 64, owner=owner)
            n += send_ring.drain_into(scratch, 64, owner=owner, start=n)
            if n:
                progressed = True
                # The per-op stack cost makes this consumer, not the
                # switch, the congestion point (the §7 regime).
                yield nsm_core.execute(n * service_cycles, "cap.service")
                for i in range(n):
                    nqe = scratch[i]
                    scratch[i] = None
                    # Echo, preserving the issue stamp so the drainer
                    # (and the governor's EWMA) see end-to-end latency.
                    backlog.append(NQE_POOL.acquire(
                        NqeOp.OP_RESULT, nqe.vm_id, nqe.queue_set_id,
                        nqe.socket_id, token=nqe.token,
                        created_at=nqe.created_at))
                    NQE_POOL.release(nqe)
            if not progressed:
                if backlog:
                    yield sim.timeout(1e-6)
                else:
                    yield nsm_dev.wait_for_inbound()

    def drainer(vm_id, vm_dev):
        owner = object()
        qs = vm_dev.queue_sets[0]
        completion_ring, _ = vm_dev.consume_rings(qs)
        scratch: list = []
        while True:
            n = completion_ring.drain_into(scratch, 64, owner=owner)
            if not n:
                yield vm_dev.wait_for_inbound()
                continue
            for i in range(n):
                nqe = scratch[i]
                scratch[i] = None
                if nqe.op_data < 0:
                    counters["eagain"] += 1
                else:
                    ok_per_vm[vm_id] += 1
                    if nqe.created_at > 0.0:
                        latencies.append(sim.now - nqe.created_at)
                NQE_POOL.release(nqe)

    period = n_vms / rate
    ops_per_vm = max(1, int(round(window / period)))

    def producer(vm_id, vm_dev, index):
        owner = object()
        qs = vm_dev.queue_sets[0]
        control_ring, _ = vm_dev.produce_rings(qs)
        # Stagger producers evenly inside one period.
        yield sim.timeout(index * period / n_vms)
        for _ in range(ops_per_vm):
            counters["offered"] += 1
            if not governor.admit(vm_id, NqeOp.SETSOCKOPT):
                counters["rejected"] += 1
            else:
                nqe = NQE_POOL.acquire(NqeOp.SETSOCKOPT, vm_id, 0, 1,
                                       created_at=sim.now)
                if control_ring.try_push(nqe, owner=owner):
                    vm_dev.ring_doorbell()
                else:
                    NQE_POOL.release(nqe)
                    counters["ring_full"] += 1
            yield sim.timeout(period)

    sim.process(responder())
    for vm_id, vm_dev in vms:
        sim.process(drainer(vm_id, vm_dev))
    for index, (vm_id, vm_dev) in enumerate(vms):
        sim.process(producer(vm_id, vm_dev, index))
    sim.run(until=window * 1.5 + 0.005)

    ok = sum(ok_per_vm.values())
    ce = engine.stats()
    dropped = ce["nqes_dropped"] + ce["nqes_dropped_backpressure"]
    resolved = (ok + counters["rejected"] + counters["ring_full"]
                + counters["eagain"] + dropped)
    goodput = ok / window
    latencies.sort()
    found = census(engine, pool_before)
    return {
        "rate": rate,
        "offered": counters["offered"],
        "ok": ok,
        "rejected": counters["rejected"],
        "ring_full": counters["ring_full"],
        "eagain": counters["eagain"],
        "dropped": dropped,
        "hung_ops": max(0, counters["offered"] - resolved),
        "goodput": goodput,
        "loss": max(0.0, 1.0 - goodput / rate),
        "p50_us": round(_percentile(latencies, 0.50) * 1e6, 3),
        "p99_us": round(_percentile(latencies, 0.99) * 1e6, 3),
        "per_vm_ok": {str(vm_id): n for vm_id, n in ok_per_vm.items()},
        "overload": governor.stats(),
        "events_processed": sim.events_processed,
        "pool_delta": found.pool_delta,
    }, found.leaks()


# -- scenarios: rps / failover (full-host echo capacity) ---------------------


def _measure_echo(rate: float, seed: int, window: float, n_vms: int,
                  crash: bool) -> Tuple[dict, List[str]]:
    """Closed-loop paced echo round trips through the full datapath.

    Each of ``n_vms`` client VMs runs one worker that tries to hold the
    aggregate pace; loss is the goodput deficit against the offered
    rate (a lagging worker *is* the overload signal for a closed loop).
    With ``crash`` the serving NSM dies mid-window and the clients ride
    the failover onto the standby.
    """
    from repro.faults.chaos import echo_host, echo_server, scrap, \
        read_exactly
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    pool_before = NQE_POOL.outstanding
    sim, host, server_vm = echo_host(overload=True)
    clients = []
    for i in range(n_vms):
        clients.append(host.add_vm(
            f"client{i}", vcpus=1, nsm=host.nsms["nsm-a"],
            op_timeout=10e-3, max_op_retries=2, backoff_seed=seed))
    if crash:
        host.enable_failover(heartbeat_interval=2e-3,
                             detection_timeout=8e-3)
        plan = FaultPlan(seed=seed, name="capacity-failover")
        plan.nsm_crash(0.5 * window, "nsm-a")
        FaultInjector(sim, host, plan).arm()

    counters = {"offered": 0, "timeouts": 0, "sheds": 0, "errors": 0}
    ok_per_vm: Dict[int, int] = {vm.vm_id: 0 for vm in clients}
    latencies: List[float] = []
    finished = [0]

    interval = n_vms / rate

    def client_worker(vm, api, index):
        sock = None
        next_slot = _ECHO_WARMUP + index * interval / n_vms
        t_end = _ECHO_WARMUP + window
        while True:
            if sim.now < next_slot:
                yield sim.timeout(next_slot - sim.now)
            if sim.now >= t_end:
                break
            next_slot += interval
            counters["offered"] += 1
            issued_at = sim.now
            try:
                if sock is None:
                    sock = yield from api.socket()
                    yield from api.connect(sock, ("nsm-srv", _ECHO_PORT))
                yield from api.send(sock, bytes(_ECHO_BYTES))
                yield from read_exactly(api, sock, _ECHO_BYTES)
                ok_per_vm[vm.vm_id] += 1
                latencies.append(sim.now - issued_at)
            except TryAgainError:
                counters["sheds"] += 1
            except TimedOutError:
                counters["timeouts"] += 1
                sock = yield from scrap(api, sock)
            except SocketError:
                counters["errors"] += 1
                sock = yield from scrap(api, sock)
        yield from scrap(api, sock)
        finished[0] += 1

    server_vm.spawn(echo_server(host.socket_api(server_vm), server_vm,
                                 _ECHO_PORT))
    for index, vm in enumerate(clients):
        vm.spawn(client_worker(vm, host.socket_api(vm), index))
    # Generous drain: a worker blocked at t_end resolves through its
    # full deadline/backoff ladder before the hung-op census below.
    drain = _ECHO_WARMUP + window + 0.15
    if crash:
        sim.call_at(drain - 0.01,
                    host.coreengine.disable_health_monitor)
    sim.run(until=drain)

    ok = sum(ok_per_vm.values())
    goodput = ok / window
    latencies.sort()
    ce = host.coreengine.stats()
    found = census(host, pool_before)
    return {
        "rate": rate,
        "offered": counters["offered"],
        "ok": ok,
        "rejected": counters["sheds"],
        "ring_full": 0,
        "eagain": counters["sheds"],
        "timeouts": counters["timeouts"],
        "errors": counters["errors"],
        "dropped": ce["nqes_dropped"] + ce["nqes_dropped_backpressure"],
        "hung_ops": len(clients) - finished[0],
        "goodput": goodput,
        "loss": max(0.0, 1.0 - goodput / rate),
        "p50_us": round(_percentile(latencies, 0.50) * 1e6, 3),
        "p99_us": round(_percentile(latencies, 0.99) * 1e6, 3),
        "per_vm_ok": {str(vm_id): n
                      for vm_id, n in sorted(ok_per_vm.items())},
        "overload": host.coreengine.overload.stats(),
        "events_processed": sim.events_processed,
        "pool_delta": found.pool_delta,
    }, found.leaks()


# -- the search --------------------------------------------------------------


def run_capacity(scenario: str = "mux", seed: int = 0,
                 window: Optional[float] = None, n_vms: int = 4,
                 rate_lo: Optional[float] = None,
                 rate_hi: Optional[float] = None,
                 iterations: int = 6,
                 ndr_loss: float = 0.01,
                 pdr_loss: float = 0.10) -> dict:
    """Binary-search NDR and PDR for one scenario; check degradation.

    The search runs a fixed ``iterations`` bisections per threshold
    (measurements are memoized by rate, and the PDR search reuses the
    NDR search's probes), so the step sequence — and therefore the
    result fingerprint — is a pure function of the arguments.
    """
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown capacity scenario {scenario!r}; choose from "
            f"{sorted(SCENARIOS)}")
    if n_vms < 2:
        raise ConfigurationError("capacity search needs n_vms >= 2 "
                                 "(fairness is part of the contract)")
    lo_default, hi_default, window_default = SCENARIOS[scenario]
    window = float(window if window is not None else window_default)
    lo = float(rate_lo if rate_lo is not None else lo_default)
    hi = float(rate_hi if rate_hi is not None else hi_default)
    if not 0 < lo < hi:
        raise ConfigurationError(
            f"need 0 < rate_lo < rate_hi (got {lo} .. {hi})")

    if scenario == "mux":
        def run_step(rate):
            return _measure_mux(rate, seed, window, n_vms)
    else:
        def run_step(rate):
            return _measure_echo(rate, seed, window, n_vms,
                                 crash=(scenario == "failover"))

    memo: Dict[float, dict] = {}
    steps: List[dict] = []
    leaks: List[str] = []

    def measure(rate: float) -> dict:
        key = round(rate, 6)
        step = memo.get(key)
        if step is None:
            step, step_leaks = run_step(key)
            memo[key] = step
            steps.append(step)
            leaks.extend(f"step rate={key:g}: {leak}" for leak in step_leaks)
        return step

    def search(threshold: float) -> Optional[float]:
        """Highest probed rate whose loss stays within ``threshold``."""
        if measure(lo)["loss"] > threshold:
            return None
        if measure(hi)["loss"] <= threshold:
            return hi
        low, high = lo, hi
        for _ in range(iterations):
            mid = round((low + high) / 2, 6)
            if measure(mid)["loss"] <= threshold:
                low = mid
            else:
                high = mid
        return low

    ndr_rate = search(ndr_loss)
    pdr_rate = search(pdr_loss)

    def _point(rate: Optional[float]) -> Optional[dict]:
        if rate is None:
            return None
        step = memo[round(rate, 6)]
        return {"rate": step["rate"], "goodput": round(step["goodput"], 3),
                "loss": round(step["loss"], 6),
                "p50_us": step["p50_us"], "p99_us": step["p99_us"]}

    graceful = None
    if ndr_rate is not None:
        plateau = memo[round(ndr_rate, 6)]
        twice = measure(min(2 * ndr_rate, 2 * hi))
        ratio = (twice["goodput"] / plateau["goodput"]
                 if plateau["goodput"] > 0 else 0.0)
        jain = jain_fairness(twice["per_vm_ok"].values())
        graceful = {
            "rate": twice["rate"],
            "goodput": round(twice["goodput"], 3),
            "goodput_ratio": round(ratio, 4),
            "jain_fairness": round(jain, 4),
            "hung_ops": twice["hung_ops"],
            "pass": bool(ratio >= 0.8 and jain >= 0.9
                         and twice["hung_ops"] == 0),
        }

    # Round the float-bearing fields so the fingerprint is stable
    # against formatting, then fingerprint the full step sequence.
    fp_steps = [dict(step, goodput=round(step["goodput"], 3),
                     loss=round(step["loss"], 6),
                     overload=dict(step["overload"]))
                for step in steps]
    result = {
        "scenario": scenario,
        "seed": seed,
        "window": window,
        "n_vms": n_vms,
        "rate_lo": lo,
        "rate_hi": hi,
        "iterations": iterations,
        "ndr_loss": ndr_loss,
        "pdr_loss": pdr_loss,
        "ndr": _point(ndr_rate),
        "pdr": _point(pdr_rate),
        "graceful": graceful,
        "steps": fp_steps,
        "events_processed": sum(s["events_processed"] for s in steps),
        "leaks": leaks,
        "fingerprint": switch_fingerprint(fp_steps),
    }
    return result
