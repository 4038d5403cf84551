"""The shared chaos workload: echo traffic under an armed fault plan.

``run_chaos`` builds a small canonical topology — a client VM served by
``nsm-a`` (the fault target), a standby ``nsm-b``, and an echo server VM
on ``nsm-srv`` — arms a :class:`~repro.faults.plan.FaultPlan`, and drives
paced request/response traffic through the failure.  The client survives
every plan by construction: per-op deadlines (GuestLib ``op_timeout``)
bound each blocking call, ECONNRESET from CoreEngine's quarantine path
fails the connection fast, and the loop reconnects until traffic stops.

The result carries a ``switch_fingerprint``: a SHA-256 over the
simulated timeline's counters (sim clock/event counts, CoreEngine switch
stats, application counters).  Process-global allocator state (NQE pool
hits, token values, socket-id counters) is deliberately excluded — it
differs between two runs in one process without affecting the timeline —
so the same (seed, plan) replays to the same fingerprint, which
``repro chaos --verify`` and the CI scenario-smoke job assert.
"""

from __future__ import annotations

from typing import Optional

from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.errors import SocketError, TimedOutError, TryAgainError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, named_plan
from repro.net.fabric import Network
from repro.scenario import census, switch_fingerprint
from repro.sim.engine import Simulator

#: Echo service port and request payload size.
ECHO_PORT = 7000
REQUEST_BYTES = 256
#: Gap between client requests (keeps the run cheap but steady).
REQUEST_PACING = 0.5e-3


def echo_host(overload: bool = False):
    """(sim, host, server VM) of the echo scenarios' topology: nsm-a
    serves the clients (and is the fault target), nsm-b stands by, and
    the server VM sits on nsm-srv.  ``overload`` arms the governor."""
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim))
    for name in ("nsm-a", "nsm-b", "nsm-srv"):
        host.add_nsm(name, vcpus=1, stack="kernel")
    if overload:
        host.coreengine.enable_overload_control()
    return sim, host, host.add_vm("server", vcpus=1, nsm=host.nsms["nsm-srv"])


def host_timeline(sim, host, guest_counters) -> dict:
    """The counters an echo scenario fingerprints: the sim clock and
    event counts, CoreEngine and ServiceLib stats, and the named GuestLib
    counters of every VM."""
    return {
        "sim": {
            "now": round(sim.now, 9),
            "events_processed": sim.events_processed,
            "events_cancelled": sim.events_cancelled,
        },
        "ce": host.coreengine.stats(),
        "nsms": {name: nsm.servicelib.stats()
                 for name, nsm in sorted(host.nsms.items())},
        "guestlib": {name: {counter: getattr(vm.guestlib, counter)
                            for counter in guest_counters}
                     for name, vm in sorted(host.vms.items())},
    }


def echo_server(api, vm, port: int = ECHO_PORT):
    """Accept loop + per-connection echo children."""

    def echo(conn):
        try:
            while True:
                data = yield from api.recv(conn, 64 * 1024)
                if not data:
                    break
                yield from api.send(conn, data)
        except SocketError:
            pass

    listener = yield from api.socket()
    yield from api.bind(listener, port)
    yield from api.listen(listener, backlog=128)
    while True:
        conn = yield from api.accept(listener)
        vm.spawn(echo(conn))


def read_exactly(api, sock, size: int):
    """Receive exactly ``size`` bytes; a closed peer is a SocketError."""
    got = b""
    while len(got) < size:
        data = yield from api.recv(sock, size - len(got))
        if not data:
            raise SocketError("peer closed mid-reply")
        got += data
    return got


def _chaos_client(sim, api, counters, stop, fault_onset: float):
    """Paced request loop that reconnects through failures."""
    sock = None
    while not stop["flag"]:
        try:
            if sock is None:
                sock = yield from api.socket()
                yield from api.connect(sock, ("nsm-srv", ECHO_PORT))
                counters["connects"] += 1
            yield from api.send(sock, bytes(REQUEST_BYTES))
            yield from read_exactly(api, sock, REQUEST_BYTES)
            counters["requests_ok"] += 1
            if (fault_onset is not None and sim.now > fault_onset
                    and counters["recovered_at"] is None):
                counters["recovered_at"] = sim.now
            yield sim.timeout(REQUEST_PACING)
        except TryAgainError:
            # Admission control: the op provably never issued, so the
            # socket is intact — back off and retry on it.
            counters["sheds"] += 1
            yield sim.timeout(2e-3)
        except TimedOutError:
            counters["timeouts"] += 1
            sock = yield from scrap(api, sock)
            yield sim.timeout(2e-3)
        except SocketError as error:
            if error.errno_name == "ECONNRESET":
                counters["resets"] += 1
            else:
                counters["other_errors"] += 1
            sock = yield from scrap(api, sock)
            yield sim.timeout(2e-3)
    yield from scrap(api, sock)


def scrap(api, sock):
    """Best-effort close of a failed socket; always returns None."""
    if sock is not None:
        try:
            yield from api.close(sock)
        except SocketError:
            pass
    return None


def run_chaos(seed: int = 0, plan_name: str = "nsm-crash",
              duration: float = 0.6,
              detection_timeout: float = 10e-3,
              heartbeat_interval: float = 2e-3,
              op_timeout: float = 20e-3,
              plan: Optional[FaultPlan] = None,
              fleet_probe=None,
              fleet_probe_interval: float = 2e-3) -> dict:
    """One seeded chaos run; returns counters, fingerprint, leak report.

    ``plan`` overrides ``plan_name`` when provided (for custom plans).
    The client stops issuing requests at 0.8×duration and the health
    monitor stops at 0.9×duration, so every in-flight element drains
    before the resource-balance checks at the end.

    ``fleet_probe`` (control-plane hook) is called with the live host
    every ``fleet_probe_interval`` simulated seconds, so ``GET /fleet``
    can reflect mid-run state (e.g. a quarantined NSM) while the job is
    still running.  The probe adds scheduler events, so two runs compare
    fingerprints only against runs with the same probe configuration —
    ``--verify`` and the CI jobs always use matching settings.
    """
    pool_outstanding_before = NQE_POOL.outstanding
    sim, host, server_vm = echo_host()
    client_vm = host.add_vm("client", vcpus=1, nsm=host.nsms["nsm-a"],
                            op_timeout=op_timeout, max_op_retries=3)
    host.enable_failover(heartbeat_interval=heartbeat_interval,
                         detection_timeout=detection_timeout)

    if plan is None:
        plan = named_plan(plan_name, duration, seed=seed,
                          primary="nsm-a", vm="client")
    injector = FaultInjector(sim, host, plan).arm()
    fault_onset = min((e.at for e in plan.events), default=None)

    counters = dict.fromkeys(("connects", "requests_ok", "resets", "timeouts",
                              "sheds", "other_errors"), 0)
    counters["recovered_at"] = None
    stop = {"flag": False}

    server_vm.spawn(echo_server(host.socket_api(server_vm), server_vm))
    client_vm.spawn(_chaos_client(sim, host.socket_api(client_vm), counters,
                                  stop, fault_onset))
    if fleet_probe is not None:
        fleet_probe(host)
        sim.every(fleet_probe_interval, lambda: fleet_probe(host))

    sim.call_at(0.8 * duration, lambda: stop.update(flag=True))
    # Quiesce heartbeats before the end so in-flight probes drain and the
    # pool-balance check below sees a stable state.
    sim.call_at(0.9 * duration,
                host.coreengine.disable_health_monitor)
    sim.run(until=duration)

    ce = host.coreengine
    timeline = host_timeline(sim, host, (
        "nqes_sent", "nqes_received", "op_timeouts", "op_retries",
        "admission_waits", "ops_shed", "send_results_shed"))
    timeline.update(
        client=dict(counters, recovered_at=(
            round(counters["recovered_at"], 9)
            if counters["recovered_at"] is not None else None)),
        per_vm_drops={str(vm_id): drops
                      for vm_id, drops in ce.per_vm_drops().items()},
        overload=ce.overload.stats() if ce.overload is not None else None,
        faults=injector.stats())

    recovery = None
    if counters["recovered_at"] is not None and fault_onset is not None:
        recovery = counters["recovered_at"] - fault_onset

    return {
        "plan": plan.describe(),
        "seed": seed,
        "duration": duration,
        "detection_timeout": detection_timeout,
        "heartbeat_interval": heartbeat_interval,
        "op_timeout": op_timeout,
        "counters": counters,
        "fault_onset": fault_onset,
        "recovery_sec": recovery,
        "quarantined": dict(ce.quarantined),
        "ce": timeline["ce"],
        "faults": injector.stats(),
        "leaks": census(host, pool_outstanding_before).leaks(),
        "switch_fingerprint": switch_fingerprint(timeline),
    }
