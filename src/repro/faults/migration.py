"""The shared live-migration workload: echo streams across a migration.

``run_migration`` builds the same canonical topology as ``run_chaos`` —
a client VM served by ``nsm-a``, a target ``nsm-b``, and an echo server
VM on ``nsm-srv`` — opens ``streams`` concurrent echo connections, then
live-migrates the client VM from nsm-a to nsm-b mid-traffic via
:meth:`NetKernelHost.migrate_vm`.  The migration must be invisible to
the guest: every stream keeps its connection (zero ECONNRESET, zero
timeouts in the fault-free run) and every echoed byte matches the bytes
sent, because GuestLib ops *park* during the blackout instead of
failing.

An optional :class:`~repro.faults.plan.FaultPlan` overlaps the
migration with injected faults (the satellite-4 property tests); with a
plan armed the client gets per-op deadlines and failover is enabled, so
resource balance still holds even when the migration itself aborts.

The result carries the same deterministic ``switch_fingerprint`` scheme
as ``run_chaos`` — same (seed, streams, plan) replays bit-identically —
which ``repro migrate --verify`` and the CI scenario-smoke job assert.
"""

from __future__ import annotations

from typing import Optional

from repro.core.nqe import NQE_POOL
from repro.errors import ConfigurationError, SocketError, TimedOutError
from repro.faults.chaos import ECHO_PORT, echo_host, echo_server, \
    host_timeline, read_exactly
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, named_plan
from repro.scenario import census, switch_fingerprint

#: Gap between successive echo rounds on one stream.
STREAM_PACING = 0.5e-3
#: Stagger between stream start times (avoids a thundering connect herd).
STREAM_STAGGER = 50e-6


def _stream(sim, api, index: int, seed: int, payload_bytes: int,
            pacing: float, counters: dict, stop: dict):
    """One long-lived echo stream verifying payload integrity per round."""
    pattern = bytes((index * 31 + i * 7 + seed) % 256
                    for i in range(payload_bytes))
    yield sim.timeout(index * STREAM_STAGGER)
    sock = None
    clean = False
    try:
        sock = yield from api.socket()
        yield from api.connect(sock, ("nsm-srv", ECHO_PORT))
        counters["connects"] += 1
        while not stop["flag"]:
            yield from api.send(sock, pattern)
            counters["bytes_sent"] += payload_bytes
            got = yield from read_exactly(api, sock, payload_bytes)
            counters["bytes_echoed"] += len(got)
            if got == pattern:
                counters["echoes_ok"] += 1
            else:
                counters["mismatches"] += 1
            yield sim.timeout(pacing)
        clean = True
    except TimedOutError:
        counters["timeouts"] += 1
    except SocketError as error:
        if error.errno_name == "ECONNRESET":
            counters["resets"] += 1
        else:
            counters["other_errors"] += 1
    if sock is not None:
        try:
            yield from api.close(sock)
            if clean:
                counters["closed_clean"] += 1
        except (SocketError, TimedOutError):
            pass


def run_migration(seed: int = 0, streams: int = 8, duration: float = 0.12,
                  migrate_at: float = 0.04, payload_bytes: int = 512,
                  pacing: float = STREAM_PACING,
                  plan: Optional[FaultPlan] = None,
                  plan_name: Optional[str] = None,
                  target_nsm: str = "nsm-b",
                  blackout_base_sec: float = 50e-6,
                  blackout_per_conn_sec: float = 1e-6,
                  op_timeout: Optional[float] = None) -> dict:
    """One seeded migration run; returns counters, record, fingerprint.

    ``plan`` / ``plan_name`` optionally overlap the migration with an
    armed fault plan (faults land in the [0.3, 0.5]×duration window, so
    the default ``migrate_at=0.04`` at duration 0.12 sits inside it).
    With a plan armed the client gets per-op deadlines and failover, so
    streams survive even when the migration aborts.  Traffic stops at
    0.8×duration so every in-flight element drains before the
    resource-balance checks.
    """
    pool_outstanding_before = NQE_POOL.outstanding

    if plan is None and plan_name is not None:
        plan = named_plan(plan_name, duration, seed=seed,
                          primary="nsm-a", vm="client")
    if plan is not None and op_timeout is None:
        op_timeout = 20e-3

    sim, host, server_vm = echo_host()
    client_vm = host.add_vm("client", vcpus=1, nsm=host.nsms["nsm-a"],
                            op_timeout=op_timeout,
                            max_op_retries=3 if op_timeout else 0)

    injector = None
    if plan is not None:
        host.enable_failover(heartbeat_interval=2e-3,
                             detection_timeout=10e-3)
        injector = FaultInjector(sim, host, plan).arm()

    counters = dict.fromkeys((
        "connects", "echoes_ok", "bytes_sent", "bytes_echoed", "mismatches",
        "resets", "timeouts", "other_errors", "closed_clean"), 0)
    stop = {"flag": False}
    migration = {"record": None, "error": None}

    client_api = host.socket_api(client_vm)
    server_vm.spawn(echo_server(host.socket_api(server_vm), server_vm))
    for index in range(streams):
        client_vm.spawn(_stream(sim, client_api, index, seed, payload_bytes,
                                pacing, counters, stop))

    def _migrate():
        try:
            record = yield from host.migrate_vm(
                client_vm, host.nsms[target_nsm],
                blackout_base_sec=blackout_base_sec,
                blackout_per_conn_sec=blackout_per_conn_sec)
            migration["record"] = record
        except ConfigurationError as error:
            migration["error"] = str(error)

    sim.call_at(migrate_at, lambda: sim.process(_migrate()))

    sim.call_at(0.8 * duration, lambda: stop.update(flag=True))
    if plan is not None:
        sim.call_at(0.9 * duration, host.coreengine.disable_health_monitor)
    sim.run(until=duration)

    ce = host.coreengine
    record = migration["record"]
    record_public = None
    if record is not None:
        record_public = {k: v for k, v in record.items() if k != "tcbs"}
        record_public["tcb_states"] = sorted(
            tcb["state"] for tcb in record["tcbs"])
    timeline = host_timeline(sim, host, ("nqes_sent", "nqes_received",
                                         "op_timeouts", "op_retries"))
    timeline.update(
        client=dict(counters),
        migration={"record": record_public, "error": migration["error"]},
        faults=injector.stats() if injector is not None else None)

    return {
        "seed": seed,
        "streams": streams,
        "duration": duration,
        "migrate_at": migrate_at,
        "payload_bytes": payload_bytes,
        "plan": plan.describe() if plan is not None else None,
        "op_timeout": op_timeout,
        "counters": counters,
        "migration": record_public,
        "migration_error": migration["error"],
        "ce": timeline["ce"],
        "faults": injector.stats() if injector is not None else None,
        "table_size": len(ce.table),
        "client_table_entries": len(ce.table.entries_for_vm(
            client_vm.vm_id)),
        "leaks": census(host, pool_outstanding_before).leaks(),
        "switch_fingerprint": switch_fingerprint(timeline),
    }
