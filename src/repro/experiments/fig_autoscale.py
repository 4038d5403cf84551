"""Autoscaling experiment: NSM fleet elasticity on the AG-trace signal.

Not a paper figure — it closes the loop the paper's §7.3 multiplexing
results imply: if one NSM can serve many VMs, then the NSM population
should track offered load, not peak provisioning.  An
:class:`~repro.core.autoscaler.NsmAutoscaler` watches the per-minute
aggregate of a generated AG fleet (Fig. 7's model) and spawns/retires
NSMs, draining VMs with live migration before every retirement.

Two scenarios run on a sharded CoreEngine: a clean run, and a chaos run
where the busiest autoscaler-spawned NSM is crashed mid-rebalance and
recovery rides the PR 3 quarantine/failover path.  Both must end with

* zero VMs assigned to an inactive NSM (checked at every job boundary),
* zero leaked TCP migration-forwarding entries once traffic stops
  (counting the engines of retired NSMs too), and
* the NQE pool back in balance (outstanding delta zero).

The echo workload keeps real connections alive across every migration,
so the drain path is exercised with state to move, not empty tables.
"""

from __future__ import annotations

from repro.core.autoscaler import AutoscalePolicy, assignment_violations
from repro.core.host import NetKernelHost
from repro.core.nqe import NQE_POOL
from repro.experiments.report import ExperimentResult
from repro.net.fabric import Network
from repro.scenario import SCENARIOS, census
from repro.sim.engine import Simulator
from repro.trace import ag_trace

#: One autoscaler tick of simulated time stands in for one trace minute
#: (compressed so the experiment runs in milliseconds of sim time).
TICK_SEC = 0.01


def run_autoscale_scenario(seed: int = 0, ticks: int = 14,
                           n_clients: int = 6, n_ags: int = 24,
                           ce_shards: int = 2, chaos: bool = False,
                           max_nsms: int = 4) -> dict:
    """One autoscaling run; returns counters + invariant checks."""
    sim = Simulator()
    host = NetKernelHost(sim, Network(sim), ce_shards=ce_shards)
    nsm0 = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    host.enable_failover(heartbeat_interval=1e-3, detection_timeout=5e-3)

    # The load signal: per-minute aggregate of an AG fleet (Fig. 7
    # model), one trace minute per TICK_SEC of simulated time.
    signal = ag_trace.aggregate(
        ag_trace.generate_fleet(n_ags, minutes=ticks, seed=seed + 1))
    auto = host.enable_autoscaler(
        signal, interval_sec=TICK_SEC,
        policy=AutoscalePolicy(nsm_capacity=30.0, headroom=1.2,
                               min_nsms=1, max_nsms=max_nsms),
        provision_delay_sec=1e-3)

    server = host.add_vm("server", nsm=nsm0)
    clients = [host.add_vm(f"c{i}") for i in range(n_clients)]
    stop = {"flag": False}
    stats = {"rtts": 0, "echoed": 0, "client_errors": 0,
             "server_errors": 0, "listener_closed": 0}
    open_socks = []  # (api, sock) pairs a sweeper can close at shutdown

    def server_app(api):
        lsock = yield from api.socket()
        yield from api.bind(lsock, 80)
        yield from api.listen(lsock)
        while not stop["flag"]:
            conn = api.accept_nonblocking(lsock)
            if conn is None:
                yield sim.timeout(1e-4)
                continue
            sim.process(echo(api, conn))
        yield from api.close(lsock)
        stats["listener_closed"] += 1

    def echo(api, conn):
        try:
            data = yield from api.recv(conn, 64)
            yield from api.send(conn, b"R" * len(data))
            yield from api.close(conn)
            stats["echoed"] += 1
        except Exception:
            stats["server_errors"] += 1

    def client_app(api, idx):
        yield sim.timeout(1e-4 * (idx + 1))
        while not stop["flag"]:
            entry = None
            try:
                sock = yield from api.socket()
                entry = (api, sock)
                open_socks.append(entry)
                yield from api.connect(sock, ("nsm0", 80))
                yield from api.send(sock, b"Q" * 32)
                yield from api.recv(sock, 64)
                yield from api.close(sock)
                stats["rtts"] += 1
            except Exception:
                # Crash fallout (ECONNRESET / refused): count and retry.
                stats["client_errors"] += 1
            finally:
                if entry is not None and entry in open_socks:
                    open_socks.remove(entry)
            yield sim.timeout(2e-3)

    server.spawn(server_app(host.socket_api(server)))
    for index, client in enumerate(clients):
        client.spawn(client_app(host.socket_api(client), index))

    duration = ticks * TICK_SEC
    if chaos:
        def crash_busiest():
            managed = sorted(auto.managed.items())
            if not managed:
                return
            loads = host.coreengine.table.nsm_loads()
            _name, victim = max(
                managed, key=lambda item: loads.get(item[1].nsm_id, 0))
            victim.servicelib.crash()
        # Mid-run, while the fleet is scaled up and rebalancing.
        sim.call_at(0.4 * duration, crash_busiest)

    sim.call_at(duration, lambda: stop.update(flag=True))

    def sweep_stragglers():
        # A real client would run with a read timeout; model that by
        # aborting whatever the shutdown left blocked in recv (e.g.
        # conns whose server half died silently in the chaos crash).
        for api, sock in list(open_socks):
            sim.process(api.close(sock))
    sim.call_at(duration + 0.02, sweep_stragglers)
    sim.call_at(duration + 0.04, auto.stop)

    pool_before = NQE_POOL.outstanding
    sim.run(until=duration + 0.08)

    report = auto.report()
    found = census(host, pool_before, auto.retired_stacks)
    return {
        "workload": stats,
        "autoscaler": report,
        "violations": report["violations"] + [
            f"end-state: VM {vm} on inactive NSM {nsm}"
            for vm, nsm in assignment_violations(host)] + [
            f"end-state: {problem}"
            for problem in found.hugepages + found.imbalances],
        "forward_leaks": found.forward_leaks,
        "forward_entries": found.forward_entries,
        "table_entries": len(host.coreengine.table),
        "pool_delta": found.pool_delta,
        "handoffs": host.coreengine.handoffs_in,
        # Fleet size at the end of the run (static floor + net spawns).
        "peak_nsms": (1 + report["counters"]["spawned"]
                      - report["counters"]["retired"]),
        # End-state shard occupancy (shard-aware spawn should leave the
        # surviving fleet spread one-NSM-per-shard before doubling up).
        "shard_loads": report["shard_loads"],
    }


def run(seed: int = 0, ticks: int = 14, ce_shards: int = 2,
        n_clients: int = 6, n_ags: int = 24,
        max_nsms: int = 4) -> ExperimentResult:
    """Clean + chaos autoscaling runs; fails on any invariant breach."""
    rows, problems = [], []
    for label, chaos in (("clean", False), ("nsm-crash", True)):
        result, broken = SCENARIOS["autoscale"].run_checked(
            label, seed=seed, ticks=ticks, ce_shards=ce_shards, chaos=chaos,
            n_clients=n_clients, n_ags=n_ags, max_nsms=max_nsms)
        problems.extend(broken)
        counters = result["autoscaler"]["counters"]
        if counters["migrations"] == 0:
            problems.append(f"{label}: autoscaler never migrated a VM")
        shard_loads = result["shard_loads"]
        rows.append([
            label, result["workload"]["rtts"],
            result["workload"]["client_errors"], counters["spawned"],
            counters["retired"], counters["migrations"],
            counters["migration_failures"], result["forward_leaks"],
            result["forward_entries"], len(result["violations"]),
            result["pool_delta"],
            sum(1 for row in shard_loads.values() if row["nsms"])])
    notes = ("NSM fleet tracked the AG aggregate up and back down; every "
             "retirement drained through live migration; chaos crash "
             "recovered via quarantine + reap with all invariants intact"
             if not problems else "; ".join(problems))
    return ExperimentResult(
        "fig-autoscale",
        "NSM autoscaling on the AG-trace load signal (clean + chaos)",
        ["scenario", "rtts", "client_errors", "spawned", "retired",
         "migrations", "migration_failures", "leaked_forwards",
         "live_forward_entries", "violations", "pool_delta",
         "nsm_shards"],
        rows, notes=notes)
