"""Seeded scenarios and the resource census: one loop, one balance check.

The four seeded scenarios behind §8's failover and migration claims —
``chaos``, ``migrate``, ``capacity`` and ``autoscale`` — live in the
:data:`SCENARIOS` registry.  Each :class:`Scenario` declares its job
parameters and CLI flags once and supplies ``run`` (params → job
payload), ``fingerprint``, ``contract_failures`` and ``summary`` lines;
the CLI verbs, ``repro.ctrl`` and the ``fig-*`` experiments are generic
over it.

:func:`census` is the one resource-balance check, run by every scenario
once its traffic has drained: NQE-pool delta, hugepage regions, TCP
migration forwards, and connection table ↔ ServiceLib contexts ↔
GuestLib fds.  Quarantine never touches a dead NSM's state, so contexts
left on one are counted as :attr:`Census.fenced`, not failed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.nqe import NQE_POOL
from repro.faults.plan import PLAN_NAMES


def switch_fingerprint(payload) -> str:
    """SHA-256 over a JSON-canonicalized counter dict."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the census ----------------------------------------------------------------


def forward_counts(host, extra_stacks=()) -> Tuple[int, int]:
    """(entries, dangling) TCP migration forwards across the engines of
    the host's NSMs and ``extra_stacks`` (retired NSMs).  An entry is
    routing state while its connection or listener lives; a dangling one
    names an engine that no longer owns the key, so nothing reclaims it."""
    entries = dangling = 0
    for stack in [nsm.stack for nsm in host.nsms.values()] + list(
            extra_stacks):
        engine = getattr(stack, "engine", None)
        if engine is None:
            continue
        entries += len(engine._forwards) + len(engine._port_forwards)
        dangling += sum(key not in target._conns
                        for key, target in engine._forwards.items())
        dangling += sum(port not in target._listeners
                        for port, target in engine._port_forwards.items())
    return entries, dangling


class Census:
    """What :func:`census` found; :meth:`leaks` turns it into failures.
    ``hugepages`` and ``imbalances`` hold one message per finding;
    ``fenced`` counts contexts left on quarantined NSMs."""

    def __init__(self, pool_delta: int):
        self.pool_delta = pool_delta
        self.hugepages: List[str] = []
        self.imbalances: List[str] = []
        self.forward_leaks = self.forward_entries = self.fenced = 0

    def leaks(self, clean_shutdown: bool = False) -> List[str]:
        """Every failed check as a message; empty when balanced.  Live
        forward entries only count after ``clean_shutdown`` (a run that
        closed every connection and listener)."""
        messages = self.hugepages + self.imbalances
        if self.forward_leaks:
            messages.append(f"{self.forward_leaks} dangling TCP "
                            "forwarding entries")
        if clean_shutdown and self.forward_entries:
            messages.append(f"{self.forward_entries} TCP forwarding "
                            "entries after a clean shutdown")
        if self.pool_delta:
            messages.append(
                f"NQE pool outstanding delta {self.pool_delta:+d}")
        return messages


def census(host, pool_baseline: int, extra_stacks=()) -> Census:
    """Check a quiescent host's resource balance.

    ``host`` is a NetKernelHost, or a bare ShardedCoreEngine (hugepage
    and pool checks only); ``pool_baseline`` is ``NQE_POOL.outstanding`` from
    before it was built; ``extra_stacks`` are retired NSMs' stacks.  Every
    VM region CoreEngine ever registered is checked, removed VMs' too."""
    found = Census(NQE_POOL.outstanding - pool_baseline)
    ce = getattr(host, "coreengine", host)
    names = {vm.vm_id: name for name, vm in getattr(host, "vms", {}).items()}
    for vm_id, region in sorted(ce._vm_regions.items()):
        if region.live_buffers or region.allocated:
            found.hugepages.append(
                f"{names.get(vm_id, f'vm {vm_id}')}: "
                f"{region.live_buffers} live hugepage buffer(s), "
                f"{region.allocated} B still allocated")
    if ce is host:
        return found
    found.forward_entries, found.forward_leaks = forward_counts(
        host, extra_stacks)
    _check_connections(host, found)
    return found


def _check_connections(host, found: Census) -> None:
    """Table entry ↔ ServiceLib context ↔ GuestLib fd, one-to-one on
    every active NSM; contexts on an NSM CoreEngine no longer serves are
    fenced.  A reset fd may outlive its entry until the application
    closes it, so fds are checked from the NSM side."""
    ce = host.coreengine
    table = ce.table
    problems = found.imbalances
    guests = {vm.vm_id: vm.guestlib for vm in host.vms.values()}
    checked = 0
    for name, nsm in sorted(host.nsms.items()):
        lib = nsm.servicelib
        if not ce.nsm_active(nsm.nsm_id):
            found.fenced += len(lib._by_nsm_id)
            continue
        entries = table.entries_for_nsm(nsm.nsm_id)
        checked += len(entries)
        for entry in entries:
            ctx = lib._by_nsm_id.get(entry.nsm_socket_id)
            if ctx is None or ctx.vm_tuple != entry.vm_tuple:
                problems.append(f"{name}: table entry {entry.vm_tuple} "
                                "has no context")
        for ctx in lib._by_nsm_id.values():
            where = f"{name}: context {ctx.nsm_sock_id}"
            vm_tuple = ctx.vm_tuple
            if vm_tuple is None or lib._by_vm_tuple.get(vm_tuple) is not ctx:
                problems.append(f"{where} has no guest socket")
                continue
            entry = table.lookup_vm(vm_tuple)
            if entry is None or entry.nsm_id != nsm.nsm_id:
                problems.append(f"{where} has no table entry for "
                                f"{vm_tuple}")
            guest = guests.get(vm_tuple[0])
            sock = guest._by_sock_id.get(vm_tuple[2]) if guest else None
            if sock is None or guest.fd_table.get(sock.fd) is not sock:
                problems.append(f"{where} has no guest fd for {vm_tuple}")
    if len(table) != checked:
        problems.append(f"{len(table) - checked} table entries name no "
                        "active NSM")


# -- the scenario registry -----------------------------------------------------


def _fields(values: dict, *keys: str) -> str:
    return " ".join(f"{key}={values[key]}" for key in keys)


class Flag(NamedTuple):
    """A scenario verb's CLI flag for job parameter ``dest``.  Its
    default is the runner's (a bool default makes a switch); a None
    value stays out of the job's params."""
    name: str
    dest: str
    help: str
    type: Optional[Callable] = None
    choices: Optional[Callable[[], Any]] = None


class Failure(NamedTuple):
    """One broken contract: an ``EXIT_CODES`` row plus its message."""
    code: str
    title: str
    detail: str

    def message(self, run: Optional[int] = None) -> str:
        label = "" if run is None else f" (run {run})"
        return f"{self.title}{label}: {self.detail}"


class Scenario:
    """One seeded scenario kind; subclasses fill in the blanks."""

    kind = help = runner_path = divergence = verified = ""
    #: Every job parameter the runner accepts (``KIND_PARAMS``).
    params: Tuple[str, ...] = ()
    flags: Tuple[Flag, ...] = ()
    #: ``--verify`` help, or None when the verb has no replay check.
    verify_help: Optional[str] = None

    def runner(self) -> Callable[..., dict]:
        """The ``module:function`` named by ``runner_path``."""
        module, name = self.runner_path.split(":")
        return getattr(importlib.import_module(module), name)

    def run(self, params: Dict[str, Any], fleet_probe=None) -> dict:
        """Run once; the job payload every entry point stores."""
        return {"kind": self.kind, "params": params,
                "result": self.runner()(**params)}

    def run_checked(self, label: str, **params) -> Tuple[dict, List[str]]:
        """Run once for an experiment: the result, plus each broken
        contract as a ``"label: message"`` line."""
        payload = self.run(params)
        return payload["result"], [f"{label}: {failure.message()}" for
                                   failure in self.contract_failures(payload)]

    def fingerprint(self, payload: dict) -> str:
        return payload["result"]["switch_fingerprint"]

    def contract_failures(self, payload: dict) -> List[Failure]:
        return [Failure("leak", "RESOURCE LEAK", leak)
                for leak in payload["result"]["leaks"]]

    def summary(self, payload: dict) -> List[str]:
        raise NotImplementedError


class ChaosScenario(Scenario):
    kind = "chaos"
    help = "run a seeded fault-injection workload"
    runner_path = "repro.faults.chaos:run_chaos"
    params = ("seed", "plan_name", "duration", "detection_timeout",
              "heartbeat_interval", "op_timeout")
    flags = (
        Flag("--seed", "seed", "fault-plan RNG seed", int),
        Flag("--plan", "plan_name", "named fault plan",
             choices=lambda: PLAN_NAMES),
        Flag("--duration", "duration", "simulated seconds", float),
        Flag("--detection-timeout", "detection_timeout",
             "NSM failure-detection timeout in seconds", float),
        Flag("--heartbeat-interval", "heartbeat_interval",
             "heartbeat probe period in seconds", float))
    verify_help = "run twice; fail unless bit-identical and leak-free"
    divergence = "TIMELINE DIVERGENCE: same seed+plan"
    verified = "verify OK: 2 runs bit-identical, no leaks"

    def run(self, params, fleet_probe=None):
        # The control plane's GET /fleet samples a chaos run mid-flight.
        return {"kind": self.kind, "params": params,
                "result": self.runner()(fleet_probe=fleet_probe, **params)}

    def summary(self, payload):
        result = payload["result"]
        recovery = result["recovery_sec"]
        return [
            f"plan={result['plan']['name']} seed={result['seed']} "
            f"duration={result['duration']}s "
            f"detect={result['detection_timeout'] * 1e3:g}ms",
            "  " + _fields(result["counters"], "requests_ok", "connects",
                           "resets", "timeouts"),
            f"  faults={result['faults']}",
            f"  quarantined={result['quarantined']} recovery="
            f"{'n/a' if recovery is None else f'{recovery * 1e3:.2f}ms'}",
            f"  fingerprint={result['switch_fingerprint'][:16]}…"]


class MigrateScenario(Scenario):
    kind = "migrate"
    help = "run a seeded live-migration workload"
    runner_path = "repro.faults.migration:run_migration"
    params = ("seed", "streams", "duration", "migrate_at", "payload_bytes",
              "pacing", "target_nsm", "blackout_base_sec")
    flags = (
        Flag("--seed", "seed", "payload-pattern seed", int),
        Flag("--streams", "streams", "concurrent echo streams", int),
        Flag("--duration", "duration", "simulated seconds", float))
    verify_help = ("run twice; fail unless bit-identical, zero-reset, "
                   "and leak-free")
    divergence = "TIMELINE DIVERGENCE: same seed+streams"
    verified = "verify OK: 2 runs bit-identical, zero-reset, no leaks"

    def contract_failures(self, payload):
        result = payload["result"]
        counters = result["counters"]
        failures = super().contract_failures(payload)
        if result["migration"] is None:
            failures.append(Failure("failure", "MIGRATION FAILED",
                                    str(result["migration_error"])))
        if (counters["resets"] or counters["timeouts"]
                or counters["mismatches"]):
            failures.append(Failure(
                "disruption", "GUEST-VISIBLE DISRUPTION",
                _fields(counters, "resets", "timeouts", "mismatches")))
        return failures

    def summary(self, payload):
        result = payload["result"]
        record = result["migration"]
        if record is None:
            moved = f"  migration FAILED: {result['migration_error']}"
        else:
            moved = (f"  migrated {record['sockets_moved']} socket(s) "
                     f"nsm{record['source_nsm']}→nsm{record['target_nsm']} "
                     f"blackout={record['blackout_sec'] * 1e6:.1f}us "
                     f"parked_ops={record['parked_ops']}")
        return [
            f"seed={result['seed']} streams={result['streams']} "
            f"duration={result['duration']}s",
            "  " + _fields(result["counters"], "echoes_ok", "connects",
                           "mismatches", "resets", "timeouts"),
            moved,
            f"  fingerprint={result['switch_fingerprint'][:16]}…"]


class CapacityScenario(Scenario):
    kind = "capacity"
    help = "binary-search the NDR/PDR capacity envelope"
    runner_path = "repro.perf.capacity:run_capacity"
    params = ("seed", "scenario", "window", "n_vms", "rate_lo", "rate_hi",
              "iterations", "ndr_loss", "pdr_loss")
    flags = (
        Flag("--seed", "seed", "workload RNG seed", int),
        Flag("--scenario", "scenario", "offered-load scenario",
             choices=lambda: sorted(importlib.import_module(
                 "repro.perf.capacity").SCENARIOS)),
        Flag("--window", "window", "measurement window in simulated "
             "seconds (default per scenario)", float),
        Flag("--vms", "n_vms", "competing VMs", int),
        Flag("--iterations", "iterations", "bisection steps per threshold",
             int))
    verify_help = ("run the search twice; fail unless bit-identical and "
                   "leak-free")
    divergence = "SEARCH DIVERGENCE: same seed+scenario"
    verified = "verify OK: 2 searches bit-identical, no leaks"

    def fingerprint(self, payload):
        return payload["result"]["fingerprint"]

    def contract_failures(self, payload):
        failures = super().contract_failures(payload)
        graceful = payload["result"]["graceful"]
        if graceful is not None and not graceful["pass"]:
            failures.append(Failure(
                "invariant", "GRACELESS DEGRADATION at 2xNDR",
                f"goodput ratio {graceful['goodput_ratio']} "
                f"(need >= 0.8), jain {graceful['jain_fairness']} "
                f"(need >= 0.9), hung ops {graceful['hung_ops']} "
                "(need 0)"))
        return failures

    def summary(self, payload):
        result = payload["result"]
        lines = [f"scenario={result['scenario']} seed={result['seed']} "
                 f"window={result['window']}s n_vms={result['n_vms']} "
                 f"steps={len(result['steps'])}"]
        for label in ("ndr", "pdr"):
            point = result[label]
            lines.append(
                f"  {label.upper()}: none within bounds "
                f"[{result['rate_lo']:g}, {result['rate_hi']:g}]"
                if point is None else
                f"  {label.upper()}: {point['rate']:g} ops/s "
                f"(goodput {point['goodput']:g}, loss {point['loss']:.4f}, "
                f"p50 {point['p50_us']:g}us, p99 {point['p99_us']:g}us)")
        graceful = result["graceful"]
        if graceful is not None:
            lines.append(
                f"  2xNDR: goodput ratio {graceful['goodput_ratio']:g}, "
                f"jain {graceful['jain_fairness']:g}, hung "
                f"{graceful['hung_ops']} -> "
                f"{'pass' if graceful['pass'] else 'FAIL'}")
        return lines + [f"  fingerprint={result['fingerprint'][:16]}…"]


class AutoscaleScenario(Scenario):
    kind = "autoscale"
    help = "run the NSM autoscaling workload"
    runner_path = "repro.experiments.fig_autoscale:run_autoscale_scenario"
    params = ("seed", "ticks", "n_clients", "n_ags", "ce_shards", "chaos",
              "max_nsms")
    flags = (
        Flag("--seed", "seed", "AG-trace seed", int),
        Flag("--ticks", "ticks", "autoscaler ticks / trace minutes", int),
        Flag("--shards", "ce_shards", "CoreEngine shards", int),
        Flag("--chaos", "chaos",
             "crash the busiest managed NSM mid-rebalance"))
    verified = ("autoscale OK: no leaks, pool balanced, no inactive "
                "assignments")

    def fingerprint(self, payload):
        return switch_fingerprint(payload["result"])

    def contract_failures(self, payload):
        result = payload["result"]
        failures = [Failure("invariant", "ASSIGNMENT VIOLATION", violation)
                    for violation in result["violations"]]
        if result["forward_leaks"]:
            failures.append(Failure(
                "leak", "FORWARD LEAK",
                f"{result['forward_leaks']} dangling forwarding entries"))
        if result["pool_delta"]:
            failures.append(Failure(
                "leak", "POOL IMBALANCE",
                f"NQE pool outstanding delta {result['pool_delta']}"))
        # A chaos run may leave FIN_WAIT connections retransmitting
        # toward the dead NSM until TCP gives up: routing state, not a
        # leak.  A clean run closes everything.
        if not payload["params"].get("chaos") and result["forward_entries"]:
            failures.append(Failure(
                "leak", "FORWARD ENTRIES after clean shutdown",
                str(result["forward_entries"])))
        return failures

    def summary(self, payload):
        params = payload["params"]
        result = payload["result"]
        return [
            f"seed={params['seed']} ticks={params['ticks']} "
            f"shards={params['ce_shards']} chaos={params['chaos']}",
            "  " + _fields(result["workload"], "rtts", "client_errors")
            + f" handoffs={result['handoffs']}",
            "  " + _fields(result["autoscaler"]["counters"], "spawned",
                           "retired", "migrations", "migration_failures"),
            f"  leaked_forwards={result['forward_leaks']} "
            f"live_forward_entries={result['forward_entries']} "
            f"pool_delta={result['pool_delta']}"]


#: Every scenario kind, by job kind and CLI verb.
SCENARIOS: Dict[str, Scenario] = {
    scenario.kind: scenario
    for scenario in (ChaosScenario(), MigrateScenario(), AutoscaleScenario(),
                     CapacityScenario())
}
