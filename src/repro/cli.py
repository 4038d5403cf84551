"""Command-line interface: ``python -m repro <command>``.

Every subcommand supports ``--json``, emitting one result envelope —
``{"ok": bool, "kind": ..., "data": ..., "error": ...}`` — and draws
its process exit code from the single ``repro.errors.EXIT_CODES``
table.  Run-producing subcommands are thin adapters over the
control-plane executor (``repro.ctrl``): they build a JobSpec and run
it through exactly the code path ``repro serve`` uses.

Commands
--------
list
    Show every reproducible paper artifact with its title.
run <ids...>
    Regenerate the given tables/figures (or ``all``); ``--quick``
    shrinks the packet-level experiments.
calibration
    Dump the calibrated cost model constants.
stats
    Run a quickstart-style workload with the repro.obs layer enabled
    and print per-stage NQE latency, ring occupancy, token buckets.
bench
    Run the wall-clock perf harness (``repro.perf``).  ``--out`` writes
    BENCH_<name>.json files; ``--floors`` fails on >2x regressions.
chaos
    Run the seeded fault-injection workload (``repro.faults``);
    ``--verify`` replays the plan and fails unless bit-identical and
    leak-free (the chaos-smoke CI check).
migrate
    Run the seeded live-migration workload; ``--verify`` fails unless
    bit-identical, leak-free, and zero-reset (migration-smoke CI).
autoscale
    Run the NSM autoscaling workload on a sharded CoreEngine; fails on
    any leaked forward, pool imbalance, or VM-on-inactive-NSM
    assignment (autoscale-smoke CI).
job submit|status|list|result
    The control plane as a CLI: submit runs a JobSpec through the
    serialized worker against the JSON RunStore (``--store``, default
    ./runs) — queued jobs recovered from a killed worker run first.
serve
    Boot the REST control plane (``POST /jobs``, ``GET /jobs/<id>``,
    ``GET /fleet``) over the same store and worker.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import List, Optional

from repro.ctrl.envelope import Envelope
from repro.ctrl.executor import execute_job
from repro.ctrl.jobs import JobSpec, KIND_PARAMS
from repro.ctrl.store import DEFAULT_STORE, RunStore
from repro.ctrl.worker import JobWorker
from repro.errors import (ControlPlaneError, JobValidationError,
                          UnknownJobError)
from repro.experiments import ExperimentResult
from repro.experiments.registry import REGISTRY, canonical_id

QUICK_KWARGS = {
    "fig9": {"duration": 0.6},
    "fig21": {"scale": 0.02, "time_factor": 0.1},
    "table5": {"requests": 400, "concurrency": 80},
}


def _finish(env: Envelope, as_json: bool) -> int:
    """Emit the envelope (JSON mode) or its failures (human mode) and
    return the table-derived exit code."""
    if as_json:
        print(env.to_json())
    else:
        for failure in env.failures:
            print(failure["message"], file=sys.stderr)
    return env.exit_code


def _sort_key(exp_id: str):
    digits = "".join(ch for ch in exp_id if ch.isdigit())
    if exp_id.startswith("fig") and digits:
        kind = 0
    elif exp_id.startswith("table") and digits:
        kind = 1
    else:
        return (2, 0, exp_id)
    return (kind, int(digits), "")


def _cmd_list(as_json: bool) -> int:
    env = Envelope("list", {
        "experiments": {
            exp_id: {"title": entry.title, "params": list(entry.params)}
            for exp_id, entry in sorted(REGISTRY.items())
        },
    })
    if not as_json:
        for exp_id in sorted(REGISTRY, key=_sort_key):
            print(f"  {exp_id:<8} {REGISTRY[exp_id].title}")
    return _finish(env, as_json)


def _cmd_run(ids: List[str], quick: bool, as_json: bool) -> int:
    env = Envelope("run", {"results": []})
    if ids == ["all"]:
        ids = sorted(REGISTRY, key=_sort_key)
    unknown = [i for i in ids if canonical_id(i) not in REGISTRY]
    if unknown:
        env.fail("usage", f"unknown experiments: {unknown}")
        return _finish(env, as_json)
    for exp_id in ids:
        exp_id = canonical_id(exp_id)
        kwargs = QUICK_KWARGS.get(exp_id, {}) if quick else {}
        started = time.time()
        payload = execute_job(JobSpec("experiment", experiment=exp_id,
                                      params=kwargs))
        env.data["results"].append(payload)
        if not as_json:
            result = ExperimentResult.from_dict(payload["result"])
            print(result.table_str())
            print(f"({time.time() - started:.1f}s wall)\n")
    return _finish(env, as_json)


def _stats_workload(transfer_bytes: int):
    """The quickstart topology with observability on: one kernel-stack
    NSM serving a rate-capped client VM talking to a server VM."""
    from repro import NetKernelHost, Network, Simulator
    from repro.units import gbps, mbps, usec

    sim = Simulator()
    network = Network(sim, default_rate_bps=gbps(100),
                      default_delay_sec=usec(25))
    host = NetKernelHost(sim, network)
    obs = host.enable_observability(sample_interval=100e-6)

    nsm = host.add_nsm("nsm0", vcpus=1, stack="kernel")
    vm_server = host.add_vm("vm-server", vcpus=1, nsm=nsm)
    vm_client = host.add_vm("vm-client", vcpus=1, nsm=nsm)
    # Exercise both bucket kinds so the report shows isolation state.
    host.coreengine.set_bandwidth_limit(vm_client.vm_id, mbps(500))
    host.coreengine.set_ops_limit(vm_client.vm_id, 200_000)
    api_server = host.socket_api(vm_server)
    api_client = host.socket_api(vm_client)
    payload = b"x" * transfer_bytes
    done = {}

    def server():
        listener = yield from api_server.socket()
        yield from api_server.bind(listener, 80)
        yield from api_server.listen(listener, backlog=64)
        conn = yield from api_server.accept(listener)
        received = 0
        while received < transfer_bytes:
            data = yield from api_server.recv(conn, 1 << 16)
            if not data:
                break
            received += len(data)
        yield from api_server.send(conn, b"OK")
        yield from api_server.close(conn)
        done["server_bytes"] = received

    def client():
        yield sim.timeout(0.001)  # let the server bind first
        sock = yield from api_client.socket()
        yield from api_client.connect(sock, ("nsm0", 80))
        yield from api_client.send(sock, payload)
        reply = yield from api_client.recv(sock, 4096)
        yield from api_client.close(sock)
        done["reply"] = reply

    vm_server.spawn(server())
    vm_client.spawn(client())
    sim.run(until=2.0)
    return obs, done


def _cmd_stats(as_json: bool, transfer_bytes: int) -> int:
    obs, done = _stats_workload(transfer_bytes)
    report = obs.report()
    env = Envelope("stats", report)
    if as_json:
        return _finish(env, as_json)
    from repro.experiments.report import obs_ops_table, obs_stage_table

    print(obs_stage_table(report).table_str())
    print()
    print(obs_ops_table(report).table_str())
    print("\nToken buckets (per VM):")
    for vm, buckets in sorted(report["token_buckets"].items()):
        for kind, state in sorted(buckets.items()):
            print(f"  vm={vm} {kind:<3} rate={state['rate']:.3g}/s "
                  f"burst={state['burst']:.3g} tokens={state['tokens']:.3g}")
    print("\nRing peak occupancy (non-empty):")
    for ring, fields in sorted(report["rings"].items()):
        if fields.get("peak_depth"):
            print(f"  {ring:<40} peak={fields['peak_depth']:.0f} "
                  f"now={fields['depth']:.0f}")
    ce = report["coreengine"]
    print(f"\nCoreEngine: {ce['nqes_switched']} NQEs in {ce['batches']} "
          f"batches (avg {ce['avg_batch']:.2f}), "
          f"{ce['rate_limited_stalls']} rate-limit stalls, "
          f"{ce['nqes_dropped']} drops; "
          f"transferred {done.get('server_bytes', 0)} B")
    print(f"Scheduler: mode={ce['sched.mode']} "
          f"passes={ce['sched.passes']} "
          f"stale_wakeups={ce['sched.stale_wakeups']} "
          "(stall timeouts disarmed after a doorbell won the race)")
    return _finish(env, as_json)


def _cmd_bench(names: List[str], quick: bool, out_dir: str,
               floors_path: str, as_json: bool, profile_top: int = 0) -> int:
    from repro.perf import check_floors, write_results

    env = Envelope("bench")
    try:
        payload = execute_job(JobSpec("bench", params={
            "names": names or None, "quick": quick,
            "profile_top": profile_top}))
    except KeyError as error:
        env.fail("usage", error.args[0])
        return _finish(env, as_json)
    results = payload["results"]
    env.data = {"results": results, "written": [], "floor_failures": []}
    if not as_json:
        for name, result in results.items():
            line = (f"  {name:<16} wall={result['wall_s']:.3f}s "
                    f"events={result['events']} "
                    f"peak_rss={result['peak_rss']}KiB")
            if not result.get("peak_rss_exact", True):
                line += " (lifetime peak)"
            if "speedup_vs_full" in result:
                line += f" speedup={result['speedup_vs_full']:.2f}x"
            if "speedup_vs_scalar" in result:
                line += f" vec={result['speedup_vs_scalar']:.2f}x"
            if "fingerprint_match" in result:
                line += f" identical={result['fingerprint_match']}"
            print(line)
            if result.get("profile"):
                print(result["profile"])
    if out_dir:
        for path in write_results(results, out_dir):
            env.data["written"].append(path)
            if not as_json:
                print(f"wrote {path}")
    mismatched = [n for n, r in results.items()
                  if r.get("fingerprint_match") is False]
    if mismatched:
        env.fail("divergence",
                 f"TIMELINE DIVERGENCE between scan modes: {mismatched}")
    if floors_path:
        with open(floors_path) as handle:
            floors = json.load(handle)
        failures = check_floors(results, floors)
        env.data["floor_failures"] = failures
        for failure in failures:
            env.fail("floor", f"FLOOR REGRESSION: {failure}")
    return _finish(env, as_json)


def _cmd_chaos(seed: int, plan: str, duration: float,
               detection_timeout: float, heartbeat_interval: float,
               as_json: bool, verify: bool) -> int:
    env = Envelope("chaos")
    spec = JobSpec("chaos", params={
        "seed": seed, "plan_name": plan, "duration": duration,
        "detection_timeout": detection_timeout,
        "heartbeat_interval": heartbeat_interval}, seed=seed)
    runs = 2 if verify else 1
    results = [execute_job(spec)["result"] for _ in range(runs)]
    result = results[0]
    env.data = {"result": result, "verify": verify}
    if not as_json:
        counters = result["counters"]
        recovery = result["recovery_sec"]
        print(f"plan={plan} seed={seed} duration={duration}s "
              f"detect={detection_timeout * 1e3:g}ms")
        print(f"  requests_ok={counters['requests_ok']} "
              f"connects={counters['connects']} "
              f"resets={counters['resets']} "
              f"timeouts={counters['timeouts']}")
        print(f"  faults={result['faults']}")
        print(f"  quarantined={result['quarantined']} "
              f"recovery="
              f"{'n/a' if recovery is None else f'{recovery * 1e3:.2f}ms'}")
        print(f"  fingerprint={result['switch_fingerprint'][:16]}…")
    for index, run in enumerate(results):
        for leak in run["leaks"]:
            env.fail("leak", f"RESOURCE LEAK (run {index + 1}): {leak}")
    if verify:
        fingerprints = {run["switch_fingerprint"] for run in results}
        if len(fingerprints) != 1:
            env.fail("divergence",
                     "TIMELINE DIVERGENCE: same seed+plan produced "
                     f"{len(fingerprints)} distinct fingerprints")
        elif env.ok and not as_json:
            print("verify OK: 2 runs bit-identical, no leaks")
    return _finish(env, as_json)


def _cmd_capacity(scenario: str, seed: int, window: Optional[float],
                  n_vms: int, iterations: int, as_json: bool,
                  verify: bool) -> int:
    env = Envelope("capacity")
    params = {"scenario": scenario, "seed": seed, "n_vms": n_vms,
              "iterations": iterations}
    if window is not None:
        params["window"] = window
    spec = JobSpec("capacity", params=params, seed=seed)
    runs = 2 if verify else 1
    results = [execute_job(spec)["result"] for _ in range(runs)]
    result = results[0]
    env.data = {"result": result, "verify": verify}
    if not as_json:
        print(f"scenario={scenario} seed={seed} "
              f"window={result['window']}s n_vms={n_vms} "
              f"steps={len(result['steps'])}")
        for label in ("ndr", "pdr"):
            point = result[label]
            if point is None:
                print(f"  {label.upper()}: none within bounds "
                      f"[{result['rate_lo']:g}, {result['rate_hi']:g}]")
            else:
                print(f"  {label.upper()}: {point['rate']:g} ops/s "
                      f"(goodput {point['goodput']:g}, "
                      f"loss {point['loss']:.4f}, "
                      f"p50 {point['p50_us']:g}us, "
                      f"p99 {point['p99_us']:g}us)")
        graceful = result["graceful"]
        if graceful is not None:
            verdict = "pass" if graceful["pass"] else "FAIL"
            print(f"  2xNDR: goodput ratio "
                  f"{graceful['goodput_ratio']:g}, jain "
                  f"{graceful['jain_fairness']:g}, hung "
                  f"{graceful['hung_ops']} -> {verdict}")
        print(f"  fingerprint={result['fingerprint'][:16]}…")
    for index, run in enumerate(results):
        for leak in run["leaks"]:
            env.fail("leak", f"RESOURCE LEAK (run {index + 1}): {leak}")
    graceful = result["graceful"]
    if graceful is not None and not graceful["pass"]:
        env.fail("degradation",
                 "GRACELESS DEGRADATION at 2xNDR: "
                 f"goodput ratio {graceful['goodput_ratio']} "
                 f"(need >= 0.8), jain {graceful['jain_fairness']} "
                 f"(need >= 0.9), hung ops {graceful['hung_ops']} "
                 "(need 0)")
    if verify:
        fingerprints = {run["fingerprint"] for run in results}
        if len(fingerprints) != 1:
            env.fail("divergence",
                     "SEARCH DIVERGENCE: same seed+scenario produced "
                     f"{len(fingerprints)} distinct fingerprints")
        elif env.ok and not as_json:
            print("verify OK: 2 searches bit-identical, no leaks")
    return _finish(env, as_json)


def _cmd_migrate(seed: int, streams: int, duration: float,
                 as_json: bool, verify: bool) -> int:
    env = Envelope("migrate")
    spec = JobSpec("migrate", params={
        "seed": seed, "streams": streams, "duration": duration},
        seed=seed)
    runs = 2 if verify else 1
    results = [execute_job(spec)["result"] for _ in range(runs)]
    result = results[0]
    env.data = {"result": result, "verify": verify}
    if not as_json:
        counters = result["counters"]
        record = result["migration"]
        print(f"seed={seed} streams={streams} duration={duration}s")
        print(f"  echoes_ok={counters['echoes_ok']} "
              f"connects={counters['connects']} "
              f"mismatches={counters['mismatches']} "
              f"resets={counters['resets']} "
              f"timeouts={counters['timeouts']}")
        if record is not None:
            print(f"  migrated {record['sockets_moved']} socket(s) "
                  f"nsm{record['source_nsm']}→nsm{record['target_nsm']} "
                  f"blackout={record['blackout_sec'] * 1e6:.1f}us "
                  f"parked_ops={record['parked_ops']}")
        else:
            print(f"  migration FAILED: {result['migration_error']}")
        print(f"  fingerprint={result['switch_fingerprint'][:16]}…")
    for index, run in enumerate(results):
        for leak in run["leaks"]:
            env.fail("leak", f"RESOURCE LEAK (run {index + 1}): {leak}")
        counters = run["counters"]
        if run["migration"] is None:
            env.fail("failure", f"MIGRATION FAILED (run {index + 1}): "
                                f"{run['migration_error']}")
        if counters["resets"] or counters["timeouts"] \
                or counters["mismatches"]:
            env.fail("disruption",
                     f"GUEST-VISIBLE DISRUPTION (run {index + 1}): "
                     f"resets={counters['resets']} "
                     f"timeouts={counters['timeouts']} "
                     f"mismatches={counters['mismatches']}")
    if verify:
        fingerprints = {run["switch_fingerprint"] for run in results}
        if len(fingerprints) != 1:
            env.fail("divergence",
                     "TIMELINE DIVERGENCE: same seed+streams produced "
                     f"{len(fingerprints)} distinct fingerprints")
        elif env.ok and not as_json:
            print("verify OK: 2 runs bit-identical, zero-reset, no leaks")
    return _finish(env, as_json)


def _cmd_autoscale(seed: int, ticks: int, shards: int, chaos: bool,
                   as_json: bool) -> int:
    env = Envelope("autoscale")
    spec = JobSpec("autoscale", params={
        "seed": seed, "ticks": ticks, "ce_shards": shards,
        "chaos": chaos}, seed=seed)
    result = execute_job(spec)["result"]
    env.data = {"result": result}
    if not as_json:
        counters = result["autoscaler"]["counters"]
        workload = result["workload"]
        print(f"seed={seed} ticks={ticks} shards={shards} chaos={chaos}")
        print(f"  rtts={workload['rtts']} "
              f"client_errors={workload['client_errors']} "
              f"handoffs={result['handoffs']}")
        print(f"  spawned={counters['spawned']} "
              f"retired={counters['retired']} "
              f"migrations={counters['migrations']} "
              f"migration_failures={counters['migration_failures']}")
        print(f"  leaked_forwards={result['forward_leaks']} "
              f"live_forward_entries={result['forward_entries']} "
              f"pool_delta={result['pool_delta']}")
    for violation in result["violations"]:
        env.fail("invariant", f"ASSIGNMENT VIOLATION: {violation}")
    if result["forward_leaks"]:
        env.fail("leak", f"FORWARD LEAK: {result['forward_leaks']} "
                         "dangling forwarding entries")
    if result["pool_delta"]:
        env.fail("leak", f"POOL IMBALANCE: NQE pool outstanding delta "
                         f"{result['pool_delta']}")
    if not chaos and result["forward_entries"]:
        env.fail("leak", f"FORWARD ENTRIES after clean shutdown: "
                         f"{result['forward_entries']}")
    if env.ok and not as_json:
        print("autoscale OK: no leaks, pool balanced, "
              "no inactive assignments")
    return _finish(env, as_json)


def _cmd_calibration(as_json: bool) -> int:
    from repro.cpu.cost_model import DEFAULT_COST_MODEL

    constants = {field.name: getattr(DEFAULT_COST_MODEL, field.name)
                 for field in dataclasses.fields(DEFAULT_COST_MODEL)}
    env = Envelope("calibration", constants)
    if not as_json:
        for name, value in constants.items():
            print(f"  {name:<40} {value}")
    return _finish(env, as_json)


# -- control-plane verbs -------------------------------------------------------


def _parse_params(pairs: List[str]) -> dict:
    """``--param key=value`` items; values parse as JSON, then string."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise JobValidationError(
                f"--param wants key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _cmd_job_submit(args) -> int:
    env = Envelope("job-submit")
    try:
        spec = JobSpec(kind=args.kind, experiment=args.id,
                       params=_parse_params(args.param),
                       seed=args.seed, max_retries=args.retries)
        spec.validate()
    except JobValidationError as error:
        env.fail("usage", str(error))
        return _finish(env, args.json)
    worker = JobWorker(RunStore(args.store))
    if args.no_wait:
        job = worker.submit(spec)
    else:
        job = worker.run_to_completion(spec)
    env.data = {"job": job.to_dict()}
    if job.state == "failed":
        env.fail("job-failed",
                 f"job {job.job_id} failed after {job.attempts} "
                 f"attempt(s): {job.error}")
    if not args.json:
        print(f"{job.job_id} {job.spec.kind} state={job.state} "
              f"attempts={job.attempts}")
        if job.state == "done" and job.spec.kind == "experiment":
            payload = worker.store.load_result(job.job_id)
            print(ExperimentResult.from_dict(
                payload["result"]).table_str())
    return _finish(env, args.json)


def _cmd_job_status(args) -> int:
    env = Envelope("job-status")
    try:
        job = RunStore(args.store).load_job(args.job_id)
    except UnknownJobError as error:
        env.fail("usage", str(error))
        return _finish(env, args.json)
    env.data = {"job": job.to_dict()}
    if not args.json:
        print(f"{job.job_id} {job.spec.kind} state={job.state} "
              f"attempts={job.attempts}"
              + (f" error={job.error}" if job.error else ""))
    return _finish(env, args.json)


def _cmd_job_list(args) -> int:
    store = RunStore(args.store)
    jobs = store.list_jobs()
    env = Envelope("job-list", {"jobs": [j.to_dict() for j in jobs]})
    if not args.json:
        for job in jobs:
            result = "result" if store.has_result(job.job_id) else "-"
            print(f"  {job.job_id}  {job.spec.kind:<10} "
                  f"{job.state:<8} attempts={job.attempts} {result}")
    return _finish(env, args.json)


def _cmd_job_result(args) -> int:
    env = Envelope("job-result")
    store = RunStore(args.store)
    try:
        payload = store.load_result(args.job_id)
    except UnknownJobError as error:
        env.fail("usage", str(error))
        return _finish(env, args.json)
    env.data = payload
    if not args.json:
        # The stored bytes, verbatim: what the acceptance check diffs.
        sys.stdout.write(store.result_bytes(args.job_id).decode())
    return _finish(env, args.json)


def _cmd_serve(args) -> int:
    from repro.ctrl.service import serve

    serve(host=args.host, port=args.port, store_root=args.store)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="NetKernel reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit the result envelope as JSON")
        return p

    add_json(sub.add_parser("list",
                            help="list reproducible paper artifacts"))
    run_parser = add_json(sub.add_parser(
        "run", help="regenerate tables/figures"))
    run_parser.add_argument("ids", nargs="+",
                            help="experiment ids, or 'all'")
    run_parser.add_argument("--quick", action="store_true",
                            help="shrink the packet-level experiments")
    add_json(sub.add_parser("calibration",
                            help="dump cost-model constants"))
    stats_parser = add_json(sub.add_parser(
        "stats", help="run an instrumented workload and print obs report"))
    stats_parser.add_argument("--bytes", type=int, default=1 << 20,
                              help="bytes the client transfers (default 1MiB)")
    bench_parser = add_json(sub.add_parser(
        "bench", help="run wall-clock performance benchmarks"))
    bench_parser.add_argument("names", nargs="*",
                              help="benchmark names (default: all)")
    bench_parser.add_argument("--profile", type=int, default=0,
                              metavar="N", dest="profile_top",
                              help="cProfile each benchmark and print the "
                                   "top N functions by cumulative time")
    bench_parser.add_argument("--quick", action="store_true",
                              help="shrink workloads for CI smoke runs")
    bench_parser.add_argument("--out", default="",
                              help="directory for BENCH_<name>.json files")
    bench_parser.add_argument("--floors", default="",
                              help="JSON of wall-time floors; fail at >2x")
    from repro.faults.plan import PLAN_NAMES

    chaos_parser = add_json(sub.add_parser(
        "chaos", help="run a seeded fault-injection workload"))
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="fault-plan RNG seed (default 0)")
    chaos_parser.add_argument("--plan", choices=PLAN_NAMES,
                              default="nsm-crash",
                              help="named fault plan (default nsm-crash)")
    chaos_parser.add_argument("--duration", type=float, default=0.6,
                              help="simulated seconds (default 0.6)")
    chaos_parser.add_argument("--detection-timeout", type=float,
                              default=10e-3,
                              help="NSM failure-detection timeout in "
                                   "seconds (default 0.01)")
    chaos_parser.add_argument("--heartbeat-interval", type=float,
                              default=2e-3,
                              help="heartbeat probe period in seconds "
                                   "(default 0.002)")
    chaos_parser.add_argument("--verify", action="store_true",
                              help="run twice; fail unless bit-identical "
                                   "and leak-free")
    migrate_parser = add_json(sub.add_parser(
        "migrate", help="run a seeded live-migration workload"))
    migrate_parser.add_argument("--seed", type=int, default=0,
                                help="payload-pattern seed (default 0)")
    migrate_parser.add_argument("--streams", type=int, default=8,
                                help="concurrent echo streams (default 8)")
    migrate_parser.add_argument("--duration", type=float, default=0.12,
                                help="simulated seconds (default 0.12)")
    migrate_parser.add_argument("--verify", action="store_true",
                                help="run twice; fail unless bit-identical, "
                                     "zero-reset, and leak-free")
    autoscale_parser = add_json(sub.add_parser(
        "autoscale", help="run the NSM autoscaling workload"))
    autoscale_parser.add_argument("--seed", type=int, default=0,
                                  help="AG-trace seed (default 0)")
    autoscale_parser.add_argument("--ticks", type=int, default=14,
                                  help="autoscaler ticks / trace minutes "
                                       "(default 14)")
    autoscale_parser.add_argument("--shards", type=int, default=2,
                                  help="CoreEngine shards (default 2)")
    autoscale_parser.add_argument("--chaos", action="store_true",
                                  help="crash the busiest managed NSM "
                                       "mid-rebalance")

    from repro.perf.capacity import SCENARIOS

    capacity_parser = add_json(sub.add_parser(
        "capacity", help="binary-search the NDR/PDR capacity envelope"))
    capacity_parser.add_argument("--seed", type=int, default=0,
                                 help="workload RNG seed (default 0)")
    capacity_parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                                 default="mux",
                                 help="offered-load scenario (default mux)")
    capacity_parser.add_argument("--window", type=float, default=None,
                                 help="measurement window in simulated "
                                      "seconds (default per scenario)")
    capacity_parser.add_argument("--vms", type=int, default=4,
                                 help="competing VMs (default 4)")
    capacity_parser.add_argument("--iterations", type=int, default=6,
                                 help="bisection steps per threshold "
                                      "(default 6)")
    capacity_parser.add_argument("--verify", action="store_true",
                                 help="run the search twice; fail unless "
                                      "bit-identical and leak-free")

    job_parser = sub.add_parser(
        "job", help="control-plane jobs against the RunStore")
    job_sub = job_parser.add_subparsers(dest="job_command", required=True)

    def add_store(p):
        p.add_argument("--store", default=DEFAULT_STORE,
                       help=f"RunStore directory (default {DEFAULT_STORE})")
        return add_json(p)

    submit_parser = add_store(job_sub.add_parser(
        "submit", help="submit a job and (by default) run it"))
    submit_parser.add_argument("--kind", required=True,
                               choices=sorted(KIND_PARAMS),
                               help="what to run")
    submit_parser.add_argument("--id", default=None,
                               help="experiment id (kind=experiment)")
    submit_parser.add_argument("--param", action="append", default=[],
                               metavar="KEY=VALUE",
                               help="runner parameter (repeatable; "
                                    "values parse as JSON)")
    submit_parser.add_argument("--seed", type=int, default=0,
                               help="job seed (default 0)")
    submit_parser.add_argument("--retries", type=int, default=2,
                               help="max retries on failure (default 2)")
    submit_parser.add_argument("--no-wait", action="store_true",
                               help="enqueue only; a later submit or "
                                    "'repro serve' worker runs it")
    status_parser = add_store(job_sub.add_parser(
        "status", help="show one job record"))
    status_parser.add_argument("job_id")
    add_store(job_sub.add_parser("list", help="list every job"))
    result_parser = add_store(job_sub.add_parser(
        "result", help="print a job's stored result"))
    result_parser.add_argument("job_id")

    serve_parser = sub.add_parser(
        "serve", help="boot the REST control plane")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642)
    serve_parser.add_argument("--store", default=DEFAULT_STORE,
                              help=f"RunStore directory "
                                   f"(default {DEFAULT_STORE})")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args.json)
        if args.command == "run":
            return _cmd_run(args.ids, args.quick, args.json)
        if args.command == "calibration":
            return _cmd_calibration(args.json)
        if args.command == "stats":
            return _cmd_stats(args.json, args.bytes)
        if args.command == "bench":
            return _cmd_bench(args.names, args.quick, args.out,
                              args.floors, args.json, args.profile_top)
        if args.command == "chaos":
            return _cmd_chaos(args.seed, args.plan, args.duration,
                              args.detection_timeout,
                              args.heartbeat_interval,
                              args.json, args.verify)
        if args.command == "migrate":
            return _cmd_migrate(args.seed, args.streams, args.duration,
                                args.json, args.verify)
        if args.command == "autoscale":
            return _cmd_autoscale(args.seed, args.ticks, args.shards,
                                  args.chaos, args.json)
        if args.command == "capacity":
            return _cmd_capacity(args.scenario, args.seed, args.window,
                                 args.vms, args.iterations,
                                 args.json, args.verify)
        if args.command == "job":
            handler = {"submit": _cmd_job_submit,
                       "status": _cmd_job_status,
                       "list": _cmd_job_list,
                       "result": _cmd_job_result}[args.job_command]
            return handler(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ControlPlaneError as error:
        as_json = bool(getattr(args, "json", False))
        return _finish(Envelope(args.command).fail("usage", str(error)),
                       as_json)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
