"""Command-line interface: ``python -m repro <command>``.

Every subcommand supports ``--json``, emitting one result envelope —
``{"ok": bool, "kind": ..., "data": ..., "error": ...}`` — and draws
its process exit code from the single ``repro.errors.EXIT_CODES``
table.  Run-producing subcommands are thin adapters over the
control-plane executor (``repro.ctrl``): they build a JobSpec and run
it through exactly the code path ``repro serve`` uses.  The four
scenario verbs are one loop over the ``repro.scenario`` registry: run
(twice under ``--verify``), fail on each run's broken contracts — the
resource census among them — and on differing fingerprints.

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
    Run a quickstart-style workload with the repro.obs NQE tracer on
    and print per-stage NQE latency and cycles, then ring occupancy,
    token buckets and switch counters read from the host at the end.
chaos
    Run the seeded fault-injection workload (``repro.faults``);
    ``--verify`` replays the plan and fails unless bit-identical and
    census-clean.
migrate
    Run the seeded live-migration workload; ``--verify`` fails unless
    bit-identical, census-clean, and zero-reset.
capacity
    Binary-search the NDR/PDR capacity envelope; ``--verify`` fails
    unless the search replays bit-identically, census-clean, and
    degrades gracefully at 2x NDR.
autoscale
    Run the NSM autoscaling workload on a sharded CoreEngine; fails on
    any leaked forward, pool imbalance, or VM-on-inactive-NSM
    assignment.
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
import inspect
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
from repro.scenario import SCENARIOS, Scenario

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
    obs = host.enable_observability()

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
    print(f"Scheduler: passes={ce['sched.passes']} "
          f"stale_wakeups={ce['sched.stale_wakeups']} "
          "(stall timeouts disarmed after a doorbell won the race)")
    return _finish(env, as_json)


def _cmd_scenario(scenario: Scenario, args) -> int:
    """Every scenario verb: run (twice under ``--verify``), check each
    run's contract, compare fingerprints, print the summary."""
    env = Envelope(scenario.kind)
    params = {flag.dest: getattr(args, flag.dest)
              for flag in scenario.flags
              if getattr(args, flag.dest) is not None}
    verify = bool(getattr(args, "verify", False))
    spec = JobSpec(scenario.kind, params=params, seed=args.seed)
    payloads = [execute_job(spec) for _ in range(2 if verify else 1)]
    env.data = {"result": payloads[0]["result"]}
    if scenario.verify_help:
        env.data["verify"] = verify
    if not args.json:
        for line in scenario.summary(payloads[0]):
            print(line)
    for index, payload in enumerate(payloads, 1):
        for failure in scenario.contract_failures(payload):
            env.fail(failure.code, failure.message(
                index if scenario.verify_help else None))
    fingerprints = {scenario.fingerprint(payload) for payload in payloads}
    if len(fingerprints) != 1:
        env.fail("divergence", f"{scenario.divergence} produced "
                               f"{len(fingerprints)} distinct fingerprints")
    if env.ok and not args.json and (verify or not scenario.verify_help):
        print(scenario.verified)
    return _finish(env, args.json)


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
    for scenario in SCENARIOS.values():
        scenario_parser = add_json(sub.add_parser(scenario.kind,
                                                  help=scenario.help))
        defaults = inspect.signature(scenario.runner()).parameters
        for flag in scenario.flags:
            default = defaults[flag.dest].default
            if isinstance(default, bool):
                scenario_parser.add_argument(
                    flag.name, dest=flag.dest, action="store_true",
                    help=flag.help)
                continue
            choices = flag.choices() if flag.choices else None
            scenario_parser.add_argument(
                flag.name, dest=flag.dest, type=flag.type, default=default,
                choices=choices, metavar=None if choices else
                flag.name[2:].upper().replace("-", "_"),
                help=flag.help if "(default" in flag.help
                else f"{flag.help} (default %(default)s)")
        if scenario.verify_help:
            scenario_parser.add_argument("--verify", action="store_true",
                                         help=scenario.verify_help)

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
        if args.command in SCENARIOS:
            return _cmd_scenario(SCENARIOS[args.command], args)
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
