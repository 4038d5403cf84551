"""One cached run per fixed scenario input, shared across test modules.

The chaos, migrate, capacity and autoscale runs are seeded and
deterministic (their payloads do not depend on what ran before them in
the process), so a run that several tests read — a replay pair, a
golden, an invariant check — is made once per session.  Callers must
treat payloads as read-only.
"""

import functools


def _recording(module, names, run):
    """``run()`` with each of ``module``'s ``names`` wrapped to record its
    calls as (args, result); returns (run's result, {name: calls})."""
    reals = {name: getattr(module, name) for name in names}
    taken = {name: [] for name in names}

    def recorder(name):
        def recording(*args):
            taken[name].append((args, reals[name](*args)))
            return taken[name][-1][1]
        return recording

    for name in names:
        setattr(module, name, recorder(name))
    try:
        return run(), taken
    finally:
        for name, real in reals.items():
            setattr(module, name, real)


@functools.lru_cache(maxsize=None)
def chaos_run(seed, plan_name, duration):
    """(payload, the census the run took once its traffic drained, the
    timeline its ``switch_fingerprint`` hashes)."""
    from repro.faults import chaos as module

    payload, calls = _recording(
        module, ("census", "switch_fingerprint"), lambda: module.run_chaos(
            seed=seed, plan_name=plan_name, duration=duration))
    return (payload, calls["census"][-1][1],
            calls["switch_fingerprint"][-1][0][0])


def chaos(seed, plan_name, duration):
    return chaos_run(seed, plan_name, duration)[0]


@functools.lru_cache(maxsize=None)
def migration_run(seed, streams, duration):
    """(payload, the timeline its ``switch_fingerprint`` hashes)."""
    from repro.faults import migration as module

    payload, calls = _recording(
        module, ("switch_fingerprint",), lambda: module.run_migration(
            seed=seed, streams=streams, duration=duration))
    return payload, calls["switch_fingerprint"][-1][0][0]


def migration(seed, streams, duration):
    return migration_run(seed, streams, duration)[0]


@functools.lru_cache(maxsize=None)
def capacity(scenario, seed, window, iterations):
    from repro.perf.capacity import run_capacity

    return run_capacity(scenario=scenario, seed=seed, window=window,
                        iterations=iterations)


@functools.lru_cache(maxsize=None)
def autoscale(seed, chaos):
    from repro.experiments.fig_autoscale import run_autoscale_scenario

    return run_autoscale_scenario(seed=seed, chaos=chaos)
