"""One cached run per fixed scenario input, shared across test modules.

The chaos, migrate, capacity and autoscale runs are seeded and
deterministic (their payloads do not depend on what ran before them in
the process), so a run that several tests read — a replay pair, a
golden, an invariant check — is made once per session.  Callers must
treat payloads as read-only.
"""

import functools


@functools.lru_cache(maxsize=None)
def chaos_run(seed, plan_name, duration):
    """(payload, the census the run took once its traffic drained)."""
    from repro.faults import chaos as module

    real, taken = module.census, []

    def recording(*args):
        taken.append(real(*args))
        return taken[-1]

    module.census = recording
    try:
        payload = module.run_chaos(seed=seed, plan_name=plan_name,
                                   duration=duration)
    finally:
        module.census = real
    return payload, taken[-1]


def chaos(seed, plan_name, duration):
    return chaos_run(seed, plan_name, duration)[0]


@functools.lru_cache(maxsize=None)
def migration(seed, streams, duration):
    from repro.faults.migration import run_migration

    return run_migration(seed=seed, streams=streams, duration=duration)


@functools.lru_cache(maxsize=None)
def capacity(scenario, seed, window, iterations):
    from repro.perf.capacity import run_capacity

    return run_capacity(scenario=scenario, seed=seed, window=window,
                        iterations=iterations)


@functools.lru_cache(maxsize=None)
def autoscale(seed, chaos):
    from repro.experiments.fig_autoscale import run_autoscale_scenario

    return run_autoscale_scenario(seed=seed, chaos=chaos)
