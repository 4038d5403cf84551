"""The census-clean assertion the tests share.

:func:`repro.scenario.census` is the one resource-balance check: NQE
pool, hugepage regions, TCP forwards, and connection table ↔ ServiceLib
contexts ↔ GuestLib sockets.  Tests call :func:`assert_census_clean` at
quiescence instead of hand-rolling any of those asserts.
"""

from repro.scenario import census


def assert_census_clean(host, pool_baseline, extra_stacks=(),
                        clean_shutdown=False):
    """Assert ``host`` is balanced and return the census for further
    checks (e.g. its ``fenced`` count).  ``pool_baseline`` is
    ``NQE_POOL.outstanding`` from before the host was built."""
    found = census(host, pool_baseline, extra_stacks)
    leaks = found.leaks(clean_shutdown)
    assert not leaks, leaks
    return found
