"""Golden values: how the suite pins simulated timelines.

The CoreEngine and the TCP buffers each have one datapath.  Their
simulated timelines (experiment rows and notes, event counts, switch
fingerprints) are pinned as constants in the tests that produce them:
``tests/test_sched_determinism.py``, ``tests/test_overload.py``,
``tests/test_ring_model.py`` and ``tests/test_sharding.py``.  Small
fingerprints are pinned literally; large outputs as :func:`digest`.

A change that moves a timeline on purpose re-records the constants: run
the failing test, check that the new value is the one the change
intends, and paste the value pytest reports for the left-hand side.
The bulk timeline and the echo-scenario runs are also pinned without
their event counts, so a change to how timers sit in the event heap can
re-record the counts while every simulated timestamp is held fixed.
"""

import hashlib


def digest(obj) -> str:
    """SHA-256 of ``repr(obj)``.

    The pinned outputs hold only numbers, strings, tuples, lists and
    insertion-ordered dicts, so their ``repr`` does not depend on
    ``PYTHONHASHSEED``."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()
