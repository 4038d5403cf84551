"""Units and conversion helpers used throughout the reproduction.

Conventions
-----------
* Time is measured in **seconds** (float) of simulated time.
* Data sizes are **bytes** (int).
* Rates are **bits per second** (float) unless a name says otherwise.
* CPU work is measured in **cycles** (float); cores have a clock in Hz.

The helpers exist so that experiment code reads like the paper:
``gbps(100)``, ``KiB(8)``, ``usec(20)``.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Data sizes (bytes)
# ---------------------------------------------------------------------------

KB = 1000
MB = 1000 ** 2
GB = 1000 ** 3

KIB = 1024
MIB = 1024 ** 2
GIB = 1024 ** 3


def KiB(n: float) -> int:
    """n kibibytes, in bytes."""
    return int(n * KIB)


def MiB(n: float) -> int:
    """n mebibytes, in bytes."""
    return int(n * MIB)


# ---------------------------------------------------------------------------
# Rates (bits per second)
# ---------------------------------------------------------------------------


def mbps(n: float) -> float:
    """n megabits per second, in bits per second."""
    return n * 1e6


def gbps(n: float) -> float:
    """n gigabits per second, in bits per second."""
    return n * 1e9


# ---------------------------------------------------------------------------
# Time (seconds)
# ---------------------------------------------------------------------------


def usec(n: float) -> float:
    """n microseconds, in seconds."""
    return n * 1e-6


# ---------------------------------------------------------------------------
# CPU cycles
# ---------------------------------------------------------------------------

#: Clock rate of the paper's testbed cores (Xeon E5-2698 v3, 2.3 GHz).
PAPER_CORE_HZ = 2.3e9
