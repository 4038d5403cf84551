"""Synthetic application-gateway (AG) traffic traces (Fig. 7, §6.1).

The paper uses a September-2018 trace of tens of thousands of AGs from a
large cloud; that data is proprietary, so we generate traces with the
properties the paper reports and Fig. 7 shows:

* values are RPS normalized to the AG's provisioned peak capacity (100);
* **average utilization is very low most of the time** (a few percent);
* traffic is **bursty**: rare, short spikes reach 40–120% of capacity;
* bursts of different AGs are mostly uncorrelated, which is what makes
  consolidating them onto one NSM profitable.

Each AG gets a low baseline level with multiplicative noise plus a small
Poisson number of bursts with exponential decay.  Everything is
deterministic under a seed.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence


class AgTrace:
    """One AG's per-interval normalized RPS series."""

    def __init__(self, name: str, values: Sequence[float],
                 interval_sec: float = 60.0):
        if not len(values):
            raise ValueError("trace must have >=1 interval")
        self.name = name
        self.values = [max(0.0, float(v)) for v in values]
        self.interval_sec = interval_sec

    def __len__(self) -> int:
        return len(self.values)

    @property
    def peak(self) -> float:
        return max(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<AgTrace {self.name} n={len(self)} peak={self.peak:.1f} "
                f"mean={self.mean:.1f}>")


#: Trace profiles: "fleet" matches the broad population (very low mean,
#: rare and mostly modest bursts — ~97% of AGs never burst near their
#: reservation); "hot" matches Fig. 7's three most-utilized AGs (bigger,
#: more frequent bursts approaching provisioned capacity).
PROFILES = {
    "fleet": {"base": (0.3, 1.2), "bursts_per_hour": 0.6,
              "amplitude": (15.0, 60.0), "big_amplitude": (70.0, 110.0),
              "big_fraction": 0.05},
    "hot": {"base": (1.0, 4.0), "bursts_per_hour": 2.5,
            "amplitude": (35.0, 85.0), "big_amplitude": (85.0, 115.0),
            "big_fraction": 0.15},
}


def generate_ag_trace(name: str = "ag", minutes: int = 60, seed: int = 1,
                      profile: str = "fleet",
                      base_level: float = None,
                      bursts_per_hour: float = None) -> AgTrace:
    """One synthetic AG trace with Fig. 7's burstiness envelope."""
    params = PROFILES[profile]
    rng = random.Random(seed)
    if base_level is None:
        base_level = rng.uniform(*params["base"])
    if bursts_per_hour is None:
        bursts_per_hour = params["bursts_per_hour"]
    values = [0.0] * minutes
    # Smooth baseline with multiplicative noise.
    level = base_level
    for minute in range(minutes):
        level = max(0.2, level + rng.gauss(0.0, base_level * 0.15))
        values[minute] = level * rng.uniform(0.7, 1.3)
    # Bursts: Poisson count, exponential decay over a few minutes.
    expected = bursts_per_hour * minutes / 60.0
    n_bursts = _poisson(rng, expected)
    for _ in range(n_bursts):
        start = rng.randrange(minutes)
        if rng.random() < params["big_fraction"]:
            amplitude = rng.uniform(*params["big_amplitude"])
        else:
            amplitude = rng.uniform(*params["amplitude"])
        decay = rng.uniform(0.3, 1.2)  # per-minute decay rate
        for offset in range(minutes - start):
            contribution = amplitude * math.exp(-decay * offset)
            if contribution < 1.0:
                break
            values[start + offset] += contribution
    values = [min(v, 120.0) for v in values]
    return AgTrace(name, values)


def generate_fleet(n_ags: int, minutes: int = 60, seed: int = 7,
                   profile: str = "fleet") -> List[AgTrace]:
    """A fleet of independent AG traces."""
    return [
        generate_ag_trace(f"ag{i}", minutes, seed=seed * 1009 + i,
                          profile=profile)
        for i in range(n_ags)
    ]


def aggregate(traces: Sequence[AgTrace]) -> List[float]:
    """Per-interval sum across traces (the NSM's offered load)."""
    if not traces:
        return []
    length = len(traces[0])
    if any(len(t) != length for t in traces):
        raise ValueError("traces must have equal length")
    return [sum(t.values[i] for t in traces) for i in range(length)]


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's algorithm; fine for the small lambdas used here."""
    threshold = math.exp(-lam)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
