"""CPU accounting across components.

The paper's overhead evaluation (§7.8) compares *total cycles spent by the
VM* in Baseline against *total cycles spent by the VM and NSM together* in
NetKernel.  :class:`CpuAccountant` aggregates the per-core ledgers so an
experiment can produce exactly that normalized comparison.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.cpu.core import Core


class CpuAccountant:
    """Aggregates busy-cycle ledgers over groups of cores."""

    def __init__(self):
        self._groups: Dict[str, List[Core]] = {}

    def register(self, group: str, cores: Iterable[Core]) -> None:
        """Add ``cores`` to an accounting group (e.g. "vm", "nsm", "ce")."""
        self._groups.setdefault(group, []).extend(cores)

    def groups(self) -> List[str]:
        return sorted(self._groups)

    def cycles(self, group: str) -> float:
        """Total busy cycles accumulated by a group."""
        return sum(core.busy_cycles for core in self._groups.get(group, []))

    def total_cycles(self, groups: Iterable[str]) -> float:
        return sum(self.cycles(group) for group in groups)

    def by_component(self, group: str) -> Dict[str, float]:
        """Busy cycles per labelled component within a group."""
        merged: Dict[str, float] = {}
        for core in self._groups.get(group, []):
            for component, cycles in core.busy_by_component.items():
                merged[component] = merged.get(component, 0.0) + cycles
        return merged
