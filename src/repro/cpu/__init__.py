"""CPU substrate: cores as cycle-budget resources plus the calibrated
cost model that maps NetKernel/stack operations to cycles."""

from repro.cpu.core import Core
from repro.cpu.cost_model import CostModel, DEFAULT_COST_MODEL

__all__ = ["Core", "CostModel", "DEFAULT_COST_MODEL"]
