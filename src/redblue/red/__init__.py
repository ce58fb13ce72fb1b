"""Observer-side pattern optimization: objective, penalties, and solvers."""

from ..model import GridConfig, ModelParams
from .fbs import fbs_solve
from .fpi import fpi_solve
from .nn import nn_solve
from .objective import SOLVER_FBS, SOLVER_FPI, OptimizationReport, RedConfig

__all__ = ["RedConfig", "solve_red"]


def solve_red(
    params: ModelParams, config: RedConfig, grid: GridConfig, seed: int
) -> OptimizationReport:
    """Dispatch to the solver named by the config (seed used by nn only)."""
    if config.solver == SOLVER_FPI:
        return fpi_solve(params, config, grid)
    if config.solver == SOLVER_FBS:
        return fbs_solve(params, config, grid)
    return nn_solve(params, config, grid, seed)
