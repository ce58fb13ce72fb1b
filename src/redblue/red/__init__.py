"""Observer-side pattern optimization: objective, penalties, and solvers."""

from .objective import (
    PENALTY_LOGARITHMIC,
    PENALTY_QUADRATIC,
    SOLVER_FBS,
    SOLVER_FPI,
    SOLVER_NN,
    OptimizationReport,
    RedConfig,
    penalty,
    red_objective,
)
from .fpi import fpi_solve, fpi_update
from .fbs import AdjointState, fbs_solve, solve_adjoint
from .nn import MlpNetwork, init_network, nn_forward, nn_gradient, nn_solve

__all__ = [
    "PENALTY_LOGARITHMIC",
    "PENALTY_QUADRATIC",
    "SOLVER_FBS",
    "SOLVER_FPI",
    "SOLVER_NN",
    "AdjointState",
    "MlpNetwork",
    "OptimizationReport",
    "RedConfig",
    "fbs_solve",
    "fpi_solve",
    "fpi_update",
    "init_network",
    "nn_forward",
    "nn_gradient",
    "nn_solve",
    "penalty",
    "red_objective",
    "solve_adjoint",
]
