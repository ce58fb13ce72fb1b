"""Fixed-point iteration for the pattern optimizer.

An update rule of ``objective.sweep``: after the sweep solves the
coefficient and moment systems under the current pattern, every node value
is replaced by the closed-form minimizer of the payoff integrand at that
node.  Iteration stops when the node vector moves less than the tolerance
in Euclidean norm.
"""

from __future__ import annotations

from ..dynamics import Dynamics
from ..model import GridConfig, ModelParams
from .objective import OptimizationReport, RedConfig, closed_form_update, sweep


def fpi_solve(
    params: ModelParams, config: RedConfig, grid: GridConfig
) -> OptimizationReport:
    dyn = Dynamics.of(params)

    def update(f, x, anchor, history):
        a, b = dyn.payoff_coeffs(x[:, 1], x[:, 2], x[:, 4], x[:, 5])
        return closed_form_update(a, b, anchor, config), 1.0

    return sweep(params, config, grid, update)
