"""Fixed-point iteration for the pattern optimizer.

Each sweep solves the coefficient and moment systems under the current
pattern, then replaces every node value by the closed-form minimizer of the
payoff integrand at that node.  Iteration stops when the node vector moves
less than the tolerance in Euclidean norm.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import Dynamics
from ..model import GridConfig, ModelParams
from .objective import (
    SOLVER_FPI,
    OptimizationReport,
    RedConfig,
    anchor_values,
    closed_form_update,
    finish_report,
    penalty,
    solve_stack,
)


def fpi_solve(
    params: ModelParams, config: RedConfig, grid: GridConfig
) -> OptimizationReport:
    if config.solver != SOLVER_FPI:
        raise ValueError(f"config selects solver {config.solver!r}, not fpi")
    anchor = anchor_values(config, grid)
    dyn = Dynamics.of(params)
    scale = config.lambda_reg / params.sigma_w**2
    f = anchor.copy()
    history: list[float] = []
    converged = False
    iterations = 0
    for it in range(config.max_iters):
        x, elr = solve_stack(params, f, grid)
        history.append(elr + scale * penalty(f, config, grid))
        a, b = dyn.payoff_coeffs(x[:, 1], x[:, 2], x[:, 4], x[:, 5])
        f_new = closed_form_update(a, b, anchor, config)
        delta = float(np.linalg.norm(f_new - f))
        f = f_new
        iterations = it + 1
        if delta < config.tolerance:
            converged = True
            break
    return finish_report(params, config, grid, f, history, iterations, converged)
