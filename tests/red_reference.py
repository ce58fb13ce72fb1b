"""The fixed-point and sweep loops that the one ``objective.sweep`` loop
replaced, kept as the reference: each solver ran its own loop and formed
J = E[log LR] + (lambda_reg / sigma_w^2) P itself, evaluating P also at
lambda_reg = 0."""

import numpy as np

from redblue.dynamics import Dynamics
from redblue.moments import solve_stack
from redblue.red.fbs import _hamiltonian_coeffs, solve_adjoint
from redblue.red.objective import (
    anchor_values,
    anchored_penalty,
    closed_form_update,
    finish_report,
)


def fpi_solve(params, config, grid):
    anchor = anchor_values(config, grid)
    dyn = Dynamics.of(params)
    scale = config.lambda_reg / params.sigma_w**2
    f = anchor.copy()
    history: list[float] = []
    converged = False
    iterations = 0
    for it in range(config.max_iters):
        x, elr = solve_stack(params, f, grid)
        history.append(elr + scale * anchored_penalty(f, anchor, config, grid))
        a, b = dyn.payoff_coeffs(x[:, 1], x[:, 2], x[:, 4], x[:, 5])
        f_new = closed_form_update(a, b, anchor, config)
        delta = float(np.linalg.norm(f_new - f))
        f = f_new
        iterations = it + 1
        if delta < config.tolerance:
            converged = True
            break
    return finish_report(
        params, config, grid, f, anchor, history, iterations, converged
    )


def fbs_solve(params, config, grid):
    anchor = anchor_values(config, grid)
    dyn = Dynamics.of(params)
    scale = config.lambda_reg / params.sigma_w**2
    f = anchor.copy()
    omega = config.fbs_relaxation
    history: list[float] = []
    converged = False
    iterations = 0
    for it in range(config.max_iters):
        x, elr = solve_stack(params, f, grid)
        objective = elr + scale * anchored_penalty(f, anchor, config, grid)
        if history and objective > history[-1]:
            omega *= 0.5
        history.append(objective)
        psi = solve_adjoint(params, f, x, grid)
        a, b = _hamiltonian_coeffs(dyn, x, psi)
        f_hat = closed_form_update(a, b, anchor, config)
        f_new = (1.0 - omega) * f + omega * f_hat
        delta = float(np.linalg.norm(f_new - f))
        f = f_new
        iterations = it + 1
        if delta < config.tolerance:
            converged = delta * (config.fbs_relaxation / omega) < config.tolerance
            break
    return finish_report(
        params, config, grid, f, anchor, history, iterations, converged
    )
