"""Forward-backward sweep solver for the pattern optimizer.

Treats the pattern as the control of a deterministic optimal-control problem
whose state stacks the coefficient block with the moment block,
x = (mu, eta, rho, h20, h11, h02).  Each sweep solves the state equations
with ``solve_stack`` (coefficients backward, then moments forward; the
coefficient block is autonomous so this ordering is exact), solves the six
adjoint equations backward from zero into one (n_steps + 1, 6) costate
array, and replaces the pattern by the relaxed Hamiltonian minimizer.  The
relaxation weight is halved whenever the objective rises, which tames the
oscillation plain sweeps are prone to.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import Dynamics
from ..model import GridConfig, GridSampled, ModelParams, sample_on_half_grid
from ..moments import nodes_to_half_grid
from ..odeint import integrate_backward
from .objective import (
    SOLVER_FBS,
    OptimizationReport,
    RedConfig,
    anchor_values,
    closed_form_update,
    finish_report,
    penalty,
    solve_stack,
)


def solve_adjoint(
    params: ModelParams, f_nodes: np.ndarray, x: np.ndarray, grid: GridConfig
) -> np.ndarray:
    """Backward RK4 solve of the six costate equations given the states.

    psi' = -(psi . d(F, G)/dx + dL/dx) with x = (mu, eta, rho, h20, h11, h02)
    the (n_steps + 1, 6) node states of ``solve_stack`` and L the payoff
    integrand, all from ``redblue.dynamics``.  Returns the (n_steps + 1, 6)
    costates, zero at T.
    """
    fc_h = sample_on_half_grid(GridSampled(f_nodes, grid.horizon), grid)
    # One row per half-grid point, (mu, eta, rho, h20, h11, h02, f), as Python
    # floats: the same arithmetic as numpy scalars at a fraction of the cost.
    rows = np.column_stack((nodes_to_half_grid(x), fc_h)).tolist()
    dyn = Dynamics.of(params)

    def rhs(j: int, psi: tuple[float, ...]) -> tuple[float, ...]:
        mu, eta, rho, h20, h11, h02, f = rows[j]
        c_mu, c_eta, c_rho, _ = dyn.coeff_vjp(psi[:3], mu, eta, rho, f)
        g20, g11, g02, g_mu, g_eta, g_rho, _ = dyn.moment_vjp(
            psi[3:], h20, h11, h02, mu, eta, rho, f
        )
        l_eta, l_rho, l_h11, l_h02, _ = dyn.payoff_grad(eta, rho, h11, h02, f)
        return (
            -(c_mu + g_mu),
            -(c_eta + g_eta + l_eta),
            -(c_rho + g_rho + l_rho),
            -g20,
            -(g11 + l_h11),
            -(g02 + l_h02),
        )

    return integrate_backward(rhs, (0.0,) * 6, grid)


def _hamiltonian_coeffs(
    dyn: Dynamics, x: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise (a, b) of the Hamiltonian L + psi . (F, G) = (a/2) f^2 + b f + ...

    The costates enter b through the f-components of the vjps at f = 0, and
    a through psi3 c2 f^2, the only term of F or G quadratic in f.  With all
    costates zero these are the payoff's coefficients, as in the fixed-point
    update.
    """
    mu, eta, rho, h20, h11, h02 = x.T
    a, b = dyn.payoff_coeffs(eta, rho, h11, h02)
    zero = np.zeros_like(a)
    c_f = dyn.coeff_vjp(psi.T[:3], mu, eta, rho, zero)[3]
    g_f = dyn.moment_vjp(psi.T[3:], h20, h11, h02, mu, eta, rho, zero)[6]
    return a + 2.0 * dyn.c2 * psi[:, 2], b + c_f + g_f


def fbs_solve(
    params: ModelParams, config: RedConfig, grid: GridConfig
) -> OptimizationReport:
    if config.solver != SOLVER_FBS:
        raise ValueError(f"config selects solver {config.solver!r}, not fbs")
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
        objective = elr + scale * penalty(f, config, grid)
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
            converged = True
            break
    return finish_report(params, config, grid, f, history, iterations, converged)
