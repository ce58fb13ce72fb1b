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

The costate equations are linear in the costates.  Of their coefficients,
only those of the Riccati block's own product are evaluated per stage: the
moment block's matrix K (for K^T p), dG/d(mu, eta, rho) and the payoff
gradient are tables from ``redblue.dynamics``, built once per solve over
the half grid.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import Dynamics
from ..model import GridConfig, GridSampled, ModelParams, sample_on_half_grid
from ..moments import nodes_to_half_grid, solve_stack
from ..odeint import integrate_backward
from .objective import (
    SOLVER_FBS,
    OptimizationReport,
    RedConfig,
    anchor_values,
    anchored_penalty,
    closed_form_update,
    finish_report,
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
    mu, eta, rho, h20, h11, h02 = nodes_to_half_grid(x).T
    dyn = Dynamics.of(params)
    # Everything but the Riccati block's own product is linear in psi with
    # factors known before the solve: K and dG/ds, and the payoff gradient,
    # built here once over the half grid.  An overflow gives inf or nan for
    # the stepping loop to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        tables = (
            (mu, eta, rho, fc_h),
            dyn.moment_gains(mu, eta, rho, fc_h),
            dyn.moment_jac_s(h20, h11, h02),
            (*dyn.payoff_grad_s(h11, h02, fc_h), *dyn.payoff_grad_m(eta, rho, fc_h)),
        )
    # One row of each per half-grid point, as Python floats: the same
    # arithmetic as numpy scalars at a fraction of the cost.
    rows = list(zip(*(np.array(table).T.tolist() for table in tables)))
    coeff_vjp_s = dyn.coeff_vjp_s
    moment_vjp_m = dyn.moment_vjp_m
    moment_vjp_s = dyn.moment_vjp_s

    def rhs(j: int, psi: tuple[float, ...]) -> tuple[float, ...]:
        (mu, eta, rho, f), gains, jac, (l_eta, l_rho, l_h11, l_h02) = rows[j]
        q, p = psi[:3], psi[3:]
        c_mu, c_eta, c_rho = coeff_vjp_s(q, mu, eta, rho, f)
        g20, g11, g02 = moment_vjp_m(p, gains)
        g_mu, g_eta, g_rho = moment_vjp_s(p, jac)
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

    The costates enter b through the f blocks of the vjps at f = 0, and
    a through psi3 c2 f^2, the only term of F or G quadratic in f.  With all
    costates zero these are the payoff's coefficients, as in the fixed-point
    update.
    """
    _, eta, rho, _, h11, h02 = x.T
    a, b = dyn.payoff_coeffs(eta, rho, h11, h02)
    c_f = dyn.coeff_vjp_f(psi.T[:3], eta, rho, np.zeros_like(a))
    g_f = dyn.moment_vjp_f(psi.T[3:], h11, h02)
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
            converged = True
            break
    return finish_report(
        params, config, grid, f, anchor, history, iterations, converged
    )
