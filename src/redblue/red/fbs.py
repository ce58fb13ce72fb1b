"""Forward-backward sweep solver for the pattern optimizer.

Treats the pattern as the control of a deterministic optimal-control problem
whose state stacks the coefficient block with the moment block,
x = (mu, eta, rho, h20, h11, h02).  fbs is an update rule of
``objective.sweep``, which solves the state equations with ``solve_stack``
(coefficients backward, then moments forward; the coefficient block is
autonomous so this ordering is exact).  The rule solves the six adjoint
equations backward from zero into one (n_steps + 1, 6) costate array, and
replaces the pattern by the relaxed Hamiltonian minimizer.  The relaxation
weight is halved whenever the objective rises, which tames the oscillation
plain sweeps are prone to.  The sweep stops once the relaxed step is below
the tolerance, and reports converged only if the step at the configured
weight is too.

The costate equations are linear in the costates, and every factor is
known once the states are: F's Jacobian, the moment block's matrix K,
dG/d(mu, eta, rho) and the payoff gradient, all from ``redblue.dynamics``.
The adjoint lays them out over the half grid as one linear system, whose
moment costates never read the coefficient ones, and
``odeint.integrate_linear`` composes its RK4 step maps.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import GAIN_COLS, GAIN_ROWS, Dynamics
from ..model import GridConfig, ModelParams
from ..moments import nodes_to_half_grid
from ..odeint import integrate_linear
from .objective import (
    SOLVER_FBS,
    OptimizationReport,
    RedConfig,
    closed_form_update,
    sweep,
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
    f = nodes_to_half_grid(f_nodes)
    mu, eta, rho, h20, h11, h02 = nodes_to_half_grid(x).T
    dyn = Dynamics.of(params)
    rows, cols = np.array(GAIN_ROWS), np.array(GAIN_COLS)
    # psi' = -abar (psi, 1) with psi = (q, p), q over (mu, eta, rho) and p
    # over (h20, h11, h02): the q rows read J_F^T, (dG/ds)^T and dL/ds, the
    # p rows only K^T and dL/dm: their entries left of column 3 are zero,
    # since the moment costates never read q.  An overflow gives inf or nan
    # for the solve to reject.
    abar = np.zeros((len(f), 7, 7))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, unit in enumerate(np.eye(3)):
            # row i of J_F, the vjp of the i-th unit covector, is column i
            # of J_F^T
            abar[:, :3, i] = np.stack(dyn.coeff_vjp_s(unit, mu, eta, rho, f), -1)
        abar[:, cols, 3 + rows] = np.stack(dyn.moment_jac_s(h20, h11, h02), -1)
        abar[:, 3 + cols, 3 + rows] = np.stack(dyn.moment_gains(mu, eta, rho, f), -1)
        # L reads neither mu nor h20
        abar[:, (1, 2, 4, 5), 6] = np.stack(
            (*dyn.payoff_grad_s(h11, h02, f), *dyn.payoff_grad_m(eta, rho, f)), -1
        )
    return integrate_linear(-abar, np.zeros(6), grid, -1)


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
    dyn = Dynamics.of(params)
    omega = config.fbs_relaxation

    def update(f, x, anchor, history):
        nonlocal omega
        if len(history) > 1 and history[-1] > history[-2]:
            omega *= 0.5
        psi = solve_adjoint(params, f, x, grid)
        a, b = _hamiltonian_coeffs(dyn, x, psi)
        f_hat = closed_form_update(a, b, anchor, config)
        # omega only halves, so the factor is exactly 2^k: the step at the
        # configured weight, not a step shrunk by halving, must pass
        return (1.0 - omega) * f + omega * f_hat, config.fbs_relaxation / omega

    return sweep(params, config, grid, update)
