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
known once the states are: F's Jacobian, G's in (mu, eta, rho) and in the
moments (the matrix K) and the payoff gradient.  ``odeint.jacobian``
derives each from the rates of ``redblue.dynamics`` and writes it,
transposed, into its block of one linear system over the half grid, whose
moment costates never read the coefficient ones, and
``odeint.integrate_linear`` composes its RK4 step maps.  The Hamiltonian's
linear term in the pattern reads the f columns of the same Jacobians.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import Dynamics
from ..model import GridConfig, ModelParams
from ..moments import nodes_to_half_grid
from ..odeint import integrate_linear, jacobian
from .objective import OptimizationReport, RedConfig, closed_form_update, sweep


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
    # psi' = -abar (psi, 1) with psi = (q, p), q over (mu, eta, rho) and p
    # over (h20, h11, h02): the q rows read J_F^T, (dG/ds)^T and dL/ds, the
    # p rows only K^T and dL/dm: their entries left of column 3 are zero,
    # since the moment costates never read q
    abar = np.zeros((len(f), 7, 7))
    jacobian(dyn.coeff_rhs, (mu, eta, rho, f), (0, 1, 2), out=abar[:, :3, :3].mT)
    # dG/d(mu, eta, rho, h20, h11, h02), transposed
    g_args = (h20, h11, h02, mu, eta, rho, f)
    jacobian(dyn.moment_rhs, g_args, (3, 4, 5, 0, 1, 2), out=abar[:, :6, 3:6].mT)
    # L reads neither mu nor h20
    l_x = jacobian(dyn.payoff, (eta, rho, h11, h02, f), (0, 1, 2, 3))
    abar[:, (1, 2, 4, 5), 6] = l_x[:, 0]
    return integrate_linear(-abar, np.zeros(6), grid, -1)


def _hamiltonian_coeffs(
    dyn: Dynamics, x: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise (a, b) of the Hamiltonian L + psi . (F, G) = (a/2) f^2 + b f + ...

    The costates enter b through psi . d(F, G)/df at f = 0, and a through
    psi3 c2 f^2, the only term of F or G quadratic in f.  With all
    costates zero these are the payoff's coefficients, as in the fixed-point
    update.
    """
    mu, eta, rho, h20, h11, h02 = x.T
    a, b = dyn.payoff_coeffs(eta, rho, h11, h02)
    zero = np.zeros_like(a)
    c_f = jacobian(dyn.coeff_rhs, (mu, eta, rho, zero), (3,))[..., 0]
    g_f = jacobian(dyn.moment_rhs, (h20, h11, h02, mu, eta, rho, zero), (6,))[..., 0]
    q_f, p_f = (psi[:, :3] * c_f).sum(axis=1), (psi[:, 3:] * g_f).sum(axis=1)
    return a + 2.0 * dyn.c2 * psi[:, 2], b + q_f + p_f


def fbs_solve(
    params: ModelParams, config: RedConfig, grid: GridConfig
) -> OptimizationReport:
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
