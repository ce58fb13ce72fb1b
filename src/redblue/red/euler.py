"""Euler-discretized red objective and its exact reverse-mode gradient.

Network training needs the derivative of the objective with respect to the
pattern's node vector.  To make that derivative exact (not just consistent),
the training objective replaces the RK solves by forward Euler recursions on
the same grid:

    coefficients (backward):  s_k     = s_{k+1} - h F(s_{k+1}, f_{k+1})
    moments (forward):        m_{k+1} = m_k     + h G(m_k, s_k, f_k)

followed by trapezoid quadrature for the payoff and the penalty.  F, G, the
payoff and their transposed-Jacobian products come from ``redblue.dynamics``.
The gradient is computed by reverse accumulation through exactly these
recursions, so it matches central finite differences to rounding error.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import Dynamics
from ..errors import NonFiniteStateError, NonPositiveFcError
from ..model import GridConfig, ModelParams, sample_on_grid
from .objective import PENALTY_QUADRATIC, RedConfig


def _trapezoid_weights(grid: GridConfig) -> np.ndarray:
    w = np.full(grid.n_steps + 1, grid.h)
    w[0] = 0.5 * grid.h
    w[-1] = 0.5 * grid.h
    return w


def _euler_states(f: list[float], dyn: Dynamics, grid: GridConfig):
    """Rows (mu, eta, rho) and (h20, h11, h02) at every node from the Euler
    recursions, as tuples of floats."""
    n = grid.n_steps
    h = grid.h
    s = [dyn.coeff_terminal()] * (n + 1)
    for k in range(n - 1, -1, -1):
        mu, eta, rho = s[k + 1]
        d_mu, d_eta, d_rho = dyn.coeff_rhs(mu, eta, rho, f[k + 1])
        s[k] = (mu - h * d_mu, eta - h * d_eta, rho - h * d_rho)
    m = [dyn.moment_initial()]
    for k in range(n):
        h20, h11, h02 = m[k]
        d20, d11, d02 = dyn.moment_rhs(h20, h11, h02, *s[k], f[k])
        m.append((h20 + h * d20, h11 + h * d11, h02 + h * d02))
    return s, m


def _penalty_terms(f, anchor, w, config: RedConfig):
    """Penalty value and its derivative with respect to each node value."""
    if config.penalty_kind == PENALTY_QUADRATIC:
        diff = f - anchor
        return float(np.sum(w * diff * diff)), 2.0 * w * diff
    if np.any(f <= 0.0):
        raise NonPositiveFcError("logarithmic penalty needs f_c > 0 on the grid")
    value = float(np.sum(w * (-anchor * np.log(f / anchor))))
    return value, -w * anchor / f


def euler_objective_and_gradient(
    f: np.ndarray, params: ModelParams, config: RedConfig, grid: GridConfig
) -> tuple[float, np.ndarray]:
    """Objective J_red of the Euler discretization and dJ/df at every node."""
    f = np.asarray(f, dtype=float)
    n = grid.n_steps
    if f.shape != (n + 1,):
        raise ValueError(f"expected {n + 1} node values")
    h = grid.h
    dyn = Dynamics.of(params)
    sw2 = dyn.sw2
    w = _trapezoid_weights(grid)

    # The recursions and sweeps run on Python floats: the same IEEE double
    # arithmetic as numpy scalars, at a fraction of the cost per operation.
    f_list = f.tolist()
    s, m = _euler_states(f_list, dyn, grid)
    states = np.column_stack([np.array(s, dtype=float), np.array(m, dtype=float)])
    if not np.all(np.isfinite(states)):
        raise NonFiniteStateError("Euler recursion overflowed")
    mu, eta, rho, h20, h11, h02 = states.T

    elr = float(np.sum(w * (dyn.payoff(eta, rho, h11, h02, f) / sw2)))
    if config.lambda_reg != 0.0:
        anchor = sample_on_grid(config.f_c_initial, grid)
        pen, dpen = _penalty_terms(f, anchor, w, config)
        objective = elr + (config.lambda_reg / sw2) * pen
    else:
        dpen = None
        objective = elr

    # Direct derivatives of the quadrature with respect to f and the states.
    l_eta, l_rho, l_h11, l_h02, l_f = dyn.payoff_grad(eta, rho, h11, h02, f)
    grad = w * l_f / sw2
    if dpen is not None:
        grad = grad + (config.lambda_reg / sw2) * dpen
    bar_eta = w * l_eta / sw2
    bar_rho = w * l_rho / sw2
    bar_h11 = w * l_h11 / sw2
    bar_h02 = w * l_h02 / sw2

    # Reverse sweep of the forward moment recursion; p = dJ/d(m_k) running
    # adjoint, bs_* collect sensitivities pushed onto the coefficient curves.
    grad = grad.tolist()
    bar_h11 = bar_h11.tolist()
    bar_h02 = bar_h02.tolist()
    bs_mu = [0.0] * (n + 1)
    bs_eta = bar_eta.tolist()
    bs_rho = bar_rho.tolist()
    p = (0.0, bar_h11[n], bar_h02[n])
    for k in range(n - 1, -1, -1):
        d20, d11, d02, d_mu, d_eta, d_rho, d_f = dyn.moment_vjp(p, *m[k], *s[k], f_list[k])
        bs_mu[k] += h * d_mu
        bs_eta[k] += h * d_eta
        bs_rho[k] += h * d_rho
        grad[k] += h * d_f
        p = (
            p[0] + h * d20,
            p[1] + h * d11 + bar_h11[k],
            p[2] + h * d02 + bar_h02[k],
        )

    # Reverse sweep of the backward coefficient recursion, which runs from
    # k=0 upward because that recursion fills k from the top down.
    q = (bs_mu[0], bs_eta[0], bs_rho[0])
    for k in range(n):
        d_mu, d_eta, d_rho, d_f = dyn.coeff_vjp(q, *s[k + 1], f_list[k + 1])
        grad[k + 1] += -h * d_f
        if k + 1 < n:
            q = (
                q[0] - h * d_mu + bs_mu[k + 1],
                q[1] - h * d_eta + bs_eta[k + 1],
                q[2] - h * d_rho + bs_rho[k + 1],
            )
        # k+1 == n: the terminal condition is a constant, nothing to push.

    return objective, np.array(grad)


def euler_objective(
    f: np.ndarray, params: ModelParams, config: RedConfig, grid: GridConfig
) -> float:
    value, _ = euler_objective_and_gradient(f, params, config, grid)
    return value
