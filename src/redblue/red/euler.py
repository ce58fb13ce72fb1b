"""Euler-discretized red objective and its exact reverse-mode gradient.

Network training needs the derivative of the objective with respect to the
pattern's node vector.  To make that derivative exact (not just consistent),
the training objective replaces the RK solves by forward Euler recursions on
the same grid:

    coefficients (backward):  s_k     = s_{k+1} - h F(s_{k+1}, f_{k+1})
    moments (forward):        m_{k+1} = m_k     + h G(m_k, s_k, f_k)

followed by trapezoid quadrature for the payoff, and J of
``objective.objective_terms``.  F, G, the payoff and their
transposed-Jacobian products come from ``redblue.dynamics``.
The gradient is computed by reverse accumulation through exactly these
recursions, so it matches central finite differences to rounding error.

The forward recursions and the covector recurrences of the reverse sweeps
are stepped node by node, with one own-state block call per node.  The
moment recursion, G = K m + sigma, and its reverse sweep, K^T p, read one
table of K over the nodes, built once after the coefficient recursion.
The sensitivities that feed no later step, of the moment sweep onto the
coefficient block and of both sweeps onto f, are evaluated once over all
nodes as numpy arrays and added in the order the per-node sweeps add them.
The payoff's coefficients (a, b) are computed once, for the payoff and
its derivative in f alike.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import Dynamics
from ..errors import NonFiniteStateError
from ..model import GridConfig, ModelParams
from .objective import PENALTY_QUADRATIC, RedConfig, anchor_values, objective_terms


def _trapezoid_weights(grid: GridConfig) -> np.ndarray:
    w = np.full(grid.n_steps + 1, grid.h)
    w[0] = 0.5 * grid.h
    w[-1] = 0.5 * grid.h
    return w


def _euler_states(
    f: np.ndarray, f_list: list[float], dyn: Dynamics, grid: GridConfig
):
    """Lists mu, eta, rho, h20, h11, h02 of floats, one entry per node, from
    the Euler recursions, and K of G = K m + sigma at every node, one list
    of its seven entries each, built once after the coefficient recursion
    for the moment recursion and its reverse sweep."""
    n = grid.n_steps
    h = grid.h
    mu, eta, rho = ([0.0] * (n + 1) for _ in range(3))
    s1, s2, s3 = dyn.coeff_terminal()
    mu[n], eta[n], rho[n] = s1, s2, s3
    for k in range(n - 1, -1, -1):
        d_mu, d_eta, d_rho = dyn.coeff_rhs(s1, s2, s3, f_list[k + 1])
        s1, s2, s3 = s1 - h * d_mu, s2 - h * d_eta, s3 - h * d_rho
        mu[k], eta[k], rho[k] = s1, s2, s3
    # an overflowed coefficient gives inf or nan here, as in the floats
    with np.errstate(over="ignore", invalid="ignore"):
        gains = np.array(dyn.moment_gains(*np.array((mu, eta, rho)), f)).T.tolist()
    h20, h11, h02 = ([0.0] * (n + 1) for _ in range(3))
    m1, m2, m3 = dyn.moment_initial()
    h20[0], h11[0], h02[0] = m1, m2, m3
    for k in range(n):
        d20, d11, d02 = dyn.moment_rhs(m1, m2, m3, gains[k])
        m1, m2, m3 = m1 + h * d20, m2 + h * d11, m3 + h * d02
        h20[k + 1], h11[k + 1], h02[k + 1] = m1, m2, m3
    return (mu, eta, rho, h20, h11, h02), gains


def _penalty_grad(f, anchor, w, config: RedConfig) -> np.ndarray:
    """dP/df at each node, P being ``objective.anchored_penalty``."""
    if config.penalty_kind == PENALTY_QUADRATIC:
        return 2.0 * w * (f - anchor)
    return -w * anchor / f


def euler_objective_and_gradient(
    f: np.ndarray,
    params: ModelParams,
    config: RedConfig,
    grid: GridConfig,
    anchor: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Objective J_red of the Euler discretization and dJ/df at every node.

    ``anchor`` is ``config.f_c_initial`` at the nodes; it is sampled and
    checked by ``anchor_values`` here when not given, so a caller that
    evaluates many patterns samples it once.
    """
    f = np.asarray(f, dtype=float)
    n = grid.n_steps
    if f.shape != (n + 1,):
        raise ValueError(f"expected {n + 1} node values")
    h = grid.h
    dyn = Dynamics.of(params)
    sw2 = dyn.sw2
    w = _trapezoid_weights(grid)

    # The recursions and sweeps step Python floats: the same IEEE double
    # arithmetic as numpy scalars, at a fraction of the cost per operation.
    # Every sensitivity that does not feed the next step is then evaluated
    # once over all nodes as numpy arrays, which round as the floats do.
    f_list = f.tolist()
    lists, gains = _euler_states(f, f_list, dyn, grid)
    states = np.array(lists)
    if not np.all(np.isfinite(states)):
        raise NonFiniteStateError("Euler recursion overflowed")
    mu_l, eta_l, rho_l, _, _, _ = lists
    mu, eta, rho, h20, h11, h02 = states

    a, b = dyn.payoff_coeffs(eta, rho, h11, h02)
    elr = float(np.sum(w * (dyn.payoff_from(a, b, f) / sw2)))
    if anchor is None and config.lambda_reg != 0.0:
        anchor = anchor_values(config, grid)
    _, objective = objective_terms(params, config, grid, elr, f, anchor)

    # Direct derivatives of the quadrature with respect to f and the states.
    l_eta, l_rho = dyn.payoff_grad_s(h11, h02, f)
    l_h11, l_h02 = dyn.payoff_grad_m(eta, rho, f)
    grad = w * dyn.payoff_grad_f(a, b, f) / sw2
    if config.lambda_reg != 0.0:
        grad = grad + (config.lambda_reg / sw2) * _penalty_grad(f, anchor, w, config)
    # bs_* collect the sensitivities pushed onto the coefficient curves.
    bs_mu = np.zeros(n + 1)
    bs_eta = w * l_eta / sw2
    bs_rho = w * l_rho / sw2
    bar_h11 = (w * l_h11 / sw2).tolist()
    bar_h02 = (w * l_h02 / sw2).tolist()

    # Reverse sweep of the forward moment recursion: p = dJ/d(m_k) is the
    # running adjoint, and p_{k+1} is kept for the sensitivities of step k.
    p1s, p2s, p3s = ([0.0] * n for _ in range(3))
    p1, p2, p3 = 0.0, bar_h11[n], bar_h02[n]
    for k in range(n - 1, -1, -1):
        p1s[k], p2s[k], p3s[k] = p1, p2, p3
        d20, d11, d02 = dyn.moment_vjp_m((p1, p2, p3), gains[k])
        p1 = p1 + h * d20
        p2 = p2 + h * d11 + bar_h11[k]
        p3 = p3 + h * d02 + bar_h02[k]
    p = np.array((p1s, p2s, p3s))
    # like the float sweeps, these overflow to inf or nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        d_s = dyn.moment_vjp_s(p, dyn.moment_jac_s(h20[:n], h11[:n], h02[:n]))
        for bs, d in zip((bs_mu, bs_eta, bs_rho), d_s):
            bs[:n] += h * d
        grad[:n] += h * dyn.moment_vjp_f(p, h11[:n], h02[:n])

    # Reverse sweep of the backward coefficient recursion, which runs from
    # k=0 upward because that recursion fills k from the top down.  q_k =
    # dJ/d(s_k) meets F at node k+1; s_n is a constant, so q_{n-1} pushes
    # onto f_n only.
    bs_mu, bs_eta, bs_rho = bs_mu.tolist(), bs_eta.tolist(), bs_rho.tolist()
    q1s, q2s, q3s = ([0.0] * n for _ in range(3))
    q1, q2, q3 = bs_mu[0], bs_eta[0], bs_rho[0]
    q1s[0], q2s[0], q3s[0] = q1, q2, q3
    for k in range(1, n):
        d_mu, d_eta, d_rho = dyn.coeff_vjp_s(
            (q1, q2, q3), mu_l[k], eta_l[k], rho_l[k], f_list[k]
        )
        q1 = q1 - h * d_mu + bs_mu[k]
        q2 = q2 - h * d_eta + bs_eta[k]
        q3 = q3 - h * d_rho + bs_rho[k]
        q1s[k], q2s[k], q3s[k] = q1, q2, q3
    q = np.array((q1s, q2s, q3s))
    with np.errstate(over="ignore", invalid="ignore"):
        grad[1:] += -h * dyn.coeff_vjp_f(q, eta[1:], rho[1:], f[1:])

    return objective, grad
