"""Euler-discretized red objective and its exact reverse-mode gradient.

Network training needs the derivative of the objective with respect to the
pattern's node vector.  To make that derivative exact (not just consistent),
the training objective replaces the RK solves by forward Euler recursions on
the same grid:

    coefficients (backward):  s_k     = s_{k+1} - h F(s_{k+1}, f_{k+1})
    moments (forward):        m_{k+1} = m_k     + h G(m_k, s_k, f_k)

followed by trapezoid quadrature for the payoff, and J of
``objective.objective_terms``.  F, G and the payoff come from
``redblue.dynamics``, and every derivative of them from
``odeint.jacobian``.  The gradient is computed by reverse accumulation
through exactly these recursions, so it matches central finite differences
to rounding error.

The forward recursions and the covector recurrences of the reverse sweeps
are stepped node by node on Python floats.  The moment recursion,
G = K m + sigma, and its reverse sweep, K^T p, read one table of K = dG/dm
over the nodes, built once after the coefficient recursion; the reverse
sweep of the coefficient recursion, q J_F, reads one table of F's Jacobian
J_F.  Each table is a list of flat rows, one per node, of the matrix's
nine entries, and the sweeps skip the two zero corners that both matrices
share, (0, 2) and (2, 0).  The sensitivities that feed no later step, of
the moment sweep onto the coefficient block and of both sweeps onto f, and
the payoff gradient are evaluated once over all nodes as numpy arrays and
added in the order the per-node sweeps add them.
"""

from __future__ import annotations

import numpy as np

from ..dynamics import Dynamics
from ..errors import InputError, NumericError
from ..model import GridConfig, ModelParams
from ..odeint import jacobian
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
    the Euler recursions, and the table of K, read by the moment recursion
    and its reverse sweep."""
    n = grid.n_steps
    h = grid.h
    mu, eta, rho = ([0.0] * (n + 1) for _ in range(3))
    s1, s2, s3 = dyn.coeff_terminal()
    mu[n], eta[n], rho[n] = s1, s2, s3
    for k in range(n - 1, -1, -1):
        d_mu, d_eta, d_rho = dyn.coeff_rhs(s1, s2, s3, f_list[k + 1])
        s1, s2, s3 = s1 - h * d_mu, s2 - h * d_eta, s3 - h * d_rho
        mu[k], eta[k], rho[k] = s1, s2, s3
    # K reads no moment, so the moments are passed as zeros; an overflowed
    # coefficient gives inf or nan here, as in the floats
    args = (0.0, 0.0, 0.0, *np.array((mu, eta, rho)), f)
    gains = jacobian(dyn.moment_rhs, args, (0, 1, 2)).reshape(-1, 9).tolist()
    sb2, sw2 = dyn.sb2, dyn.sw2
    h20, h11, h02 = ([0.0] * (n + 1) for _ in range(3))
    m1, m2, m3 = dyn.moment_initial()
    h20[0], h11[0], h02[0] = m1, m2, m3
    for k in range(n):
        k00, k01, _, k10, k11, k12, _, k21, k22 = gains[k]
        m1, m2, m3 = (
            m1 + h * (k00 * m1 + k01 * m2 + sb2),
            m2 + h * (k11 * m2 + k10 * m1 + k12 * m3),
            m3 + h * (k21 * m2 + k22 * m3 + sw2),
        )
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
        raise InputError(f"expected {n + 1} node values")
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
        raise NumericError("Euler recursion overflowed")
    mu, eta, rho, h20, h11, h02 = states

    elr = float(np.sum(w * (dyn.payoff(eta, rho, h11, h02, f) / sw2)))
    if anchor is None and config.lambda_reg != 0.0:
        anchor = anchor_values(config, grid)
    _, objective = objective_terms(params, config, grid, elr, f, anchor)

    # Direct derivatives of the quadrature with respect to the states and f;
    # bs_* collect the sensitivities pushed onto the coefficient curves.
    l_x = jacobian(dyn.payoff, (eta, rho, h11, h02, f), range(5))[:, 0].T
    bs_eta, bs_rho, bar_h11, bar_h02, grad = w * l_x / sw2
    bs_mu = np.zeros(n + 1)
    bar_h11, bar_h02 = bar_h11.tolist(), bar_h02.tolist()
    if config.lambda_reg != 0.0:
        grad = grad + (config.lambda_reg / sw2) * _penalty_grad(f, anchor, w, config)

    # Reverse sweep of the forward moment recursion: p = dJ/d(m_k) is the
    # running adjoint, and p_{k+1} is kept for the sensitivities of step k.
    p1s, p2s, p3s = ([0.0] * n for _ in range(3))
    p1, p2, p3 = 0.0, bar_h11[n], bar_h02[n]
    for k in range(n - 1, -1, -1):
        p1s[k], p2s[k], p3s[k] = p1, p2, p3
        k00, k01, _, k10, k11, k12, _, k21, k22 = gains[k]
        p1, p2, p3 = (
            p1 + h * (p1 * k00 + p2 * k10),
            p2 + h * (p1 * k01 + p2 * k11 + p3 * k21) + bar_h11[k],
            p3 + h * (p2 * k12 + p3 * k22) + bar_h02[k],
        )
    p = np.array((p1s, p2s, p3s))
    # dG/d(mu, eta, rho, f) at the nodes of the steps
    g_args = (h20[:n], h11[:n], h02[:n], mu[:n], eta[:n], rho[:n], f[:n])
    # like the float sweeps, these overflow to inf or nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        g_s = jacobian(dyn.moment_rhs, g_args, (3, 4, 5, 6))
        *d_s, d_f = np.einsum("rn,nrw->wn", p, g_s)
        for bs, d in zip((bs_mu, bs_eta, bs_rho), d_s):
            bs[:n] += h * d
        grad[:n] += h * d_f

    # Reverse sweep of the backward coefficient recursion, which runs from
    # k=0 upward because that recursion fills k from the top down.  q_k =
    # dJ/d(s_k) meets F at node k+1; s_n is a constant, so q_{n-1} pushes
    # onto f_n only.
    j_f = jacobian(dyn.coeff_rhs, (mu, eta, rho, f), (0, 1, 2, 3))
    table = j_f[:, :, :3].reshape(-1, 9).tolist()
    bs_mu, bs_eta, bs_rho = bs_mu.tolist(), bs_eta.tolist(), bs_rho.tolist()
    q1s, q2s, q3s = ([0.0] * n for _ in range(3))
    q1, q2, q3 = bs_mu[0], bs_eta[0], bs_rho[0]
    q1s[0], q2s[0], q3s[0] = q1, q2, q3
    for k in range(1, n):
        j00, j01, _, j10, j11, j12, _, j21, j22 = table[k]
        q1, q2, q3 = (
            q1 - h * (q1 * j00 + q2 * j10) + bs_mu[k],
            q2 - h * (q1 * j01 + q2 * j11 + q3 * j21) + bs_eta[k],
            q3 - h * (q2 * j12 + q3 * j22) + bs_rho[k],
        )
        q1s[k], q2s[k], q3s[k] = q1, q2, q3
    q = np.array((q1s, q2s, q3s))
    with np.errstate(over="ignore", invalid="ignore"):
        grad[1:] += -h * np.einsum("rn,nr->n", q, j_f[1:, :, 3])

    return objective, grad
