"""Backward solve of the value-function coefficient system.

The blue team's value function is quadratic in (v, y):

    V(t, v, y) = mu/2 v^2 + eta v y + rho/2 y^2 + gamma v + theta y + xi,

so dynamic programming reduces to six coupled scalar ODEs integrated backward
from the terminal cost.  The (mu, eta, rho) block is autonomous and its
equations F are stated in ``redblue.dynamics``; this module adds the gamma,
theta lines, which pick up the running target vbar and the pattern offset
f_d, and the xi line, which collects the constant terms.  This public solve
takes one pattern; the pattern optimizers, which read only (mu, eta, rho),
integrate F alone for one pattern or a batch in
``redblue.red.objective.solve_stack``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Dynamics
from .errors import GridMismatchError
from .model import GridConfig, ModelParams, Pattern, sample_on_half_grid
from .odeint import integrate_backward


@dataclass(frozen=True, eq=False)
class ValueCoeffs:
    """Grid-sampled coefficient curves, each of length n_steps + 1."""

    grid: GridConfig
    mu: np.ndarray
    eta: np.ndarray
    rho: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    xi: np.ndarray

    def value(self, k: int, v: float, y: float) -> float:
        """Quadratic value at node k (diagnostic)."""
        return (
            0.5 * self.mu[k] * v * v
            + self.eta[k] * v * y
            + 0.5 * self.rho[k] * y * y
            + self.gamma[k] * v
            + self.theta[k] * y
            + self.xi[k]
        )


def check_same_grid(a: GridConfig, b: GridConfig) -> None:
    if a.n_steps != b.n_steps or a.horizon != b.horizon:
        raise GridMismatchError(f"grids differ: {a} vs {b}")


def terminal_conditions(params: ModelParams) -> np.ndarray:
    """(mu, eta, rho, gamma, theta, xi) at t = T."""
    return np.array(
        [
            *Dynamics.of(params).coeff_terminal(),
            -params.t_v * params.vbar_final,
            0.0,
            0.5 * params.t_v * params.vbar_final**2,
        ]
    )


def solve_value_coeffs(
    params: ModelParams, pattern: Pattern, grid: GridConfig
) -> ValueCoeffs:
    """Backward RK4 solve of the six coefficient equations.

    The last node satisfies the terminal conditions exactly.  Pattern and
    target curves are pre-sampled at nodes and midpoints, the only times the
    integrator touches.
    """
    fc = sample_on_half_grid(pattern.f_c, grid).tolist()
    fd = sample_on_half_grid(pattern.f_d, grid).tolist()
    vb = sample_on_half_grid(params.vbar, grid).tolist()
    dyn = Dynamics.of(params)
    coeff_rhs = dyn.coeff_rhs
    r_alpha, r_beta, r_v = dyn.r_alpha, dyn.r_beta, dyn.r_v
    u, c2, sb2, sw2 = dyn.u, dyn.c2, dyn.sb2, dyn.sw2

    def rhs(j: int, state: tuple) -> tuple:
        mu, eta, rho, gamma, theta, xi = state
        fc_t = fc[j]
        fd_t = fd[j]
        vb_t = vb[j]
        d_mu, d_eta, d_rho = coeff_rhs(mu, eta, rho, fc_t)
        d_gamma = (
            mu * gamma / r_alpha
            + eta * theta / r_beta
            - theta
            + r_v * vb_t
            - u * eta * fd_t
        )
        d_theta = (
            eta * gamma / r_alpha
            + rho * theta / r_beta
            - u * theta * fc_t
            - u * fd_t * rho
            + c2 * fc_t * fd_t
        )
        d_xi = (
            gamma * gamma / (2.0 * r_alpha)
            + theta * theta / (2.0 * r_beta)
            - 0.5 * sb2 * mu
            - 0.5 * sw2 * rho
            - u * fd_t * theta
            - 0.5 * r_v * vb_t * vb_t
            + 0.5 * c2 * fd_t * fd_t
        )
        return d_mu, d_eta, d_rho, d_gamma, d_theta, d_xi

    states = integrate_backward(rhs, terminal_conditions(params), grid)
    return ValueCoeffs(
        grid=grid,
        mu=states[:, 0].copy(),
        eta=states[:, 1].copy(),
        rho=states[:, 2].copy(),
        gamma=states[:, 3].copy(),
        theta=states[:, 4].copy(),
        xi=states[:, 5].copy(),
    )
