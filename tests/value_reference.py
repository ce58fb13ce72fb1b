"""The value function's gamma, theta and xi lines as the six-wide backward
solve wrote them before they were read off the closed loop's gains, kept as
the reference: each stage evaluates them with every factor computed in
place, in the operand order they were written in, stepped by the
per-stage reference loop."""

import numpy as np

from redblue.dynamics import Dynamics
from redblue.model import sample_on_half_grid
from redblue.riccati import terminal_conditions
from rk4_reference import reference_rk4


def solve_value_coeffs(params, pattern, grid):
    """The (n_steps + 1, 6) states (mu, eta, rho, gamma, theta, xi)."""
    fc = sample_on_half_grid(pattern.f_c, grid).tolist()
    fd = sample_on_half_grid(pattern.f_d, grid).tolist()
    vb = sample_on_half_grid(params.vbar, grid).tolist()
    dyn = Dynamics.of(params)
    ra, rb, r_v = dyn.r_alpha, dyn.r_beta, dyn.r_v
    u, c2, sb2, sw2 = dyn.u, dyn.c2, dyn.sb2, dyn.sw2

    def rhs(j, state):
        mu, eta, rho, gamma, theta, xi = state
        fc_t, fd_t, vb_t = fc[j], fd[j], vb[j]
        d_gamma = (
            mu * gamma / ra + eta * theta / rb - theta + r_v * vb_t - u * eta * fd_t
        )
        d_theta = (
            eta * gamma / ra
            + rho * theta / rb
            - u * theta * fc_t
            - u * fd_t * rho
            + c2 * fc_t * fd_t
        )
        d_xi = (
            gamma * gamma / (2.0 * ra)
            + theta * theta / (2.0 * rb)
            - 0.5 * sb2 * mu
            - 0.5 * sw2 * rho
            - u * fd_t * theta
            - 0.5 * r_v * vb_t * vb_t
            + 0.5 * c2 * fd_t * fd_t
        )
        return (*dyn.coeff_rhs(mu, eta, rho, fc_t), d_gamma, d_theta, d_xi)

    with np.errstate(all="ignore"):
        return reference_rk4(rhs, terminal_conditions(params), grid, -1)
