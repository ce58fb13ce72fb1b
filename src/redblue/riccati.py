"""Backward solve of the value-function coefficient system.

The blue team's value function is quadratic in (v, y):

    V(t, v, y) = mu/2 v^2 + eta v y + rho/2 y^2 + gamma v + theta y + xi,

so dynamic programming reduces to six coupled scalar ODEs integrated backward
from the terminal cost.  Their right-hand sides are stated in
``redblue.dynamics``: ``coeff_rhs`` for the autonomous (mu, eta, rho) block
F, and ``value_rhs`` for all six, adding the gamma and theta lines, which
pick up the running target vbar and the pattern offset f_d, and the xi line,
which collects the constant terms.  This module samples the forcing
(f_c, f_d, vbar) and runs the one backward solve of ``value_rhs``, for one
pattern; the pattern optimizers and the Stackelberg loop, which read only
(mu, eta, rho), integrate F alone for one pattern or a batch in
``redblue.moments.solve_stack``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Dynamics
from .model import GridConfig, GridCurves, ModelParams, Pattern, sample_on_half_grid
from .odeint import integrate_backward


@dataclass(frozen=True, eq=False)
class ValueCoeffs(GridCurves):
    """The six coefficient curves on the grid's nodes."""

    mu: np.ndarray
    eta: np.ndarray
    rho: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    xi: np.ndarray


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
    # the forcing (f_c, f_d, vbar) at every half-grid point
    forcing = zip(
        sample_on_half_grid(pattern.f_c, grid).tolist(),
        sample_on_half_grid(pattern.f_d, grid).tolist(),
        sample_on_half_grid(params.vbar, grid).tolist(),
    )
    states = integrate_backward(
        Dynamics.of(params).value_rhs, list(forcing), terminal_conditions(params), grid
    )
    # one contiguous row per curve
    return ValueCoeffs(grid, *states.T.copy())
