"""Second moments of the optimally controlled state, and the observer payoff.

In the simplified setting (f_d identically zero, zero velocity target) the
closed-loop dynamics are linear and homogeneous, so the second moments
h20 = E[V^2], h11 = E[V Y], h02 = E[Y^2] close under three coupled ODEs, the
G of ``redblue.dynamics``.  They give the expected log likelihood ratio of the
instilled pattern in closed form.  These public solves take one pattern and
the six coefficient curves of ``solve_value_coeffs``; the pattern optimizers
integrate the same F and G for one pattern or a batch in
``redblue.red.objective.solve_stack``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Dynamics
from .errors import GridMismatchError
from .model import GridConfig, ModelParams, TimeFunction, sample_on_half_grid
from .odeint import integrate_forward
from .riccati import ValueCoeffs, check_same_grid

NOT_SIMPLIFIED = (
    "moment closure requires the simplified model: "
    "zero velocity targets and zero pattern offset"
)


@dataclass(frozen=True, eq=False)
class MomentCurves:
    """Grid-sampled h20, h11, h02 curves of length n_steps + 1."""

    grid: GridConfig
    h20: np.ndarray
    h11: np.ndarray
    h02: np.ndarray


def nodes_to_half_grid(values: np.ndarray) -> np.ndarray:
    """Linear interpolation of node values onto nodes plus midpoints, along
    axis 0 (every other axis is interpolated elementwise).  A midpoint sum
    that overflows is inf, without a warning, for the solve that reads it
    to reject."""
    values = np.asarray(values, dtype=float)
    out = np.empty((2 * len(values) - 1, *values.shape[1:]))
    out[0::2] = values
    with np.errstate(over="ignore"):
        out[1::2] = 0.5 * (values[:-1] + values[1:])
    return out


def _require_simplified(coeffs: ValueCoeffs) -> None:
    # The three-moment closure needs homogeneous closed-loop dynamics, i.e.
    # gamma and theta identically zero (zero targets and zero f_d).
    if np.max(np.abs(coeffs.gamma)) > 1e-12 or np.max(np.abs(coeffs.theta)) > 1e-12:
        raise ValueError(NOT_SIMPLIFIED)


def solve_moments(
    params: ModelParams, coeffs: ValueCoeffs, f_c: TimeFunction, grid: GridConfig
) -> MomentCurves:
    """Forward RK4 solve of the three moment equations.

    ``coeffs`` must come from the same grid and the same f_c (with zero
    f_d and zero velocity targets).
    """
    check_same_grid(coeffs.grid, grid)
    _require_simplified(coeffs)
    # one row of Python floats (mu, eta, rho) per half-grid point
    curves = np.column_stack((coeffs.mu, coeffs.eta, coeffs.rho))
    rows = nodes_to_half_grid(curves).tolist()
    f = sample_on_half_grid(f_c, grid).tolist()
    dyn = Dynamics.of(params)
    moment_rhs = dyn.moment_rhs

    def rhs(j: int, state: tuple) -> tuple:
        h20, h11, h02 = state
        return moment_rhs(h20, h11, h02, *rows[j], f[j])

    states = integrate_forward(rhs, dyn.moment_initial(), grid)
    return MomentCurves(
        grid=grid,
        h20=states[:, 0].copy(),
        h11=states[:, 1].copy(),
        h02=states[:, 2].copy(),
    )


def expected_log_lr(
    params: ModelParams,
    coeffs: ValueCoeffs,
    f_c: TimeFunction,
    moments: MomentCurves,
    grid: GridConfig,
) -> float:
    """Trapezoid quadrature of the expected log likelihood ratio, whose
    integrand at each node is the payoff of ``redblue.dynamics`` over
    sigma_w^2."""
    check_same_grid(coeffs.grid, grid)
    check_same_grid(moments.grid, grid)
    fc = np.asarray(f_c(grid.times()), dtype=float)
    for curve in (coeffs.eta, coeffs.rho, moments.h11, moments.h02):
        if curve.shape != fc.shape:
            raise GridMismatchError("curve length does not match the grid")
    dyn = Dynamics.of(params)
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = dyn.payoff(coeffs.eta, coeffs.rho, moments.h11, moments.h02, fc)
        return float(np.trapezoid(integrand / dyn.sw2, dx=grid.h))
