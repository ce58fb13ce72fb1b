"""Second moments of the optimally controlled state, and the observer payoff.

In the simplified setting (f_d identically zero, zero velocity target) the
closed-loop dynamics are linear and homogeneous, so the second moments
h20 = E[V^2], h11 = E[V Y], h02 = E[Y^2] close under three coupled ODEs, the
G of ``redblue.dynamics``.  They give the expected log likelihood ratio of the
instilled pattern in closed form, which is what the pattern optimizers
maximize.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import Dynamics
from .errors import GridMismatchError
from .model import GridConfig, ModelParams, TimeFunction, half_grid_rows
from .odeint import integrate_forward
from .riccati import ValueCoeffs, check_same_grid


@dataclass(frozen=True, eq=False)
class MomentCurves:
    """Grid-sampled h20, h11, h02 curves of length n_steps + 1 (shape
    (n_steps + 1, B) for a batch)."""

    grid: GridConfig
    h20: np.ndarray
    h11: np.ndarray
    h02: np.ndarray


def nodes_to_half_grid(values: np.ndarray) -> np.ndarray:
    """Linear interpolation of node values onto nodes plus midpoints, along
    axis 0 (a (n_steps + 1, B) batch interpolates each column)."""
    values = np.asarray(values, dtype=float)
    out = np.empty((2 * len(values) - 1, *values.shape[1:]))
    out[0::2] = values
    out[1::2] = 0.5 * (values[:-1] + values[1:])
    return out


def _require_simplified(coeffs: ValueCoeffs) -> None:
    # The three-moment closure needs homogeneous closed-loop dynamics, i.e.
    # gamma and theta identically zero (zero targets and zero f_d).
    if np.max(np.abs(coeffs.gamma)) > 1e-12 or np.max(np.abs(coeffs.theta)) > 1e-12:
        raise ValueError(
            "moment closure requires the simplified model: "
            "zero velocity targets and zero pattern offset"
        )


def solve_moments(
    params: ModelParams,
    coeffs: ValueCoeffs,
    f_c: TimeFunction | Sequence[TimeFunction],
    grid: GridConfig,
) -> MomentCurves:
    """Forward RK4 solve of the three moment equations.

    ``coeffs`` must come from the same grid and the same f_c (with zero
    f_d and zero velocity targets).  For a batch, ``coeffs`` holds
    (n_steps + 1, B) curves and f_c is the sequence of the B patterns; the
    moment curves are then (n_steps + 1, B) too.
    """
    check_same_grid(coeffs.grid, grid)
    _require_simplified(coeffs)
    # one row per half-grid point, (mu, eta, rho), as Python floats or as
    # (B,) arrays
    batch = coeffs.mu.shape[1:]
    table = np.empty((2 * grid.n_steps + 1, 3, *batch))
    for i, curve in enumerate((coeffs.mu, coeffs.eta, coeffs.rho)):
        table[:, i] = nodes_to_half_grid(curve)
    rows = list(table) if batch else table.tolist()
    f = half_grid_rows(f_c, grid)
    dyn = Dynamics.of(params)
    initial = np.asarray(dyn.moment_initial())
    if batch:
        initial = np.repeat(initial[:, None], batch[0], axis=1)
    moment_rhs = dyn.moment_rhs

    def rhs(j: int, state: tuple) -> tuple:
        h20, h11, h02 = state
        return moment_rhs(h20, h11, h02, *rows[j], f[j])

    states = integrate_forward(rhs, initial, grid)
    return MomentCurves(
        grid=grid,
        h20=states[:, 0].copy(),
        h11=states[:, 1].copy(),
        h02=states[:, 2].copy(),
    )


def expected_log_lr(
    params: ModelParams,
    coeffs: ValueCoeffs,
    f_c: TimeFunction | Sequence[TimeFunction],
    moments: MomentCurves,
    grid: GridConfig,
) -> float:
    """Trapezoid quadrature of the expected log likelihood ratio, whose
    integrand at each node is the payoff of ``redblue.dynamics`` over
    sigma_w^2.

    For a batch (f_c a sequence of B patterns, (n_steps + 1, B) curves)
    returns a (B,) array whose entry b equals the single solve's float.
    """
    check_same_grid(coeffs.grid, grid)
    check_same_grid(moments.grid, grid)
    times = grid.times()
    if isinstance(f_c, TimeFunction):
        fc = np.asarray(f_c(times), dtype=float)
    else:
        fc = np.stack([np.asarray(f(times), dtype=float) for f in f_c], axis=1)
    for curve in (coeffs.eta, coeffs.rho, moments.h11, moments.h02):
        if curve.shape != fc.shape:
            raise GridMismatchError("curve length does not match the grid")
    dyn = Dynamics.of(params)
    integrand = dyn.payoff(coeffs.eta, coeffs.rho, moments.h11, moments.h02, fc) / dyn.sw2
    if integrand.ndim == 1:
        return float(np.trapezoid(integrand, dx=grid.h))
    # numpy sums along a contiguous axis pairwise, as it sums a 1-D
    # integrand, but along a strided one row by row: each member's
    # integrand must be one contiguous row to match its single solve
    return np.trapezoid(np.ascontiguousarray(integrand.T), dx=grid.h, axis=-1)
