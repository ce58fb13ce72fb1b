"""The moment closure: second moments of the controlled state, and E[log LR].

In the simplified setting (zero velocity targets, f_d identically zero) the
closed-loop dynamics are linear and homogeneous, so the second moments
h20 = E[V^2], h11 = E[V Y], h02 = E[Y^2] close under three coupled ODEs, the
G of ``redblue.dynamics``.  They give the expected log likelihood ratio of the
instilled pattern in closed form: the payoff of ``redblue.dynamics`` over
sigma_w^2, integrated by the trapezoid rule.

This module is the only place that steps G, integrates the payoff and decides
whether the closure applies.  ``solve_stack`` steps the coefficient block F
and then G for one pattern or a batch; the pattern optimizers call it.
F's rates, ``dynamics.Dynamics.coeff_rhs``, go to
``odeint.integrate_backward`` with the pattern as their forcing, and
step through the RK4 loop generated from their expressions.  The public
``solve_moments`` and ``expected_log_lr`` take one pattern and the six
coefficient curves of ``solve_value_coeffs``, and go through the same G
stepper and payoff integral.  G = K m + sigma is linear in the moments, and
its matrix K, dG/dm of ``dynamics.Dynamics.moment_rhs`` from
``odeint.jacobian``, depends only on the coefficients and the pattern, so
the G stepper lays K and sigma out over the half grid, with numpy, and
``odeint.integrate_linear`` turns them into the RK4 step maps and
composes those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Dynamics
from .errors import InputError
from .model import (
    GridConfig,
    GridCurves,
    ModelParams,
    TimeFunction,
    check_same_grid,
    grid_function,
    sample_on_half_grid,
)
from .odeint import integrate_backward, integrate_linear, jacobian
from .riccati import ValueCoeffs

NOT_SIMPLIFIED = (
    "moment closure requires the simplified model: "
    "zero velocity targets and zero pattern offset"
)


@dataclass(frozen=True, eq=False)
class MomentCurves(GridCurves):
    """The second-moment curves h20, h11, h02 on the grid's nodes."""

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


def require_closure(params: ModelParams, grid: GridConfig, *offset_lines) -> None:
    """The one rule under which the closure applies: the velocity targets
    are exactly zero at every stage time and at T, and so is every gamma
    or theta curve given (a caller that cannot see f_d passes them, since
    a nonzero f_d shows only there)."""
    vbar = sample_on_half_grid(params.vbar, grid)
    if params.vbar_final != 0.0 or any(
        np.any(line != 0.0) for line in (vbar, *offset_lines)
    ):
        raise InputError(NOT_SIMPLIFIED)


def _step_moments(
    dyn: Dynamics, coeffs: np.ndarray, f: np.ndarray, grid: GridConfig
) -> np.ndarray:
    """G = K m + sigma stepped forward from its initial state.

    ``coeffs`` holds the (n_steps + 1, 3) node values of (mu, eta, rho), or
    (n_steps + 1, 3, B) for a batch of B patterns; ``f`` holds the pattern at
    every half-grid point, (2 n_steps + 1,) or (2 n_steps + 1, B).  K and
    sigma form the augmented matrix [[K, sigma], [0, 0]] at every half-grid
    point, whose RK4 step maps ``integrate_linear`` builds and composes.
    Returns the node states (h20, h11, h02) in the layout of ``coeffs``.
    """
    # the initial state times ones holds one copy of it per member
    initial = np.multiply.outer(dyn.moment_initial(), np.ones(coeffs.shape[2:]))
    return integrate_linear(_moment_matrices(dyn, coeffs, f), initial, grid, 1)


def _moment_matrices(dyn: Dynamics, coeffs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """[[K, sigma], [0, 0]] at every half-grid point, in the layout of ``f``.

    K's entries go into the matrices one by one, not through a stack of
    them, and the half-grid coefficients and the entries are freed on
    return, before the step maps are built beside the matrices.  K reads
    no moment, so the moments are passed as zeros.
    """
    mu, eta, rho = np.moveaxis(nodes_to_half_grid(coeffs), 1, 0)
    abar = np.zeros((*f.shape, 4, 4))
    args = (0.0, 0.0, 0.0, mu, eta, rho, f)
    jacobian(dyn.moment_rhs, args, (0, 1, 2), out=abar[..., :3, :3])
    abar[..., 0, 3] = dyn.sb2
    abar[..., 2, 3] = dyn.sw2
    return abar


def _payoff_integral(dyn: Dynamics, eta, rho, h11, h02, f, grid: GridConfig):
    """Trapezoid quadrature, along the last axis, of the payoff over
    sigma_w^2: the expected log likelihood ratio."""
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = dyn.payoff(eta, rho, h11, h02, f) / dyn.sw2
        return np.trapezoid(integrand, dx=grid.h, axis=-1)


def solve_stack(params: ModelParams, f_nodes: np.ndarray, grid: GridConfig):
    """States and expected log likelihood ratio under zero-offset patterns.

    Steps F = (mu, eta, rho) backward from its terminal state and
    G = (h20, h11, h02) forward from its initial state, then integrates the
    payoff over sigma_w^2 by the trapezoid rule.  Returns ``(x, elr)``,
    where x holds the node states (mu, eta, rho, h20, h11, h02).  These are
    the curves and the value of ``solve_value_coeffs``, ``solve_moments``
    and ``expected_log_lr`` without the gamma, theta and xi lines, which
    the payoff never reads.  Gamma and theta vanish identically exactly
    when the velocity targets are zero at every stage time, so the targets
    are checked first.

    ``f_nodes`` holds (n_steps + 1,) node values, giving an (n_steps + 1, 6)
    x and a float, or (B, n_steps + 1) node values of B patterns solved as
    one batch, giving an (n_steps + 1, 6, B) x and a (B,) array.  Member b
    equals ``solve_stack(params, f_nodes[b], grid)`` bit for bit: each
    member is sampled on its own, F's generated loop steps every member
    with the same operations in the same order, G's step maps are each
    member's own matrix products, and each member's payoff is integrated
    along a contiguous row (numpy sums a strided axis row by row, not
    pairwise).
    """
    require_closure(params, grid)
    nodes = np.asarray(f_nodes, dtype=float)
    batch = nodes.shape[:-1]
    # the pattern at the stage times, (2 n_steps + 1,) or (2 n_steps + 1, B)
    if batch:
        f = np.column_stack(
            [sample_on_half_grid(grid_function(row, grid), grid) for row in nodes]
        )
    else:
        f = sample_on_half_grid(grid_function(nodes, grid), grid)
    dyn = Dynamics.of(params)
    coeffs = integrate_backward(
        dyn.coeff_rhs,
        # one column: a float, or a (B,) row, per half-grid point
        [list(f) if batch else f.tolist()],
        np.multiply.outer(dyn.coeff_terminal(), np.ones(batch)),
        grid,
    )
    x = np.concatenate((coeffs, _step_moments(dyn, coeffs, f, grid)), axis=1)
    eta, rho, h11, h02 = (np.ascontiguousarray(x[:, i].T) for i in (1, 2, 4, 5))
    elr = _payoff_integral(dyn, eta, rho, h11, h02, nodes, grid)
    return x, (elr if batch else float(elr))


def solve_moments(
    params: ModelParams, coeffs: ValueCoeffs, f_c: TimeFunction, grid: GridConfig
) -> MomentCurves:
    """Forward RK4 solve of the three moment equations.

    ``coeffs`` must come from the same grid and the same f_c, with zero
    velocity targets and zero f_d: identically zero gamma and theta curves.
    """
    check_same_grid(coeffs.grid, grid)
    require_closure(params, grid, coeffs.gamma, coeffs.theta)
    curves = np.column_stack((coeffs.mu, coeffs.eta, coeffs.rho))
    f = sample_on_half_grid(f_c, grid)
    states = _step_moments(Dynamics.of(params), curves, f, grid)
    # one contiguous row per curve
    return MomentCurves(grid, *states.T.copy())


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
    dyn = Dynamics.of(params)
    return float(
        _payoff_integral(dyn, coeffs.eta, coeffs.rho, moments.h11, moments.h02, fc, grid)
    )
