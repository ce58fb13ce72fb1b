"""The pattern optimizer's objective and its closed-form node updates.

The observer instills a pattern f_c and pays a proximity penalty for moving
away from the pattern currently trusted by the controller:

    J_red(f_c) = E[log LR] + (lambda_reg / sigma_w^2) * P(f_c)

where E[log LR] comes from the moment ODEs and P is either a quadratic or a
logarithmic trust penalty.  ``solve_stack`` evaluates E[log LR] for one
pattern or a batch by integrating the coefficient block F and the moment
block G of ``redblue.dynamics`` directly.  Minimizing the pointwise integrand
gives the closed-form node update shared by the fixed-point and sweep
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dynamics import Dynamics
from ..errors import (
    DegenerateDenominatorError,
    NonFiniteStateError,
    NonPositiveFcError,
)
from ..model import (
    Constant,
    GridConfig,
    GridSampled,
    ModelParams,
    TimeFunction,
    grid_function,
    sample_on_grid,
    sample_on_half_grid,
)
from ..moments import NOT_SIMPLIFIED, nodes_to_half_grid
from ..odeint import integrate_backward, integrate_forward

PENALTY_QUADRATIC = "quadratic"
PENALTY_LOGARITHMIC = "logarithmic"
SOLVER_FPI = "fpi"
SOLVER_FBS = "fbs"
SOLVER_NN = "nn"

_PENALTIES = (PENALTY_QUADRATIC, PENALTY_LOGARITHMIC)
_SOLVERS = (SOLVER_FPI, SOLVER_FBS, SOLVER_NN)


@dataclass(frozen=True)
class RedConfig:
    """Settings for one pattern-optimization run.

    lambda_reg may be zero (pure payoff, used by the local-minimum checks);
    the solvers themselves are normally run with lambda_reg > 0.
    """

    lambda_reg: float
    penalty_kind: str = PENALTY_QUADRATIC
    f_c_initial: TimeFunction = Constant(1.0)
    solver: str = SOLVER_FPI
    tolerance: float = 1e-3
    max_iters: int = 200
    fbs_relaxation: float = 0.5

    def __post_init__(self):
        if self.penalty_kind not in _PENALTIES:
            raise ValueError(f"unknown penalty kind {self.penalty_kind!r}")
        if self.solver not in _SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if not self.lambda_reg >= 0.0:
            raise ValueError("lambda_reg must be >= 0")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.fbs_relaxation <= 1.0:
            raise ValueError("fbs_relaxation must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    f_c: GridSampled
    objective_history: list[float]
    iterations: int
    converged: bool
    final_expected_log_lr: float
    final_penalty: float
    final_objective: float

    def as_dict(self) -> dict:
        return {
            "f_c": self.f_c.values.tolist(),
            "objective_history": list(self.objective_history),
            "iterations": self.iterations,
            "converged": self.converged,
            "final_expected_log_lr": self.final_expected_log_lr,
            "final_penalty": self.final_penalty,
            "final_objective": self.final_objective,
        }


def node_values(f_c, grid: GridConfig) -> np.ndarray:
    """Accept a TimeFunction or a bare node array; return node values."""
    if isinstance(f_c, TimeFunction):
        return sample_on_grid(f_c, grid)
    vals = np.asarray(f_c, dtype=float)
    if vals.shape != (grid.n_steps + 1,):
        raise ValueError(f"expected {grid.n_steps + 1} node values")
    return vals


def anchor_values(config: RedConfig, grid: GridConfig) -> np.ndarray:
    anchor = sample_on_grid(config.f_c_initial, grid)
    if config.penalty_kind == PENALTY_LOGARITHMIC and np.any(anchor <= 0.0):
        raise NonPositiveFcError("logarithmic penalty needs a positive anchor")
    return anchor


def penalty(f_c, config: RedConfig, grid: GridConfig) -> float:
    """Trapezoid quadrature of the trust penalty over [0, T]."""
    f = node_values(f_c, grid)
    anchor = anchor_values(config, grid)
    if config.penalty_kind == PENALTY_QUADRATIC:
        return float(np.trapezoid((f - anchor) ** 2, dx=grid.h))
    if np.any(f <= 0.0):
        raise NonPositiveFcError("logarithmic penalty needs f_c > 0 on the grid")
    return float(np.trapezoid(-anchor * np.log(f / anchor), dx=grid.h))


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
    member is sampled on its own, the right-hand sides step every member
    with the same operations in the same order, and each member's payoff is
    integrated along a contiguous row (numpy sums a strided axis row by row,
    not pairwise).
    """
    vbar = sample_on_half_grid(params.vbar, grid)
    if params.vbar_final != 0.0 or np.any(vbar != 0.0):
        raise ValueError(NOT_SIMPLIFIED)
    nodes = np.asarray(f_nodes, dtype=float)
    batch = nodes.shape[:-1]
    # a boundary state times ones holds one copy of it per member
    ones = np.ones(batch)
    # stage-time tables: one float, or one (B,) row, per half-grid point
    as_rows = list if batch else np.ndarray.tolist
    if batch:
        f = np.column_stack(
            [sample_on_half_grid(grid_function(row, grid), grid) for row in nodes]
        )
    else:
        f = sample_on_half_grid(grid_function(nodes, grid), grid)
    f = as_rows(f)
    dyn = Dynamics.of(params)
    coeff_rhs, moment_rhs = dyn.coeff_rhs, dyn.moment_rhs
    coeffs = integrate_backward(
        lambda j, s: coeff_rhs(*s, f[j]),
        np.multiply.outer(dyn.coeff_terminal(), ones),
        grid,
    )
    rows = as_rows(nodes_to_half_grid(coeffs))
    moments = integrate_forward(
        lambda j, m: moment_rhs(*m, *rows[j], f[j]),
        np.multiply.outer(dyn.moment_initial(), ones),
        grid,
    )
    x = np.concatenate((coeffs, moments), axis=1)
    eta, rho, h11, h02 = (np.ascontiguousarray(x[:, i].T) for i in (1, 2, 4, 5))
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = dyn.payoff(eta, rho, h11, h02, nodes) / dyn.sw2
        elr = np.trapezoid(integrand, dx=grid.h, axis=-1)
    return x, (elr if batch else float(elr))


def closed_form_update(
    a: np.ndarray, b: np.ndarray, anchor: np.ndarray, config: RedConfig
) -> np.ndarray:
    """Minimizer of (a/2) f^2 + b f plus the scaled penalty, nodewise.

    (a, b) are the payoff coefficients of ``redblue.dynamics`` (plus costate
    terms for the sweep); their 1/sigma_w^2 prefactor cancels against the
    penalty scaling lambda_reg / sigma_w^2 and is omitted from both.
    Quadratic penalty: f = (2 lambda_reg anchor - b) / (a + 2 lambda_reg).
    Logarithmic: positive root of a f^2 + b f - lambda_reg anchor = 0.
    A non-finite update raises NonFiniteStateError.
    """
    lreg = config.lambda_reg
    with np.errstate(over="ignore", invalid="ignore"):
        if config.penalty_kind == PENALTY_QUADRATIC:
            den = a + 2.0 * lreg
            if np.any(den <= 0.0):
                raise DegenerateDenominatorError(
                    "quadratic update denominator not positive; "
                    "lam too small or lambda_reg too weak"
                )
            f = (2.0 * lreg * anchor - b) / den
        else:
            if np.any(anchor <= 0.0):
                raise NonPositiveFcError("logarithmic penalty needs a positive anchor")
            if np.any(a <= 0.0):
                raise DegenerateDenominatorError(
                    "logarithmic update needs a positive leading coefficient "
                    "(requires lam > r_beta sigma_w^2 / 2)"
                )
            # a > 0, anchor > 0 and lreg >= 0 make the discriminant >= 0 (or nan)
            disc = b * b + 4.0 * a * (lreg * anchor)
            root = (-b + np.sqrt(disc)) / (2.0 * a)
            # the exact root is >= 0; the clamp binds only when b * b
            # underflows, which leaves (-b + |b|) / 2a < 0 for a tiny positive b
            f = np.maximum(root, 0.0)
    if not np.isfinite(f).all():
        raise NonFiniteStateError("closed-form pattern update is not finite")
    return f


def finish_report(
    params: ModelParams,
    config: RedConfig,
    grid: GridConfig,
    f_nodes: np.ndarray,
    history: list[float],
    iterations: int,
    converged: bool,
) -> OptimizationReport:
    """Evaluate the returned pattern once more and assemble the report."""
    _, elr = solve_stack(params, f_nodes, grid)
    pen = penalty(f_nodes, config, grid) if config.lambda_reg != 0.0 else 0.0
    objective = elr + (config.lambda_reg / params.sigma_w**2) * pen
    history = list(history) + [objective]
    return OptimizationReport(
        f_c=grid_function(f_nodes, grid),
        objective_history=history,
        iterations=iterations,
        converged=converged,
        final_expected_log_lr=elr,
        final_penalty=pen,
        final_objective=objective,
    )
