"""The pattern optimizer's objective and its closed-form node updates.

The observer instills a pattern f_c and pays a proximity penalty for moving
away from the pattern currently trusted by the controller:

    J_red(f_c) = E[log LR] + (lambda_reg / sigma_w^2) * P(f_c)

where E[log LR] comes from the moment closure, ``redblue.moments.solve_stack``
(one pattern or a batch), and P is either a quadratic or a logarithmic trust
penalty; ``objective_terms`` forms J.  Minimizing the pointwise integrand
gives the closed-form node update shared by the fixed-point and sweep
solvers, which are update rules of the one loop ``sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from ..errors import InputError, NumericError
from ..model import (
    Constant,
    GridConfig,
    GridSampled,
    ModelParams,
    TimeFunction,
    grid_function,
    sample_on_grid,
)
from ..moments import solve_stack

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
            raise InputError(f"unknown penalty kind {self.penalty_kind!r}")
        if self.solver not in _SOLVERS:
            raise InputError(f"unknown solver {self.solver!r}")
        if not self.lambda_reg >= 0.0:
            raise InputError("lambda_reg must be >= 0")
        if not self.tolerance > 0.0:
            raise InputError("tolerance must be positive")
        if not isinstance(self.max_iters, Integral):
            raise InputError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise InputError("max_iters must be >= 1")
        if not 0.0 < self.fbs_relaxation <= 1.0:
            raise InputError("fbs_relaxation must be in (0, 1]")


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


def anchor_values(config: RedConfig, grid: GridConfig) -> np.ndarray:
    """The anchor's node values.  The logarithmic penalty needs them
    positive only where it is read, at lambda_reg > 0."""
    anchor = sample_on_grid(config.f_c_initial, grid)
    if (
        config.penalty_kind == PENALTY_LOGARITHMIC
        and config.lambda_reg > 0.0
        and np.any(anchor <= 0.0)
    ):
        raise InputError("logarithmic penalty needs a positive anchor")
    return anchor


def anchored_penalty(
    f: np.ndarray, anchor: np.ndarray, config: RedConfig, grid: GridConfig
) -> float:
    """Trapezoid quadrature over [0, T] of the trust penalty of the node
    values f, given the anchor's node values, so a solver that evaluates
    many patterns samples the anchor once."""
    if config.penalty_kind == PENALTY_QUADRATIC:
        return float(np.trapezoid((f - anchor) ** 2, dx=grid.h))
    if np.any(f <= 0.0):
        raise NumericError("logarithmic penalty needs f_c > 0 on the grid")
    return float(np.trapezoid(-anchor * np.log(f / anchor), dx=grid.h))


def objective_terms(
    params: ModelParams, config: RedConfig, grid: GridConfig, elr: float, f, anchor
) -> tuple[float, float]:
    """(P, J) of the node values f given their E[log LR].  P is not
    evaluated at lambda_reg = 0, where J is E[log LR], the anchor may be None
    and iterates may reach 0 under the logarithmic penalty."""
    if config.lambda_reg == 0.0:
        return 0.0, elr
    pen = anchored_penalty(f, anchor, config, grid)
    return pen, elr + (config.lambda_reg / params.sigma_w**2) * pen


def closed_form_update(
    a: np.ndarray, b: np.ndarray, anchor: np.ndarray, config: RedConfig
) -> np.ndarray:
    """Minimizer of (a/2) f^2 + b f plus the scaled penalty, nodewise.

    (a, b) are the payoff coefficients of ``redblue.dynamics`` (plus costate
    terms for the sweep); their 1/sigma_w^2 prefactor cancels against the
    penalty scaling lambda_reg / sigma_w^2 and is omitted from both.
    Quadratic penalty: f = (2 lambda_reg anchor - b) / (a + 2 lambda_reg).
    Logarithmic: positive root of a f^2 + b f - lambda_reg anchor = 0, which
    needs a > 0, and an anchor from ``anchor_values``, positive at
    lambda_reg > 0.  A non-finite update raises NumericError.
    """
    lreg = config.lambda_reg
    with np.errstate(over="ignore", invalid="ignore"):
        if config.penalty_kind == PENALTY_QUADRATIC:
            den = a + 2.0 * lreg
            if np.any(den <= 0.0):
                raise NumericError(
                    "quadratic update denominator not positive; "
                    "lam too small or lambda_reg too weak"
                )
            f = (2.0 * lreg * anchor - b) / den
        else:
            bad = np.flatnonzero(a <= 0.0)
            if bad.size:
                raise NumericError(
                    "logarithmic update needs a positive leading coefficient "
                    "a = (2 lam / (r_beta sigma_w^2) - 1) E[Y^2] (plus a costate "
                    "term under fbs), which needs lam > r_beta sigma_w^2 / 2 and "
                    f"E[Y^2] > 0; a = {a[bad[0]]} at node {bad[0]}"
                )
            # a > 0 and lreg * anchor >= 0 (a signed zero at lreg = 0) make
            # the discriminant >= 0 (or nan)
            disc = b * b + 4.0 * a * (lreg * anchor)
            root = (-b + np.sqrt(disc)) / (2.0 * a)
            # the exact root is >= 0; the clamp binds only when b * b
            # underflows, which leaves (-b + |b|) / 2a < 0 for a tiny positive b
            f = np.maximum(root, 0.0)
    if not np.isfinite(f).all():
        raise NumericError("closed-form pattern update is not finite")
    return f


def finish_report(
    params: ModelParams,
    config: RedConfig,
    grid: GridConfig,
    f_nodes: np.ndarray,
    anchor: np.ndarray,
    history: list[float],
    iterations: int,
    converged: bool,
) -> OptimizationReport:
    """Evaluate the returned pattern once more and assemble the report;
    ``anchor`` holds the anchor's node values."""
    _, elr = solve_stack(params, f_nodes, grid)
    pen, objective = objective_terms(params, config, grid, elr, f_nodes, anchor)
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


def sweep(
    params: ModelParams, config: RedConfig, grid: GridConfig, update: Callable
) -> OptimizationReport:
    """The fixed-point and sweep solvers' loop, from the anchor.

    ``update(f, x, anchor, history)`` gets f's node states x and a history
    ending with f's J.  It returns the next node values and the factor from
    its step to the step at the configured weight.  The loop stops once the
    step is below the tolerance (Euclidean norm), or after
    ``config.max_iters`` updates, and reports converged only if the step
    times the factor is below the tolerance too.
    """
    anchor = anchor_values(config, grid)
    f = anchor.copy()
    history: list[float] = []
    converged = False
    for iterations in range(1, config.max_iters + 1):
        x, elr = solve_stack(params, f, grid)
        history.append(objective_terms(params, config, grid, elr, f, anchor)[1])
        f_new, factor = update(f, x, anchor, history)
        with np.errstate(over="ignore"):  # the norm of a huge finite step is inf
            delta = float(np.linalg.norm(f_new - f))
        f = f_new
        if delta < config.tolerance:
            converged = delta * factor < config.tolerance
            break
    return finish_report(
        params, config, grid, f, anchor, history, iterations, converged
    )
