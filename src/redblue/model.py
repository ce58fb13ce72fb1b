"""Problem data: model parameters, time-dependent inputs, and the time grid.

The controlled system is one-dimensional: a velocity V steered by a primary
control alpha, and an observed position Y perturbed by a misdirection control
beta.  The misdirection weight ``lam`` trades primary-task cost against
steering the observer's likelihood-ratio statistic, and is well posed only for
0 <= lam <= r_beta * sigma_w**2 (closed upper bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    GridMismatchError,
    LambdaOutOfRangeError,
    NonPositiveHorizonError,
    NonPositiveWeightError,
    OutOfDomainError,
)

# Absolute slack when checking 0 <= t <= T, sized for float round-off at
# half-step times near the endpoints.
_DOMAIN_SLACK = 1e-9


def _as_float_array(t):
    return np.asarray(t, dtype=float)


def _scalar_or_array(t, values: np.ndarray):
    if np.ndim(t) == 0:
        return float(values)
    return values


class TimeFunction:
    """A deterministic function of time on [0, T].

    Subclasses are immutable and evaluable on scalars or numpy arrays.  A
    value that overflows is returned as inf or nan without a warning; the
    solves that read it fail their finiteness checks.
    """

    def __call__(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(TimeFunction):
    value: float

    def __call__(self, t):
        arr = _as_float_array(t)
        return _scalar_or_array(t, np.full(arr.shape, float(self.value)))


@dataclass(frozen=True)
class Affine(TimeFunction):
    """intercept + slope * t."""

    intercept: float
    slope: float

    def __call__(self, t):
        arr = _as_float_array(t)
        with np.errstate(over="ignore"):
            return _scalar_or_array(t, self.intercept + self.slope * arr)


@dataclass(frozen=True)
class Sinusoid(TimeFunction):
    """amplitude * sin(omega * t + phase)."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __call__(self, t):
        arr = _as_float_array(t)
        with np.errstate(over="ignore", invalid="ignore"):
            return _scalar_or_array(
                t, self.amplitude * np.sin(self.omega * arr + self.phase)
            )


@dataclass(frozen=True, eq=False)
class GridSampled(TimeFunction):
    """Node values on the uniform grid over [0, horizon], linear in between."""

    values: np.ndarray
    horizon: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("GridSampled needs a 1-d array of >= 2 node values")
        object.__setattr__(self, "values", vals)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.values.size)

    def __call__(self, t):
        arr = _as_float_array(t)
        if np.any(arr < -_DOMAIN_SLACK) or np.any(arr > self.horizon + _DOMAIN_SLACK):
            raise OutOfDomainError(
                f"time {t} outside [0, {self.horizon}] for grid-sampled function"
            )
        arr = np.clip(arr, 0.0, self.horizon)
        return _scalar_or_array(t, np.interp(arr, self.nodes(), self.values))


@dataclass(frozen=True)
class Pattern:
    """The observer-facing hypothesis shape: drift term f_c(t)*y + f_d(t)."""

    f_c: TimeFunction
    f_d: TimeFunction


ZERO_PATTERN = Pattern(Constant(0.0), Constant(0.0))


@dataclass(frozen=True)
class ModelParams:
    """Dynamics, cost weights, misdirection weight, and initial state.

    The planning horizon T is the grid's, ``GridConfig.horizon``.

    Fields
    ------
    sigma_b       velocity noise intensity
    sigma_w       observation noise intensity
    r_alpha       quadratic weight on the primary control
    r_beta        quadratic weight on the misdirection control
    r_v           running weight on velocity tracking
    t_v           terminal weight on velocity tracking
    vbar          running velocity target, a TimeFunction
    vbar_final    terminal velocity target
    lam           misdirection weight, in [0, r_beta * sigma_w**2]
    v0, y0        deterministic initial velocity and position
    """

    sigma_b: float
    sigma_w: float
    r_alpha: float
    r_beta: float
    r_v: float
    t_v: float
    vbar: TimeFunction
    vbar_final: float
    lam: float
    v0: float
    y0: float

    @property
    def lam_upper(self) -> float:
        return self.r_beta * self.sigma_w**2


def validate_params(params: ModelParams) -> ModelParams:
    """Check well-posedness and return the parameters unchanged.

    Idempotent: a validated instance validates again to the same value.
    """
    positives = {
        "sigma_b": params.sigma_b,
        "sigma_w": params.sigma_w,
        "r_alpha": params.r_alpha,
        "r_beta": params.r_beta,
        "r_v": params.r_v,
        "t_v": params.t_v,
    }
    for name, value in positives.items():
        if not (value > 0.0) or not math.isfinite(value):
            raise NonPositiveWeightError(f"{name} must be positive, got {value}")
    # sigma_w^2 divides the payoff and sets lam's upper bound, so it must be a
    # positive finite float; sigma_b^2 is only added, so 0.0 is harmless there
    if params.sigma_w * params.sigma_w in (0.0, math.inf):
        raise NonPositiveWeightError(
            f"sigma_w**2 must be a positive finite float, got sigma_w={params.sigma_w}"
        )
    if params.sigma_b * params.sigma_b == math.inf:
        raise NonPositiveWeightError(
            f"sigma_b**2 must be finite, got sigma_b={params.sigma_b}"
        )
    if not math.isfinite(params.lam) or params.lam < 0.0:
        raise LambdaOutOfRangeError(f"lam must be >= 0, got {params.lam}")
    if params.lam > params.lam_upper:
        raise LambdaOutOfRangeError(
            f"lam={params.lam} exceeds r_beta*sigma_w**2={params.lam_upper}"
        )
    for name in ("vbar_final", "v0", "y0"):
        if not math.isfinite(getattr(params, name)):
            raise NonPositiveWeightError(f"{name} must be finite")
    # the moment solve starts from v0**2, v0*y0 and y0**2; |v0*y0| is at most
    # the larger square, so finite squares keep all three finite
    for name in ("v0", "y0"):
        value = getattr(params, name)
        if value * value == math.inf:
            raise NonPositiveWeightError(
                f"{name}**2 must be finite, got {name}={value}"
            )
    return params


@dataclass(frozen=True)
class GridConfig:
    """Uniform grid t_k = k * h on [0, horizon] with h = horizon / n_steps."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if not (self.horizon > 0.0) or not math.isfinite(self.horizon):
            raise NonPositiveHorizonError(
                f"horizon must be positive and finite, got {self.horizon}"
            )

    @property
    def h(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def half_times(self) -> np.ndarray:
        """Nodes plus midpoints: 2*n_steps + 1 points, spacing h/2."""
        return np.linspace(0.0, self.horizon, 2 * self.n_steps + 1)


def check_same_grid(a: GridConfig, b: GridConfig) -> None:
    if a != b:
        raise GridMismatchError(f"grids differ: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class GridCurves:
    """Curves on a grid's nodes: every field after ``grid`` is one curve of
    n_steps + 1 values, checked when the record is built."""

    grid: GridConfig

    def __post_init__(self):
        n = self.grid.n_steps + 1
        for name in self.names():
            if np.shape(getattr(self, name)) != (n,):
                raise GridMismatchError(f"curve {name} does not hold {n} values")

    @classmethod
    def names(cls) -> tuple[str, ...]:
        """The curves' names, in field order."""
        return tuple(f.name for f in fields(cls)[1:])

    def curves(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.names())


def sample_on_grid(f: TimeFunction, grid: GridConfig) -> np.ndarray:
    """Node values of ``f`` on the grid."""
    return np.asarray(f(grid.times()), dtype=float)


def sample_on_half_grid(f: TimeFunction, grid: GridConfig) -> np.ndarray:
    """Values of ``f`` at nodes and midpoints (the RK stage times)."""
    return np.asarray(f(grid.half_times()), dtype=float)


def grid_function(values: np.ndarray, grid: GridConfig) -> GridSampled:
    """Wrap node values as a GridSampled function on the grid's span."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_steps + 1,):
        raise ValueError(
            f"expected {grid.n_steps + 1} node values, got shape {vals.shape}"
        )
    return GridSampled(vals, grid.horizon)
