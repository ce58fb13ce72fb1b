"""Blue-team feedback controls built from the solved coefficient curves.

Both controls are affine in the state,

    alpha_hat(t, v, y) = a_v v + a_y y + a_0
    beta_hat(t, v, y)  = b_v v + b_y y + b_0,

with the gains of ``redblue.dynamics`` (``Dynamics.state_gains`` and
``offset_gains``), the only place they are written out.  Coefficient curves
are linearly interpolated between nodes for off-grid times; the pattern
functions are evaluated exactly.  Without misdirection (lam = 0 or a zero
pattern) beta_hat vanishes identically, and at the upper bound
lam = r_beta sigma_w^2 it reproduces the pattern drift f_c(t) y + f_d(t)
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import Dynamics
from .errors import GridMismatchError, OutOfDomainError
from .model import GridConfig, ModelParams, Pattern, sample_on_grid
from .riccati import ValueCoeffs, check_same_grid, solve_value_coeffs


@dataclass(eq=False)
class FeedbackPolicy:
    """Immutable-by-convention bundle of everything beta/alpha evaluation needs.

    Node tables for both controls are precomputed so the path simulator can
    stay vectorized; off-node queries interpolate the coefficient curves.
    """

    params: ModelParams
    pattern: Pattern
    grid: GridConfig
    coeffs: ValueCoeffs
    alpha_v: np.ndarray = field(init=False)
    alpha_y: np.ndarray = field(init=False)
    alpha_0: np.ndarray = field(init=False)
    beta_v: np.ndarray = field(init=False)
    beta_y: np.ndarray = field(init=False)
    beta_0: np.ndarray = field(init=False)

    def __post_init__(self):
        check_same_grid(self.grid, self.coeffs.grid)
        n = self.grid.n_steps + 1
        for name in ("mu", "eta", "rho", "gamma", "theta", "xi"):
            if getattr(self.coeffs, name).shape != (n,):
                raise GridMismatchError(f"coefficient curve {name} has wrong length")
        dyn = Dynamics.of(self.params)
        c = self.coeffs
        fc = sample_on_grid(self.pattern.f_c, self.grid)
        fd = sample_on_grid(self.pattern.f_d, self.grid)
        self.alpha_v, self.alpha_y, self.beta_v, self.beta_y = dyn.state_gains(
            c.mu, c.eta, c.rho, fc
        )
        self.alpha_0, self.beta_0 = dyn.offset_gains(c.gamma, c.theta, fd)

    @classmethod
    def solve(
        cls, params: ModelParams, pattern: Pattern, grid: GridConfig
    ) -> "FeedbackPolicy":
        return cls(params, pattern, grid, solve_value_coeffs(params, pattern, grid))

    def _gains(self, t):
        """(a_v, a_y, b_v, b_y, a_0, b_0) at time t: the coefficient curves
        interpolated in t, the pattern evaluated exactly."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -1e-9) or np.any(arr > self.grid.horizon + 1e-9):
            raise OutOfDomainError(f"time {t} outside [0, {self.grid.horizon}]")
        c, nodes = self.coeffs, self.grid.times()
        at = np.clip(t, 0.0, self.grid.horizon)
        mu, eta, rho, gamma, theta = (
            np.interp(at, nodes, curve)
            for curve in (c.mu, c.eta, c.rho, c.gamma, c.theta)
        )
        dyn = Dynamics.of(self.params)
        return (
            *dyn.state_gains(mu, eta, rho, self.pattern.f_c(t)),
            *dyn.offset_gains(gamma, theta, self.pattern.f_d(t)),
        )


def optimal_alpha(policy: FeedbackPolicy, t, v, y):
    """Primary control at (t, v, y); coefficient curves interpolated in t."""
    a_v, a_y, _, _, a_0, _ = policy._gains(t)
    return a_v * v + a_y * y + a_0


def optimal_beta(policy: FeedbackPolicy, t, v, y):
    """Misdirection control at (t, v, y); pattern terms evaluated exactly."""
    _, _, b_v, b_y, _, b_0 = policy._gains(t)
    return b_v * v + b_y * y + b_0
