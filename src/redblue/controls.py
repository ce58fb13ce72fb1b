"""Blue-team feedback controls built from the solved coefficient curves.

Both controls are affine in the state:

    alpha_hat(t, v, y) = -(mu/r_alpha) v - (eta/r_alpha) y - gamma/r_alpha
    beta_hat(t, v, y)  = -(eta/r_beta) v
                         + (u f_c(t) - rho/r_beta) y + (u f_d(t) - theta/r_beta)

with u = lam / (r_beta sigma_w^2).  Coefficient curves are linearly
interpolated between nodes for off-grid times; the pattern functions are
evaluated exactly.  Without misdirection (lam = 0 or a zero pattern)
beta_hat vanishes identically, and at the upper bound lam = r_beta sigma_w^2
it reproduces the pattern drift f_c(t) y + f_d(t) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import misdirection_gain
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
        p = self.params
        u = misdirection_gain(p)
        fc = sample_on_grid(self.pattern.f_c, self.grid)
        fd = sample_on_grid(self.pattern.f_d, self.grid)
        self.alpha_v = -self.coeffs.mu / p.r_alpha
        self.alpha_y = -self.coeffs.eta / p.r_alpha
        self.alpha_0 = -self.coeffs.gamma / p.r_alpha
        self.beta_v = -self.coeffs.eta / p.r_beta
        self.beta_y = u * fc - self.coeffs.rho / p.r_beta
        self.beta_0 = u * fd - self.coeffs.theta / p.r_beta

    @classmethod
    def solve(
        cls, params: ModelParams, pattern: Pattern, grid: GridConfig
    ) -> "FeedbackPolicy":
        return cls(params, pattern, grid, solve_value_coeffs(params, pattern, grid))

    def _check_time(self, t) -> None:
        arr = np.asarray(t, dtype=float)
        if np.any(arr < -1e-9) or np.any(arr > self.grid.horizon + 1e-9):
            raise OutOfDomainError(f"time {t} outside [0, {self.grid.horizon}]")

    def _interp(self, curve: np.ndarray, t):
        return np.interp(
            np.clip(t, 0.0, self.grid.horizon), self.grid.times(), curve
        )


def optimal_alpha(policy: FeedbackPolicy, t, v, y):
    """Primary control at (t, v, y); coefficient curves interpolated in t."""
    policy._check_time(t)
    p = policy.params
    mu = policy._interp(policy.coeffs.mu, t)
    eta = policy._interp(policy.coeffs.eta, t)
    gamma = policy._interp(policy.coeffs.gamma, t)
    return -(mu / p.r_alpha) * v - (eta / p.r_alpha) * y - gamma / p.r_alpha


def optimal_beta(policy: FeedbackPolicy, t, v, y):
    """Misdirection control at (t, v, y); pattern terms evaluated exactly."""
    policy._check_time(t)
    p = policy.params
    u = misdirection_gain(p)
    eta = policy._interp(policy.coeffs.eta, t)
    rho = policy._interp(policy.coeffs.rho, t)
    theta = policy._interp(policy.coeffs.theta, t)
    fc_t = policy.pattern.f_c(t)
    fd_t = policy.pattern.f_d(t)
    coef_y = u * fc_t - rho / p.r_beta
    coef_0 = u * fd_t - theta / p.r_beta
    return -(eta / p.r_beta) * v + coef_y * y + coef_0
