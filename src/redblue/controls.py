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
from .errors import InputError
from .model import _DOMAIN_SLACK, GridConfig, ModelParams, Pattern
from .riccati import ValueCoeffs, solve_value_coeffs


@dataclass(eq=False)
class FeedbackPolicy:
    """Immutable-by-convention bundle of everything beta/alpha evaluation needs.

    ``gains`` holds the feedback law at every node, one row
    (a_v, a_y, b_v, b_y, a_0, b_0) per node, so the path simulator can stay
    vectorized; off-node queries interpolate the coefficient curves.
    """

    params: ModelParams
    pattern: Pattern
    coeffs: ValueCoeffs
    gains: np.ndarray = field(init=False)

    def __post_init__(self):
        # np.interp returns a node's own value at the node, so these rows
        # are the gains of the node curves and the pattern's node values
        self.gains = np.stack(self._gains(self.grid.times()), -1)

    @property
    def grid(self) -> GridConfig:
        """The grid of the coefficient curves, and of the gains table."""
        return self.coeffs.grid

    @classmethod
    def solve(
        cls, params: ModelParams, pattern: Pattern, grid: GridConfig
    ) -> "FeedbackPolicy":
        return cls(params, pattern, solve_value_coeffs(params, pattern, grid))

    def _gains(self, t):
        """(a_v, a_y, b_v, b_y, a_0, b_0) at time t: the coefficient curves
        interpolated in t, the pattern evaluated exactly."""
        arr = np.asarray(t, dtype=float)
        outside = (arr < -_DOMAIN_SLACK) | (arr > self.grid.horizon + _DOMAIN_SLACK)
        if np.any(outside):
            raise InputError(f"time {t} outside [0, {self.grid.horizon}]")
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


def optimal_beta(policy: FeedbackPolicy, t, v, y):
    """Misdirection control at (t, v, y); pattern terms evaluated exactly."""
    _, _, b_v, b_y, _, b_0 = policy._gains(t)
    return b_v * v + b_y * y + b_0
