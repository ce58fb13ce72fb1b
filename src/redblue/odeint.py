"""Fixed-step classical Runge-Kutta integration on the uniform grid.

The solvers in this package keep every curve aligned with the grid that the
pattern optimizers use for their control vectors, so the integrator takes
fixed steps of size h = T / n_steps and evaluates right-hand sides only at
nodes and midpoints.  A right-hand side is called as ``rhs(j, state)``, where
j is the half-grid index of the stage time t = j h / 2, so curves sampled on
the half grid are read by index.  A backward solve runs the same loop from
t = T with the signed step -h.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonFiniteStateError
from .model import GridConfig

Rhs = Callable[[int, np.ndarray], np.ndarray]


def _check_finite(state: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(state)):
        raise NonFiniteStateError(f"non-finite state at t={t}: {state}")


def _rk4(rhs: Rhs, state, grid: GridConfig, direction: int) -> np.ndarray:
    """RK4 states at every node, stepping from node 0 (direction +1) or
    from node n_steps (direction -1); row k is the state at node k."""
    n = grid.n_steps
    h = direction * grid.h
    node = 0 if direction > 0 else n
    state = np.array(state, dtype=float)
    _check_finite(state, node * grid.h)
    out = np.empty((n + 1, state.size))
    out[node] = state
    for _ in range(n):
        j = 2 * node
        k1 = rhs(j, state)
        k2 = rhs(j + direction, state + 0.5 * h * k1)
        k3 = rhs(j + direction, state + 0.5 * h * k2)
        k4 = rhs(j + 2 * direction, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        node += direction
        _check_finite(state, node * grid.h)
        out[node] = state
    return out


def integrate_forward(rhs: Rhs, initial_state, grid: GridConfig) -> np.ndarray:
    """RK4 solution sampled at every node; row 0 is the initial state."""
    return _rk4(rhs, initial_state, grid, 1)


def integrate_backward(rhs: Rhs, terminal_state, grid: GridConfig) -> np.ndarray:
    """RK4 solution backward from t = T; row n_steps is the terminal state."""
    return _rk4(rhs, terminal_state, grid, -1)
