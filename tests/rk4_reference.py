"""The array-based RK4 loop that the library's generated loop replaced,
kept as the stepper of the test references, so that no reference shares
the loop it checks: numpy arrays per stage, a right-hand side called at
every stage, and a finiteness check per node."""

import sys

import numpy as np

from redblue import NumericError


def reference_rk4(rhs, state, grid, direction):
    """RK4 states of x' = rhs(j, x) at every node, stepping from node 0
    (direction +1) or from node n_steps (direction -1), where j is the
    half-grid index of the stage time.  ``rhs`` returns an array of the
    state's shape, or a sequence of its C components."""
    n = grid.n_steps
    h = direction * grid.h
    node = 0 if direction > 0 else n
    state = np.array(state, dtype=float)

    def check_finite(state, t):
        if not np.all(np.isfinite(state)):
            row = np.array2string(state, max_line_width=sys.maxsize)
            raise NumericError(f"non-finite state at t={t}: {row}")

    def slope(j, state):
        return np.array(rhs(j, state))

    check_finite(state, node * grid.h)
    out = np.empty((n + 1, *state.shape))
    out[node] = state
    for _ in range(n):
        j = 2 * node
        k1 = slope(j, state)
        k2 = slope(j + direction, state + 0.5 * h * k1)
        k3 = slope(j + direction, state + 0.5 * h * k2)
        k4 = slope(j + 2 * direction, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        node += direction
        check_finite(state, node * grid.h)
        out[node] = state
    return out
