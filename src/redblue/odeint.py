"""Fixed-step classical Runge-Kutta integration on the uniform grid.

The solvers in this package keep every curve aligned with the grid that the
pattern optimizers use for their control vectors, so the integrator takes
fixed steps of size h = T / n_steps and evaluates right-hand sides only at
nodes and midpoints.  A right-hand side is called as ``rhs(j, state)``, where
j is the half-grid index of the stage time t = j h / 2, so curves sampled on
the half grid are read by index.  A backward solve runs the same loop from
t = T with the signed step -h.

States are tuples of C Python floats, and a right-hand side returns an
indexable sequence (a tuple or a list) of C values: the same IEEE arithmetic
as numpy scalars, at a fraction of the per-operation cost on systems of a
few components.  For the same reason the RK4 step is written out per
component, ``x_i + half * k1[i]`` and so on, with no loop over the
components; it is generated from a source template the first time a state
width C is solved, and reused for every later solve of that width.  Float
``*``, ``+`` and ``-`` overflow to inf or nan without raising, so the loop
runs to the end and finiteness is checked once per solve, on the output
array.

A batch of B systems steps through the same loop: given a ``(C, B)`` start
state, each component is a ``(B,)`` row, the right-hand side receives and
returns tuples of such rows, and row b of every stage is exactly the float
computation of member b, because numpy's elementwise ``*``, ``+``, ``-`` and
``/`` round as Python's do.  The output is then ``(n_steps + 1, C, B)``.
numpy warns where floats overflow silently, so the loop runs under
``np.errstate(over="ignore", invalid="ignore")``; the single finiteness
check still names the first node, in stepping order, at which any member is
non-finite.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Callable, Sequence

import numpy as np

from .errors import NonFiniteStateError
from .model import GridConfig

# the state tuple holds floats, or (B,) arrays for a batch of B members
Rhs = Callable[[int, tuple], Sequence]


@functools.cache
def _step(width: int):
    """The RK4 step for states of ``width`` components, written out per
    component.  Every component keeps the operand order ``x + half * k``
    and ``x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``: a reordered sum
    would round differently in the last bit.
    """
    xs = [f"x{i}" for i in range(width)]

    def stage(coef: str, k: str) -> str:
        return "".join(f"{x} + {coef} * {k}[{i}], " for i, x in enumerate(xs))

    final = "".join(
        f"{x} + sixth * (k1[{i}] + 2.0 * k2[{i}] + 2.0 * k3[{i}] + k4[{i}]), "
        for i, x in enumerate(xs)
    )
    source = (
        "def step(rhs, j, direction, s, half, h, sixth):\n"
        f"    {', '.join(xs)}, = s\n"
        "    k1 = rhs(j, s)\n"
        f"    k2 = rhs(j + direction, ({stage('half', 'k1')}))\n"
        f"    k3 = rhs(j + direction, ({stage('half', 'k2')}))\n"
        f"    k4 = rhs(j + 2 * direction, ({stage('h', 'k3')}))\n"
        f"    return ({final})\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return namespace["step"]


def _rk4(rhs: Rhs, state, grid: GridConfig, direction: int) -> np.ndarray:
    """RK4 states at every node, stepping from node 0 (direction +1) or
    from node n_steps (direction -1); row k is the state at node k.

    ``state`` is a 1-D sequence of floats, or a ``(C, B)`` array of B
    members whose rows become the ``(B,)`` components of the stage tuples.
    """
    n = grid.n_steps
    h = direction * grid.h
    half = 0.5 * h
    sixth = h / 6.0
    start = np.asarray(state, dtype=float)
    s = tuple(start.tolist()) if start.ndim == 1 else tuple(start)
    step = _step(len(s))
    node = 0 if direction > 0 else n
    # each node's state goes straight into the output, so only the stage
    # tuples of the current step are alive as Python objects
    out = np.empty((n + 1, *start.shape))
    out[node] = s
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            s = step(rhs, 2 * node, direction, s, half, h, sixth)
            node += direction
            out[node] = s
    finite = np.isfinite(out.reshape(n + 1, -1)).all(axis=1)
    if not finite.all():
        # the first non-finite node in stepping order
        bad = np.flatnonzero(~finite)
        node = int(bad[0] if direction > 0 else bad[-1])
        row = out[node]
        if row.ndim == 2:
            # the first member that is non-finite there
            row = row[:, np.flatnonzero(~np.isfinite(row).all(axis=0))[0]]
        # numpy's repr wraps a long row; the reason stays on one line
        row = np.array2string(row, max_line_width=sys.maxsize)
        raise NonFiniteStateError(f"non-finite state at t={node * grid.h}: {row}")
    return out


def integrate_forward(rhs: Rhs, initial_state, grid: GridConfig) -> np.ndarray:
    """RK4 solution sampled at every node; row 0 is the initial state."""
    return _rk4(rhs, initial_state, grid, 1)


def integrate_backward(rhs: Rhs, terminal_state, grid: GridConfig) -> np.ndarray:
    """RK4 solution backward from t = T; row n_steps is the terminal state."""
    return _rk4(rhs, terminal_state, grid, -1)
