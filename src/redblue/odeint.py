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

A linear system x' = A(t) x + b(t) whose factors are known before the
solve does not need the loop: ``integrate_linear`` takes the augmented
matrix [[A, b], [0, 0]] at every half-grid point, builds every RK4 step as
one affine map with batched matrix products, and composes the maps with a
prefix scan.  It is the same scheme, rounded differently, and ends with the
same finiteness check.  The package steps the moment block and the fbs
costates this way.  The loop steps the nonlinear coefficient block F, alone
in ``moments.solve_stack`` and together with its linear lines gamma, theta
and xi in ``riccati.solve_value_coeffs``.
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


def _require_finite(out: np.ndarray, grid: GridConfig, direction: int) -> np.ndarray:
    """``out``, the node states of a solve, if every one is finite.
    Otherwise NonFiniteStateError names the first non-finite node in
    stepping order and, for a batch, the first member non-finite there."""
    finite = np.isfinite(out.reshape(len(out), -1)).all(axis=1)
    if finite.all():
        return out
    bad = np.flatnonzero(~finite)
    node = int(bad[0] if direction > 0 else bad[-1])
    row = out[node]
    if row.ndim == 2:
        row = row[:, np.flatnonzero(~np.isfinite(row).all(axis=0))[0]]
    # numpy's repr wraps a long row; the reason stays on one line
    row = np.array2string(row, max_line_width=sys.maxsize)
    raise NonFiniteStateError(f"non-finite state at t={node * grid.h}: {row}")


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
    return _require_finite(out, grid, direction)


def integrate_forward(rhs: Rhs, initial_state, grid: GridConfig) -> np.ndarray:
    """RK4 solution sampled at every node; row 0 is the initial state."""
    return _rk4(rhs, initial_state, grid, 1)


def integrate_backward(rhs: Rhs, terminal_state, grid: GridConfig) -> np.ndarray:
    """RK4 solution backward from t = T; row n_steps is the terminal state."""
    return _rk4(rhs, terminal_state, grid, -1)


def integrate_linear(
    abar: np.ndarray, state, grid: GridConfig, direction: int
) -> np.ndarray:
    """RK4 states of x' = A(t) x + b(t) at every node, stepping from node 0
    (direction +1) or from node n_steps (direction -1): ``_rk4``'s scheme,
    equal to it up to rounding.

    ``abar`` holds the augmented matrix [[A, b], [0, 0]] at every half-grid
    point, (2 n_steps + 1, C + 1, C + 1), or (2 n_steps + 1, B, C + 1, C + 1)
    for B members; ``state`` is (C,) or (C, B), and the node states are laid
    out as ``_rk4``'s.

    One RK4 step of a linear system is the affine map
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of the augmented state (x, 1), with
    K1 = Ā_a, K2 = Ā_m (I + h/2 K1), K3 = Ā_m (I + h/2 K2) and
    K4 = Ā_c (I + h K3) at the step's start, midpoint and end.  Every map
    is built at once with batched matrix products, and a Hillis-Steele
    prefix scan composes them in ceil(log2 n_steps) more.  numpy's stacked
    matmul multiplies each member's matrices on their own, so member b
    equals its own solve bit for bit.
    """
    n = grid.n_steps
    h = direction * grid.h
    abar = np.asarray(abar, dtype=float)
    if direction < 0:
        abar = abar[::-1]
    start = np.asarray(state, dtype=float)
    width = len(start)
    eye = np.eye(width + 1)
    # an overflow gives inf or nan for the finiteness check to reject
    with np.errstate(over="ignore", invalid="ignore"):
        a, m, c = abar[:-1:2], abar[1::2], abar[2::2]
        k2 = m @ (eye + (0.5 * h) * a)
        k3 = m @ (eye + (0.5 * h) * k2)
        k4 = c @ (eye + h * k3)
        maps = eye + (h / 6.0) * (a + 2.0 * k2 + 2.0 * k3 + k4)
        # after the pass of stride d, maps[i] composes the steps from
        # max(0, i - 2d + 1) to i, the earliest applied first
        d = 1
        while d < n:
            maps[d:] = maps[d:] @ maps[:-d]
            d *= 2
        # (x, 1) at the start, one (C + 1, 1) column per member
        start_bar = np.concatenate((start, np.ones((1, *start.shape[1:]))))
        ends = maps[..., :width, :] @ np.moveaxis(start_bar, 0, -1)[..., None]
    steps = np.moveaxis(ends[..., 0], -1, 1)
    out = np.empty((n + 1, *start.shape))
    if direction > 0:
        out[0], out[1:] = start, steps
    else:
        out[n], out[:n] = start, steps[::-1]
    return _require_finite(out, grid, direction)
