"""Fixed-step classical Runge-Kutta integration on the uniform grid.

The solvers in this package keep every curve aligned with the grid that the
pattern optimizers use for their control vectors, so the integrator takes
fixed steps of size h = T / n_steps and evaluates right-hand sides only at
nodes and midpoints, the half grid t = j h / 2.

Every nonlinear solve of the package runs backward from a terminal state at
t = T, with the signed step -h.  ``integrate_backward`` takes its
right-hand side as ``rates``, a method of a dataclass of float fields,
called as ``rates(*state, *inputs)``, and ``forcing``, one column per
input, holding its value at every half-grid point: a float, or a ``(B,)``
row for a batch.  The method is stated with ``+``, ``-``, ``*``, ``/`` and
unary minus, and may call other methods of its class.  The loop traces it
once, by calling it on an instance of its class whose fields are symbolic
terms, which inlines every method it calls, and compiles itself with every
stage of every component written out, ``x_i + half * k1_i`` and so on,
cached per method, state width and number of forcing columns.  Each
expression keeps its operands in their order, so every node equals, bit for
bit, the float computation of calling the method at each stage, without a
call per stage.  ``moments.solve_stack`` steps F this way, and ``riccati``
all six value-function lines.

States are tuples of C Python floats: the same IEEE arithmetic as numpy
scalars, at a fraction of the per-operation cost on systems of a few
components.  Float ``*``, ``+`` and ``-`` overflow to inf or nan without
raising, so the loop runs to the end and finiteness is checked once per
solve, on the output array.

A batch of B systems steps through the same loop: given a ``(C, B)``
terminal state, each component is a ``(B,)`` row, and row b of every stage is
exactly the float computation of member b, because numpy's elementwise
``*``, ``+``, ``-`` and ``/`` round as Python's do.  The output is then
``(n_steps + 1, C, B)``.  numpy warns where floats overflow silently, so
the loop runs under ``np.errstate(over="ignore", invalid="ignore")``; the
single finiteness check still names the first node, in stepping order (the
latest in time), at which any member is non-finite.

A linear system x' = A(t) x + b(t) whose factors are known before the
solve does not need the loop: ``integrate_linear`` takes the augmented
matrix [[A, b], [0, 0]] at every half-grid point, builds every RK4 step as
one affine map with batched matrix products, and composes the maps with a
prefix scan.  It is the same scheme, rounded differently, steps forward or
backward, and ends with the same finiteness check.  The package steps the
moment block forward and the fbs costates backward this way.

Their factors are Jacobians of the same rates, which ``jacobian`` derives
from the traced terms by forward-mode rules (Griewank and Walther,
Evaluating Derivatives, 2nd ed., 2008), dividing only by terms free of the
variable, and compiles into one straight-line function, cached as the loop
is.
"""

from __future__ import annotations

import ast
import functools
import sys
from collections.abc import Callable, Sequence
from dataclasses import fields

import numpy as np

from .errors import InputError, NumericError
from .model import GridConfig


def _binop(op):
    """The forward and reflected methods of a binary operator on terms."""
    op = op()

    def forward(self, other):
        return _Term(ast.BinOp(self.node, op, _term(other).node))

    def reflected(self, other):
        return _Term(ast.BinOp(_term(other).node, op, self.node))

    return forward, reflected


class _Term:
    """A value of a generated loop: arithmetic on terms builds the syntax
    tree of the same expression, with its operands in their order."""

    __slots__ = ("node",)

    def __init__(self, node: ast.expr):
        self.node = node

    __add__, __radd__ = _binop(ast.Add)
    __sub__, __rsub__ = _binop(ast.Sub)
    __mul__, __rmul__ = _binop(ast.Mult)
    __truediv__, __rtruediv__ = _binop(ast.Div)

    def __neg__(self):
        return _Term(ast.UnaryOp(ast.USub(), self.node))

    def __getitem__(self, key):
        return _Term(ast.Subscript(self.node, _term(key).node, ast.Load()))


def _term(value) -> _Term:
    """``value`` as a term: a term itself, a tuple of terms, or a constant."""
    if isinstance(value, _Term):
        return value
    if isinstance(value, tuple):
        return _Term(ast.Tuple([_term(v).node for v in value], ast.Load()))
    return _Term(ast.Constant(value))


def _name(name: str) -> _Term:
    return _Term(ast.Name(name, ast.Load()))


def _traced(owner: type) -> tuple:
    """An ``owner`` whose every field is the term ``_<field>``, and the
    statements that bind those locals from the argument ``owner``."""
    names = [field.name for field in fields(owner)]
    prologue = ast.parse("".join(f"_{name} = owner.{name}\n" for name in names))
    return owner(**{name: _name(f"_{name}") for name in names}), prologue.body


def _compiled(module: ast.Module, filename: str):
    """The function that ``module``, a single ``def``, defines, compiled
    once its nodes have line numbers."""
    # compile needs only where each node starts; two attributes rather than
    # ast.fix_missing_locations' four keep each node's dict, and the peak
    # memory of building the function, smaller
    for part in ast.walk(module):
        if "lineno" in part._attributes and not hasattr(part, "lineno"):
            part.lineno, part.col_offset = 1, 0
    namespace: dict = {}
    exec(compile(module, filename, "exec"), namespace)
    return namespace[module.body[0].name]


@functools.cache
def _loop(width: int, owner: type, rates: Callable, columns: int):
    """The backward RK4 loop for states of ``width`` components, written
    out per component: ``loop(owner, rhs, s, out, n, half, h, sixth)``
    steps from ``s`` at node n back to node 0, writing each node's state to
    ``out``.  Every component keeps the operand order ``x + half * k`` and
    ``x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``: a reordered sum would
    round differently in the last bit.  Each stage is ``rates(owner,
    *state, rhs0[j], rhs1[j], ...)`` over the ``columns`` forcing columns,
    traced by calling ``rates`` on an ``owner`` whose every field is the
    term ``_<field>``, a local bound once per solve like ``rhs0``.  Only
    the skeleton and the field bindings are parsed; the rest of the syntax
    tree is built here.
    """
    module = ast.parse(
        "def loop(owner, rhs, s, out, n, half, h, sixth):\n"
        "    for node in range(n - 1, -1, -1):\n"
        "        pass\n"
    )
    (function,) = module.body
    (loop,) = function.body
    traced, prologue = _traced(owner)
    body: list[ast.stmt] = []

    def let(name: str, value, where: list = body) -> _Term:
        where.append(ast.Assign([ast.Name(name, ast.Store())], _term(value).node))
        return _name(name)

    rhs, s, node = _name("rhs"), _name("s"), _name("node")
    half, h, sixth = map(_name, ("half", "h", "sixth"))
    forcing = [let(f"rhs{c}", rhs[c], prologue) for c in range(columns)]

    def slopes(stage: int, state: list, j) -> list:
        if stage > 1:
            # the rates read each stage value more than once
            state = [let(f"y{stage}_{i}", value) for i, value in enumerate(state)]
        f = [let(f"f{stage}_{c}", column[j]) for c, column in enumerate(forcing)]
        rate_terms = rates(traced, *state, *f)
        return [let(f"k{stage}_{i}", rate) for i, rate in enumerate(rate_terms)]

    def shifted(coef: _Term, k: list) -> list:
        return [x[i] + coef * k[i] for i in range(width)]

    x = [let(f"x{i}", s[i], prologue) for i in range(width)]
    # the step to node reads the half grid at t_node + h, its midpoint, t_node
    j = let("j", 2 * node)
    k1 = slopes(1, x, j + 2)
    k2 = slopes(2, shifted(half, k1), j + 1)
    k3 = slopes(3, shifted(half, k2), j + 1)
    k4 = slopes(4, shifted(h, k3), j)
    for i in range(width):
        let(f"x{i}", x[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
    out = ast.Subscript(ast.Name("out", ast.Load()), node.node, ast.Store())
    body.append(ast.Assign([out], _term(tuple(x)).node))
    loop.body = body
    function.body = [*prologue, loop]
    return _compiled(module, "<rk4 loop>")


_ONE = ast.Constant(1.0)


def _product(a: ast.expr | None, b: ast.expr | None) -> ast.expr | None:
    """a * b, with None a structural zero and 1.0 folded away."""
    if a is None or b is None:
        return None
    return b if a is _ONE else a if b is _ONE else ast.BinOp(a, ast.Mult(), b)


def _derive(node: ast.expr, name: str) -> ast.expr | None:
    """The derivative of a traced expression in the local ``name``, by
    forward-mode rules: the syntax tree of an expression in the same
    locals, or None where it is structurally zero.

    A divisor must be free of ``name``: every divisor of the rates is a
    field or a constant, so the quotient rule is not needed.
    """
    if isinstance(node, ast.Constant):
        return None
    if isinstance(node, ast.Name):
        return _ONE if node.id == name else None
    if isinstance(node, ast.UnaryOp):
        # -x, the one unary operator on terms, is 0 - x
        da, db, op = None, _derive(node.operand, name), ast.Sub()
    else:
        da, db, op = _derive(node.left, name), _derive(node.right, name), node.op
        if isinstance(op, ast.Mult):
            da, db, op = _product(da, node.right), _product(node.left, db), ast.Add()
        elif isinstance(op, ast.Div):
            if db is not None:
                raise InputError(f"{ast.unparse(node)} divides by a term in {name}")
            return None if da is None else ast.BinOp(da, op, node.right)
    if db is None:
        return da
    if da is None:
        return ast.UnaryOp(ast.USub(), db) if isinstance(op, ast.Sub) else db
    return ast.BinOp(da, op, db)


@functools.cache
def _partials(owner: type, rates: Callable, arity: int, wrt: tuple):
    """The nonzero entries of the Jacobian of ``rates`` in its arguments
    ``wrt`` (indices into its ``arity`` arguments), compiled as one
    straight-line function ``partials(owner, a0, a1, ...)`` that returns
    them in a tuple, and their (row, column) places.  ``rates`` is traced
    on an ``owner`` of symbolic fields, as ``_loop`` traces it, and a
    structural zero has no entry.  Returns (partials, places, rows).
    """
    traced, prologue = _traced(owner)
    args = [f"a{i}" for i in range(arity)]
    terms = rates(traced, *map(_name, args))
    terms = terms if isinstance(terms, (tuple, list)) else (terms,)
    places, entries = [], []
    for row, term in enumerate(terms):
        for col, i in enumerate(wrt):
            entry = _derive(_term(term).node, args[i])
            if entry is not None:
                places.append((row, col))
                entries.append(entry)
    module = ast.parse(f"def partials(owner, {', '.join(args)}):\n    pass\n")
    module.body[0].body = [*prologue, ast.Return(ast.Tuple(entries, ast.Load()))]
    return _compiled(module, "<partials>"), tuple(places), len(terms)


def jacobian(rates: Callable, args: Sequence, wrt: Sequence[int], out=None):
    """The Jacobian of ``rates``, a method as ``integrate_backward`` takes
    it, in its arguments ``wrt`` (indices into ``args``), at ``args``:
    floats or arrays of one shape S.  A rate is a row; a method that
    returns one value has one.

    Returns the dense (*S, rows, len(wrt)) array, structural zeros 0.0, or
    writes it into ``out``, a zeroed view of that shape, such as a
    transposed block of an augmented matrix.  An entry that overflows is
    inf or nan, without a warning, for the solve that reads it to reject.
    """
    owner = rates.__self__
    partials, places, rows = _partials(
        type(owner), rates.__func__, len(args), tuple(wrt)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        entries = partials(owner, *args)
    if out is None:
        out = np.zeros((*np.broadcast(*args).shape, rows, len(wrt)))
    for (row, col), entry in zip(places, entries):
        out[..., row, col] = entry
    return out


def _require_finite(out: np.ndarray, grid: GridConfig, direction: int) -> np.ndarray:
    """``out``, the node states of a solve, if every one is finite.
    Otherwise NumericError names the first non-finite node in
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
    raise NumericError(f"non-finite state at t={node * grid.h}: {row}")


def integrate_backward(
    rates: Callable, forcing: Sequence, terminal_state, grid: GridConfig
) -> np.ndarray:
    """RK4 solution of x' = rates(*x, *inputs) backward from t = T, at every
    node, each input read from its column of ``forcing`` by half-grid
    index; row k is the state at node k, and row n_steps is the terminal
    state.

    ``terminal_state`` is a 1-D sequence of floats, or a ``(C, B)`` array of
    B members whose rows become the ``(B,)`` components of the stage tuples.
    """
    n = grid.n_steps
    h = -grid.h
    half = 0.5 * h
    sixth = h / 6.0
    start = np.asarray(terminal_state, dtype=float)
    s = tuple(start.tolist()) if start.ndim == 1 else tuple(start)
    # each node's state goes straight into the output, so only the stage
    # values of the current step are alive as Python objects
    out = np.empty((n + 1, *start.shape))
    out[n] = s
    owner = rates.__self__
    loop = _loop(len(s), type(owner), rates.__func__, len(forcing))
    with np.errstate(over="ignore", invalid="ignore"):
        loop(owner, forcing, s, out, n, half, h, sixth)
    return _require_finite(out, grid, -1)


def _composed_maps(abar: np.ndarray, h: float, n: int) -> np.ndarray:
    """The RK4 step maps of ``integrate_linear``, composed: row i maps the
    augmented state at the start of the solve to the one after step i.

    Three step-sized buffers hold every intermediate: ``shifted`` each
    I + c K before its product, ``k`` K2, then K1 + 2 K2, then K4, and
    ``total`` K3, then the map sum.  Each operation writes into one of them with ``out=`` and
    keeps the operand order of I + h/6 (((K1 + 2 K2) + 2 K3) + K4), so every
    map rounds as the same expression on fresh arrays would.  Each scan
    pass composes into the buffer not holding the maps, and the other two
    are freed on return, before the caller builds the node states.
    """
    eye = np.eye(abar.shape[-1])
    a, m, c = abar[:-1:2], abar[1::2], abar[2::2]
    shifted, k, total = (np.empty(a.shape) for _ in range(3))

    def shift(coef: float, slope: np.ndarray) -> np.ndarray:
        """I + coef slope, into ``shifted``."""
        np.multiply(coef, slope, out=shifted)
        return np.add(eye, shifted, out=shifted)

    np.matmul(m, shift(0.5 * h, a), out=k)  # K2
    np.matmul(m, shift(0.5 * h, k), out=total)  # K3
    shift(h, total)
    np.add(a, np.multiply(2.0, k, out=k), out=k)
    np.add(k, np.multiply(2.0, total, out=total), out=total)
    np.add(total, np.matmul(c, shifted, out=k), out=total)  # + K4
    maps = np.add(eye, np.multiply(h / 6.0, total, out=total), out=total)
    # after the pass of stride d, maps[i] composes the steps from
    # max(0, i - 2d + 1) to i, the earliest applied first
    spare = shifted
    d = 1
    while d < n:
        spare[:d] = maps[:d]
        np.matmul(maps[d:], maps[:-d], out=spare[d:])
        maps, spare = spare, maps
        d *= 2
    return maps


def integrate_linear(
    abar: np.ndarray, state, grid: GridConfig, direction: int
) -> np.ndarray:
    """RK4 states of x' = A(t) x + b(t) at every node, stepping from node 0
    (direction +1) or from node n_steps (direction -1): the RK4 scheme of
    ``integrate_backward``, equal to it up to rounding.

    ``abar`` holds the augmented matrix [[A, b], [0, 0]] at every half-grid
    point, (2 n_steps + 1, C + 1, C + 1), or (2 n_steps + 1, B, C + 1, C + 1)
    for B members; ``state`` is (C,) or (C, B), and the node states are laid
    out as ``integrate_backward``'s.

    One RK4 step of a linear system is the affine map
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) of the augmented state (x, 1), with
    K1 = Ā_a, K2 = Ā_m (I + h/2 K1), K3 = Ā_m (I + h/2 K2) and
    K4 = Ā_c (I + h K3) at the step's start, midpoint and end.  Every map
    is built at once with batched matrix products, and a Hillis-Steele
    prefix scan composes them in ceil(log2 n_steps) more.  numpy's stacked
    matmul multiplies each member's matrices on their own, so member b
    equals its own solve bit for bit.  Beyond ``abar``, the working memory
    is three step-sized arrays, each of one matrix per step and member
    (``_composed_maps``).
    """
    n = grid.n_steps
    h = direction * grid.h
    abar = np.asarray(abar, dtype=float)
    if direction < 0:
        abar = abar[::-1]
    start = np.asarray(state, dtype=float)
    width = len(start)
    # an overflow gives inf or nan for the finiteness check to reject
    with np.errstate(over="ignore", invalid="ignore"):
        maps = _composed_maps(abar, h, n)
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
