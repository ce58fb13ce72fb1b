import dis
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from redblue import GridConfig, InputError, NumericError
from redblue.dynamics import Dynamics
from redblue.odeint import (
    _loop,
    _partials,
    integrate_backward,
    integrate_linear,
    jacobian,
)
from rk4_reference import reference_rk4


@dataclass(frozen=True)
class Systems:
    """Rates methods of small test systems, each called as
    ``rates(*state, forcing[0][j])``."""

    def forcing(self, x, f):
        return (2.0 * f,)

    def riccati(self, x, f):
        return (x * x - 1.0,)

    def decay(self, x, v, f):
        return (-x, -v)

    def oscillator(self, x, v, f):
        return (v, -x + f)


SYSTEMS = Systems()


def unforced(grid: GridConfig) -> list:
    return [[0.0] * (2 * grid.n_steps + 1)]


def linear_system(grid: GridConfig, a=0.0, b=np.zeros_like) -> np.ndarray:
    """The augmented matrices [[a, b(t)], [0, 0]] of x' = a x + b(t) at
    every half-grid point, as ``integrate_linear`` takes them."""
    t = grid.half_times()
    abar = np.zeros((t.size, 2, 2))
    abar[:, 0, 0], abar[:, 0, 1] = a, b(t)
    return abar


# forward solves step linear systems only, through integrate_linear


def test_forward_exponential():
    grid = GridConfig(50, 1.0)
    states = integrate_linear(linear_system(grid, a=1.0), np.array([1.0]), grid, 1)
    assert states.shape == (51, 1)
    assert states[0, 0] == 1.0
    assert states[-1, 0] == pytest.approx(math.e, abs=1e-8)


def test_forward_fourth_order_convergence():
    def err(n):
        grid = GridConfig(n, 1.0)
        states = integrate_linear(linear_system(grid, a=1.0), [1.0], grid, 1)
        return abs(states[-1, 0] - math.e)

    ratio = err(20) / err(40)
    # classical fourth order: halving the step divides the error by ~16
    assert 12.0 < ratio < 20.0


def test_forward_time_dependent_rhs():
    # x' = 2t, x(0)=0 -> x(T)=T^2; polynomial quadrature is exact for RK4
    grid = GridConfig(10, 2.0)
    abar = linear_system(grid, b=lambda t: 2.0 * t)
    states = integrate_linear(abar, np.array([0.0]), grid, 1)
    assert states[-1, 0] == pytest.approx(4.0, abs=1e-13)


def test_backward_riccati_closed_form():
    # mu' = mu^2 - 1 with mu(T) = 1/2 has solution tanh(atanh(1/2) + T - t)
    grid = GridConfig(400, 1.0)
    states = integrate_backward(SYSTEMS.riccati, unforced(grid), [0.5], grid)
    c = math.atanh(0.5)
    expected = np.tanh(c + 1.0 - grid.times())
    np.testing.assert_allclose(states[:, 0], expected, atol=1e-9)
    assert states[-1, 0] == 0.5


def test_backward_terminal_row_exact():
    terminal = np.array([3.0, -1.5])
    grid = GridConfig(10, 1.0)
    states = integrate_backward(SYSTEMS.decay, unforced(grid), terminal, grid)
    np.testing.assert_array_equal(states[-1], terminal)


class Probe:
    """A forcing value that records its half-grid index whenever a stage
    reads it into a rate."""

    def __init__(self, j: int, seen: list):
        self.j, self.seen = j, seen

    def __rmul__(self, other):
        self.seen.append(self.j)
        return 0.0


def test_stage_indices_walk_the_half_grid():
    # the step back from node k reads t_k, t_k - h/2 twice and t_k - h
    n = 6
    grid = GridConfig(n, 1.0)
    seen = []
    probes = [Probe(j, seen) for j in range(2 * n + 1)]
    integrate_backward(SYSTEMS.forcing, [probes], [0.0], grid)
    steps = [(2 * k, 2 * k - 1, 2 * k - 1, 2 * k - 2) for k in range(n, 0, -1)]
    assert seen == [j for step in steps for j in step]


def oscillator(grid: GridConfig) -> tuple:
    """x' = v, v' = sin(t) - x: its rates and forcing for the backward loop,
    and its augmented matrices for ``integrate_linear``."""
    forcing = np.sin(grid.half_times())
    abar = np.zeros((forcing.size, 3, 3))
    abar[:, 0, 1], abar[:, 1, 0], abar[:, 1, 2] = 1.0, -1.0, forcing
    return SYSTEMS.oscillator, [forcing.tolist()], abar


def test_backward_forward_round_trip():
    # the backward loop and the forward linear stepper share RK4's scheme
    grid = GridConfig(200, 1.0)
    rates, forcing, abar = oscillator(grid)
    back = integrate_backward(rates, forcing, np.array([1.0, 0.25]), grid)
    forward = integrate_linear(abar, back[0].copy(), grid, 1)
    np.testing.assert_allclose(forward[-1], [1.0, 0.25], atol=1e-10)


@given(
    x_end=st.floats(-2.0, 2.0),
    v_end=st.floats(-2.0, 2.0),
    horizon=st.floats(0.1, 2.0),
    n=st.integers(100, 300),
)
def test_round_trip_property(x_end, v_end, horizon, n):
    # the local error is O(h^5) per step on a smooth system, so solving
    # back from (x_end, v_end) and forward again returns to it
    grid = GridConfig(n, horizon)
    rates, forcing, abar = oscillator(grid)
    back = integrate_backward(rates, forcing, np.array([x_end, v_end]), grid)
    forward = integrate_linear(abar, back[0], grid, 1)
    np.testing.assert_allclose(forward[-1], [x_end, v_end], atol=1e-8)
    np.testing.assert_allclose(forward, back, atol=1e-8)


def test_non_finite_detection():
    # x' = x^2 - 1 escapes in finite time backward from x(1) = -10 on [0, 1]
    grid = GridConfig(20, 1.0)
    with pytest.raises(NumericError):
        integrate_backward(SYSTEMS.riccati, unforced(grid), [-10.0], grid)


@st.composite
def polynomial_systems(draw):
    """A random polynomial right-hand side of degree <= 2 with a term in the
    half-grid time, its start state, and the sequence type its rates
    return: tuple, as the library's do, or list."""
    dim = draw(st.integers(1, 8))
    coef = st.floats(-2.0, 2.0)
    index = st.integers(0, dim - 1)
    components = [
        (
            draw(coef),
            draw(coef),
            draw(st.lists(st.tuples(coef, index, index | st.none()), max_size=4)),
        )
        for _ in range(dim)
    ]
    start = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    return components, start, draw(st.sampled_from([list, tuple]))


def polynomial_rhs(components, half_times, kind=list):
    """The pair (rates, [half_times]) of a polynomial system.  The loop is
    cached per rates method, so each system gets a class of its own."""

    @dataclass(frozen=True)
    class Polynomial:
        def rates(self, *args):
            *x, t = args
            out = []
            for const, slope, terms in components:
                acc = const + slope * t
                for c, a, b in terms:
                    acc = acc + (c * x[a] if b is None else c * x[a] * x[b])
                out.append(acc)
            return kind(out)

    return Polynomial().rates, [half_times]


def as_callback(rhs):
    """The pair ``rhs`` as a right-hand side of the reference loop, which
    calls it at every stage."""
    rates, (forcing,) = rhs
    return lambda j, x: rates(*x, forcing[j])


def solve_or_message(rhs, start, grid):
    """The backward loop's solve of the pair ``rhs``, or its reason if it
    goes non-finite."""
    try:
        return integrate_backward(*rhs, start, grid)
    except NumericError as exc:
        return str(exc)


def run_both(rhs, start, grid):
    """(result or error message) of the generated loop and of the reference."""
    got = solve_or_message(rhs, start, grid)
    with np.errstate(all="ignore"):
        try:
            want = reference_rk4(as_callback(rhs), start, grid, -1)
        except NumericError as exc:
            want = str(exc)
    return got, want


@given(
    system=polynomial_systems(),
    n=st.integers(2, 300),
    horizon=st.floats(0.05, 1.0),
)
def test_tuple_loop_matches_array_reference(system, n, horizon):
    components, start, kind = system
    grid = GridConfig(n, horizon)
    rhs = polynomial_rhs(components, grid.half_times().tolist(), kind)
    got, want = run_both(rhs, start, grid)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape == (n + 1, len(start))
        assert np.array_equal(got, want)


def test_blow_up_names_first_non_finite_node_in_stepping_order():
    # x' = x^2 backward from x(1) = -10 escapes at node 33 of 40.  Every
    # node past the escape stays inf, so the error must name the one nearest
    # the start of the solve, not the lowest index.
    grid = GridConfig(40, 1.0)
    rhs = polynomial_rhs([(0.0, 0.0, [(1.0, 0, 0)])], grid.half_times().tolist())
    got, want = run_both(rhs, [-10.0], grid)
    assert isinstance(want, str) and got == want
    assert got.startswith(f"non-finite state at t={33 * grid.h}: ")


@pytest.mark.parametrize(
    "rates, width, columns",
    [(Dynamics.coeff_rhs, 3, 1), (Dynamics.value_rhs, 6, 3)],
    ids=["coeff_rhs", "value_rhs"],
)
def test_generated_loop_steps_without_calls_or_lookups(rates, width, columns):
    # the loop is written out so that a step makes no call, and reads no
    # attribute or global: the prologue binds every field once.  The
    # opcode names cover Python 3.10 (CALL_FUNCTION, CALL_METHOD), 3.11
    # (PRECALL, CALL) and 3.12 (CALL, LOAD_ATTR for methods too)
    loop = _loop(width, Dynamics, rates, columns)
    ops = [op.opname for op in dis.get_instructions(loop)]
    start = ops.index("FOR_ITER")
    banned = ("PRECALL", "LOAD_ATTR", "LOAD_METHOD", "LOAD_GLOBAL")
    inside = [op for op in ops[start:] if op.startswith("CALL") or op in banned]
    assert inside == []
    assert "LOAD_ATTR" in ops[:start]


@given(system=polynomial_systems(), t=st.floats(0.0, 1.0), data=st.data())
def test_jacobian_matches_central_differences(system, t, data):
    # the systems are quadratic, so a central difference is exact up to
    # rounding; the tolerance only has to absorb cancellation
    components, start, kind = system
    dim = len(start)
    rates, _ = polynomial_rhs(components, None, kind)
    d = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    x, eps = np.array(start), 1e-3
    up, down = np.array(rates(*(x + eps * d), t)), np.array(rates(*(x - eps * d), t))
    jac = jacobian(rates, (*start, t), range(dim))
    assert jac.shape == (dim, dim)
    np.testing.assert_allclose(jac @ d, (up - down) / (2.0 * eps), rtol=1e-8, atol=1e-9)


# every Jacobian the package reads: (rates, arity, wrt)
PARTIALS = [
    (Dynamics.coeff_rhs, 4, (0, 1, 2)),
    (Dynamics.coeff_rhs, 4, (0, 1, 2, 3)),
    (Dynamics.coeff_rhs, 4, (3,)),
    (Dynamics.moment_rhs, 7, (0, 1, 2)),
    (Dynamics.moment_rhs, 7, (3, 4, 5, 0, 1, 2)),
    (Dynamics.moment_rhs, 7, (3, 4, 5, 6)),
    (Dynamics.moment_rhs, 7, (6,)),
    (Dynamics.payoff, 5, (0, 1, 2, 3)),
    (Dynamics.payoff, 5, (0, 1, 2, 3, 4)),
]


@pytest.mark.parametrize("rates, arity, wrt", PARTIALS)
def test_derived_partials_make_no_call_or_lookup(rates, arity, wrt):
    # the entries are one straight-line function: it makes no call and no
    # global lookup, and reads attributes only to bind the fields once
    partials, places, _ = _partials(Dynamics, rates, arity, wrt)
    ops = [op.opname for op in dis.get_instructions(partials)]
    banned = ("PRECALL", "LOAD_METHOD", "LOAD_GLOBAL")
    assert [op for op in ops if op.startswith("CALL") or op in banned] == []
    assert ops.count("LOAD_ATTR") == len(Dynamics.__dataclass_fields__)
    assert places


@dataclass(frozen=True)
class Quotients:
    scale: float

    def rates(self, x, v):
        return (x / self.scale, v / 2.0 - self.scale / x)


def test_jacobian_refuses_a_divisor_in_the_variable():
    # a divisor free of the variable is differentiated; one in it would
    # need the quotient rule, which the differentiator does not apply
    rates = Quotients(4.0).rates
    np.testing.assert_array_equal(jacobian(rates, (1.0, 3.0), (1,)), [[0.0], [0.5]])
    with pytest.raises(InputError, match="divides by a term in a0"):
        jacobian(rates, (1.0, 3.0), (0, 1))


@st.composite
def polynomial_batches(draw):
    """A polynomial system with 1-8 start states, one per batch member."""
    components, start, kind = draw(polynomial_systems())
    dim = len(start)
    member = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    return components, [start, *draw(st.lists(member, max_size=7))], kind


@given(
    batch=polynomial_batches(),
    n=st.integers(2, 120),
    horizon=st.floats(0.05, 1.0),
)
def test_batch_loop_matches_single_solves(batch, n, horizon):
    # a (C, B) start steps B members through the same loop: member b is bit
    # for bit its own float solve, and a blow-up names the member and node
    # that go non-finite first in stepping order, with no numpy warning
    components, starts, kind = batch
    grid = GridConfig(n, horizon)
    rhs = polynomial_rhs(components, grid.half_times().tolist(), kind)
    singles = [solve_or_message(rhs, start, grid) for start in starts]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_or_message(rhs, np.array(starts).T, grid)
    failed = [s for s in singles if isinstance(s, str)]
    if failed:
        times = [float(s.split("t=")[1].split(":")[0]) for s in failed]
        assert got == failed[times.index(max(times))]
    else:
        assert got.shape == (n + 1, len(starts[0]), len(starts))
        for b, single in enumerate(singles):
            assert np.array_equal(got[:, :, b], single)


def test_batch_with_one_overflowing_member_raises_without_warnings():
    # x' = x^2 backward from x(1): the member from -0.5 stays finite on
    # [0, 1], the one from -10 escapes at node 33 of 40
    grid = GridConfig(40, 1.0)
    rhs = polynomial_rhs([(0.0, 0.0, [(1.0, 0, 0)])], grid.half_times().tolist())
    single = solve_or_message(rhs, [-10.0], grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as info:
            integrate_backward(*rhs, np.array([[-0.5, -10.0]]), grid)
    assert str(info.value) == single
    assert single.startswith(f"non-finite state at t={33 * grid.h}: ")


def random_linear_system(rng, dim, split=0):
    """The augmented matrix [[A(t), b(t)], [0, 0]] of a random linear system
    at the times t, with rows from ``split`` on zero left of column
    ``split``, as a function of t."""
    a0, a1, a2 = rng.standard_normal((3, dim, dim))
    b0, b1 = rng.standard_normal((2, dim))

    def abar(t):
        out = np.zeros((len(t), dim + 1, dim + 1))
        tt = t[:, None, None]
        out[:, :dim, :dim] = a0 + np.sin(3.0 * tt) * a1 + tt * a2
        out[:, :dim, dim] = b0 + np.cos(2.0 * t)[:, None] * b1
        out[:, split:, :split] = 0.0
        return out

    return abar


def linear_rhs(abar):
    """x' = A x + b as a right-hand side of the reference loop, read from
    the half-grid table ``abar``."""
    rows = abar[:, :-1, :]
    return lambda j, x: rows[j] @ np.append(x, 1.0)


def solve_linear(abar, start, grid, direction, rk4=False):
    """The linear stepper's solve, or the reference RK4 loop's; either
    one's reason if it goes non-finite."""
    try:
        if not rk4:
            return integrate_linear(abar, start, grid, direction)
        return reference_rk4(linear_rhs(abar), start, grid, direction)
    except NumericError as exc:
        return str(exc)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    split=st.integers(0, 6),
    direction=st.sampled_from([1, -1]),
    n=st.integers(2, 120),
    horizon=st.floats(0.05, 1.0),
)
def test_linear_stepper_matches_the_rk4_loop(seed, dim, split, direction, n, horizon):
    # the composed maps are the RK4 loop's scheme, rounded differently
    rng = np.random.default_rng(seed)
    grid = GridConfig(n, horizon)
    abar = random_linear_system(rng, dim, min(split, dim))(grid.half_times())
    start = rng.standard_normal(dim)
    got = integrate_linear(abar, start, grid, direction)
    want = solve_linear(abar, start, grid, direction, rk4=True)
    assert got.shape == want.shape == (n + 1, dim)
    # the start row is exact; elsewhere at most a few roundings of the
    # largest value apart
    assert np.array_equal(got[0 if direction > 0 else n], start)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("direction", [1, -1])
def test_linear_stepper_fourth_order_convergence(direction):
    # halving the step divides the error at the far end by ~16
    abar = random_linear_system(np.random.default_rng(3), 3)
    start = np.array([1.0, -0.5, 0.25])
    end = -1 if direction > 0 else 0

    def solve(n):
        grid = GridConfig(n, 1.0)
        return integrate_linear(abar(grid.half_times()), start, grid, direction)[end]

    exact = solve(1280)
    ratio = np.linalg.norm(solve(40) - exact) / np.linalg.norm(solve(80) - exact)
    assert 14.0 < ratio < 18.0


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    split=st.integers(0, 6),
    size=st.integers(1, 6),
    direction=st.sampled_from([1, -1]),
    n=st.integers(2, 120),
)
def test_linear_batch_matches_single_solves(seed, dim, split, size, direction, n):
    # member b of a (C, B) start with its own matrices is bit for bit its
    # own solve
    rng = np.random.default_rng(seed)
    split = min(split, dim)
    grid = GridConfig(n, 1.0)
    t = grid.half_times()
    abars = [random_linear_system(rng, dim, split)(t) for _ in range(size)]
    starts = rng.standard_normal((size, dim))
    got = integrate_linear(np.stack(abars, 1), starts.T, grid, direction)
    assert got.shape == (n + 1, dim, size)
    for b, (abar, start) in enumerate(zip(abars, starts)):
        single = integrate_linear(abar, start, grid, direction)
        assert np.array_equal(got[:, :, b], single)


@pytest.mark.parametrize("direction", [1, -1])
def test_linear_blow_up_names_first_non_finite_node_in_stepping_order(direction):
    # x' = A(t) x, with A's rows above the split scaled by 1/100 and
    # 200 direction added on their diagonal, grows those four components
    # away from the start of the solve by about 65 per step of 1/40, and they
    # overflow part way from 1e250; the four below the split never read
    # them and stay finite.  From 2^-400 times that start nothing
    # overflows, and every rounding scales exactly, so that solve times
    # 2^400 is the path from 1e250 wherever no partial sum overflows, which
    # the dominant diagonal ensures.  The reason names the path's first
    # non-finite node in stepping order, on one line, for a single solve
    # and for the member that overflows first in a batch.
    grid = GridConfig(40, 1.0)
    dim, split = 8, 4
    abar = random_linear_system(np.random.default_rng(5), dim, split)(grid.half_times())
    abar[:, :dim, dim] = 0.0
    abar[:, :split] *= 0.01
    abar[:, range(split), range(split)] += 200.0 * direction
    start = np.full(dim, 1e250)
    with np.errstate(over="ignore"):
        small = integrate_linear(abar, start * 2.0**-400, grid, direction)
        path = small * 2.0**400
    bad = np.flatnonzero(~np.isfinite(path).all(axis=1))
    node = bad[0] if direction > 0 else bad[-1]
    assert 0 < node < grid.n_steps
    assert np.isfinite(path[node, split:]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_linear(abar, start, grid, direction)
        assert got.startswith(f"non-finite state at t={node * grid.h}: ")
        # longer than numpy's default line width
        assert "\n" not in got and len(got) > 100
        # beside it, a member that stays finite and one that starts higher
        # and so overflows first
        batch = np.stack((abar, abar, abar), 1)
        starts = np.stack((np.zeros(dim), start, 1e50 * start), 1)
        first = solve_linear(batch, starts, grid, direction)
        assert first == solve_linear(abar, 1e50 * start, grid, direction)


@pytest.mark.parametrize("direction", [1, -1])
def test_linear_step_maps_work_in_three_step_sized_arrays(direction):
    # a batch the size of validate's finite-difference patterns: beyond
    # abar, the stages, the map sum and the scan take three arrays of one
    # matrix per step and member, and the node states a little more
    n, size = 200, 35
    grid = GridConfig(n, 1.0)
    rng = np.random.default_rng(7)
    t = grid.half_times()
    abar = np.stack([random_linear_system(rng, 3)(t) for _ in range(size)], 1)
    start = rng.standard_normal((3, size))
    step_sized = n * size * 16 * 8
    tracemalloc.start()
    try:
        integrate_linear(abar, start, grid, direction)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * step_sized
