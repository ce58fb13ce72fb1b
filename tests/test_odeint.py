import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from redblue import GridConfig, NonFiniteStateError
from redblue.odeint import integrate_backward, integrate_forward, integrate_linear


def reference_rk4(rhs, state, grid, direction):
    """The array-based RK4 loop the tuple loop replaced, kept as the
    reference: numpy arrays per stage and a finiteness check per node."""
    n = grid.n_steps
    h = direction * grid.h
    node = 0 if direction > 0 else n
    state = np.array(state, dtype=float)

    def check_finite(state, t):
        if not np.all(np.isfinite(state)):
            row = np.array2string(state, max_line_width=sys.maxsize)
            raise NonFiniteStateError(f"non-finite state at t={t}: {row}")

    check_finite(state, node * grid.h)
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
        check_finite(state, node * grid.h)
        out[node] = state
    return out


def exp_rhs(j, x):
    return x


def test_forward_exponential():
    states = integrate_forward(exp_rhs, np.array([1.0]), GridConfig(50, 1.0))
    assert states.shape == (51, 1)
    assert states[0, 0] == 1.0
    assert states[-1, 0] == pytest.approx(math.e, abs=1e-8)


def test_forward_fourth_order_convergence():
    def err(n):
        states = integrate_forward(exp_rhs, np.array([1.0]), GridConfig(n, 1.0))
        return abs(states[-1, 0] - math.e)

    ratio = err(20) / err(40)
    # classical fourth order: halving the step divides the error by ~16
    assert 12.0 < ratio < 20.0


def test_forward_time_dependent_rhs():
    # x' = 2t, x(0)=0 -> x(T)=T^2; polynomial quadrature is exact for RK4
    grid = GridConfig(10, 2.0)
    half_times = grid.half_times()
    states = integrate_forward(
        lambda j, x: np.array([2.0 * half_times[j]]), np.array([0.0]), grid
    )
    assert states[-1, 0] == pytest.approx(4.0, abs=1e-13)


def test_backward_riccati_closed_form():
    # mu' = mu^2 - 1 with mu(T) = 1/2 has solution tanh(atanh(1/2) + T - t)
    grid = GridConfig(400, 1.0)
    states = integrate_backward(
        lambda j, x: (x[0] * x[0] - 1.0,), np.array([0.5]), grid
    )
    c = math.atanh(0.5)
    expected = np.tanh(c + 1.0 - grid.times())
    np.testing.assert_allclose(states[:, 0], expected, atol=1e-9)
    assert states[-1, 0] == 0.5


def test_backward_terminal_row_exact():
    terminal = np.array([3.0, -1.5])
    states = integrate_backward(
        lambda j, x: (-x[0], -x[1]), terminal, GridConfig(10, 1.0)
    )
    np.testing.assert_array_equal(states[-1], terminal)


def test_stage_indices_walk_the_half_grid():
    n = 6
    seen = {"forward": [], "backward": []}

    def recorder(direction):
        def rhs(j, x):
            seen[direction].append(j)
            return np.zeros(1)

        return rhs

    integrate_forward(recorder("forward"), [0.0], GridConfig(n, 1.0))
    integrate_backward(recorder("backward"), [0.0], GridConfig(n, 1.0))
    forward = [j for k in range(n) for j in (2 * k, 2 * k + 1, 2 * k + 1, 2 * k + 2)]
    assert seen["forward"] == forward
    assert seen["backward"] == [2 * n - j for j in forward]


def oscillator(grid: GridConfig):
    half_times = grid.half_times()

    def rhs(j, x):
        return np.array([x[1], -x[0] + math.sin(half_times[j])])

    return rhs


def test_backward_forward_round_trip():
    grid = GridConfig(200, 1.0)
    rhs = oscillator(grid)
    back = integrate_backward(rhs, np.array([1.0, 0.25]), grid)
    forward = integrate_forward(rhs, back[0].copy(), grid)
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
    rhs = oscillator(grid)
    back = integrate_backward(rhs, np.array([x_end, v_end]), grid)
    forward = integrate_forward(rhs, back[0], grid)
    np.testing.assert_allclose(forward[-1], [x_end, v_end], atol=1e-8)
    np.testing.assert_allclose(forward, back, atol=1e-8)


def test_non_finite_detection():
    # x' = x^2 escapes in finite time from x(0)=10 on [0, 1]
    with pytest.raises(NonFiniteStateError):
        integrate_forward(
            lambda j, x: (x[0] * x[0],), np.array([10.0]), GridConfig(20, 1.0)
        )


@st.composite
def polynomial_systems(draw):
    """A random polynomial right-hand side of degree <= 2 with a
    half-grid-indexed time term, its start state, and the sequence type the
    right-hand side returns: tuple, as the library's do, or list."""
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
    def rhs(j, x):
        out = []
        for const, slope, terms in components:
            acc = const + slope * half_times[j]
            for c, a, b in terms:
                acc = acc + (c * x[a] if b is None else c * x[a] * x[b])
            out.append(acc)
        return kind(out)

    return rhs


def run_both(rhs, start, grid, direction):
    """(result or error message) of the tuple loop and of the reference."""
    new = integrate_forward if direction > 0 else integrate_backward
    try:
        got = new(rhs, start, grid)
    except NonFiniteStateError as exc:
        got = str(exc)
    with np.errstate(all="ignore"):
        try:
            want = reference_rk4(lambda j, x: np.array(rhs(j, x)), start, grid, direction)
        except NonFiniteStateError as exc:
            want = str(exc)
    return got, want


@given(
    system=polynomial_systems(),
    direction=st.sampled_from([1, -1]),
    n=st.integers(2, 300),
    horizon=st.floats(0.05, 1.0),
)
def test_tuple_loop_matches_array_reference(system, direction, n, horizon):
    components, start, kind = system
    grid = GridConfig(n, horizon)
    rhs = polynomial_rhs(components, grid.half_times().tolist(), kind)
    got, want = run_both(rhs, start, grid, direction)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape == (n + 1, len(start))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("direction, start", [(1, 10.0), (-1, -10.0)])
def test_blow_up_names_first_non_finite_node_in_stepping_order(direction, start):
    # x' = x^2 from x(0) = 10 escapes at node 7 of 40; backward from
    # x(1) = -10 is its mirror image and escapes at node 33.  Every node past
    # the escape stays inf, so the error must name the one nearest the start
    # of the solve, not the lowest index.
    grid = GridConfig(40, 1.0)
    rhs = polynomial_rhs([(0.0, 0.0, [(1.0, 0, 0)])], grid.half_times().tolist())
    got, want = run_both(rhs, [start], grid, direction)
    assert isinstance(want, str) and got == want
    node = 7 if direction > 0 else 33
    assert got.startswith(f"non-finite state at t={node * grid.h}: ")


@st.composite
def polynomial_batches(draw):
    """A polynomial system with 1-8 start states, one per batch member."""
    components, start, kind = draw(polynomial_systems())
    dim = len(start)
    member = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    return components, [start, *draw(st.lists(member, max_size=7))], kind


def solve_or_message(solve, rhs, start, grid):
    try:
        return solve(rhs, start, grid)
    except NonFiniteStateError as exc:
        return str(exc)


@given(
    batch=polynomial_batches(),
    direction=st.sampled_from([1, -1]),
    n=st.integers(2, 120),
    horizon=st.floats(0.05, 1.0),
)
def test_batch_loop_matches_single_solves(batch, direction, n, horizon):
    # a (C, B) start steps B members through the same loop: member b is bit
    # for bit its own float solve, and a blow-up names the member and node
    # that go non-finite first in stepping order, with no numpy warning
    components, starts, kind = batch
    grid = GridConfig(n, horizon)
    rhs = polynomial_rhs(components, grid.half_times().tolist(), kind)
    solve = integrate_forward if direction > 0 else integrate_backward
    singles = [solve_or_message(solve, rhs, start, grid) for start in starts]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_or_message(solve, rhs, np.array(starts).T, grid)
    failed = [s for s in singles if isinstance(s, str)]
    if failed:
        times = [float(s.split("t=")[1].split(":")[0]) for s in failed]
        first = times.index(min(times) if direction > 0 else max(times))
        assert got == failed[first]
    else:
        assert got.shape == (n + 1, len(starts[0]), len(starts))
        for b, single in enumerate(singles):
            assert np.array_equal(got[:, :, b], single)


def test_batch_with_one_overflowing_member_raises_without_warnings():
    # x' = x^2: the member from 0.5 stays finite on [0, 1], the one from 10
    # escapes at node 7 of 40
    grid = GridConfig(40, 1.0)
    rhs = polynomial_rhs([(0.0, 0.0, [(1.0, 0, 0)])], grid.half_times().tolist())
    single = solve_or_message(integrate_forward, rhs, [10.0], grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError) as info:
            integrate_forward(rhs, np.array([[0.5, 10.0]]), grid)
    assert str(info.value) == single
    assert single.startswith(f"non-finite state at t={7 * grid.h}: ")


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
    """x' = A x + b as a right-hand side of the RK4 loop, read from the
    half-grid table ``abar``."""
    rows = abar[:, :-1, :]
    return lambda j, x: rows[j] @ np.append(x, 1.0)


def solve_linear(abar, start, grid, direction, split=0, rk4=False):
    """The linear stepper's solve, or the RK4 loop's; either one's reason
    if it goes non-finite."""
    try:
        if not rk4:
            return integrate_linear(abar, start, grid, direction, split)
        solve = integrate_forward if direction > 0 else integrate_backward
        return solve(linear_rhs(abar), start, grid)
    except NonFiniteStateError as exc:
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
    got = integrate_linear(abar, start, grid, direction, min(split, dim))
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
    got = integrate_linear(np.stack(abars, 1), starts.T, grid, direction, split)
    assert got.shape == (n + 1, dim, size)
    for b, (abar, start) in enumerate(zip(abars, starts)):
        single = integrate_linear(abar, start, grid, direction, split)
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
        small = integrate_linear(abar, start * 2.0**-400, grid, direction, split)
        path = small * 2.0**400
    bad = np.flatnonzero(~np.isfinite(path).all(axis=1))
    node = bad[0] if direction > 0 else bad[-1]
    assert 0 < node < grid.n_steps
    assert np.isfinite(path[node, split:]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_linear(abar, start, grid, direction, split)
        assert got.startswith(f"non-finite state at t={node * grid.h}: ")
        # longer than numpy's default line width
        assert "\n" not in got and len(got) > 100
        # beside it, a member that stays finite and one that starts higher
        # and so overflows first
        batch = np.stack((abar, abar, abar), 1)
        starts = np.stack((np.zeros(dim), start, 1e50 * start), 1)
        first = solve_linear(batch, starts, grid, direction, split)
        assert first == solve_linear(abar, 1e50 * start, grid, direction, split)


def test_linear_split_keeps_an_overflow_above_it():
    # maps whose upper-left block overflows at once: the rows below the
    # split never read it, so they stay finite in the reason, where a
    # product through the zero block would make them nan (0 * inf)
    grid = GridConfig(20, 1.0)
    dim, split = 6, 3
    abar = random_linear_system(np.random.default_rng(7), dim, split)(grid.half_times())
    abar[:, :split, :split] *= 1e300
    reason = solve_linear(abar, np.ones(dim), grid, 1, split)
    assert reason.startswith(f"non-finite state at t={grid.h}: ")
    row = np.array([float(v) for v in reason.split("[")[1].rstrip("]").split()])
    assert not np.isfinite(row[:split]).all()
    assert np.isfinite(row[split:]).all()
