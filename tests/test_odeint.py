import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from redblue import GridConfig, NonFiniteStateError
from redblue.odeint import integrate_backward, integrate_forward


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
    states = integrate_backward(lambda j, x: x * x - 1.0, np.array([0.5]), grid)
    c = math.atanh(0.5)
    expected = np.tanh(c + 1.0 - grid.times())
    np.testing.assert_allclose(states[:, 0], expected, atol=1e-9)
    assert states[-1, 0] == 0.5


def test_backward_terminal_row_exact():
    terminal = np.array([3.0, -1.5])
    states = integrate_backward(lambda j, x: -x, terminal, GridConfig(10, 1.0))
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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_detection():
    # x' = x^2 escapes in finite time from x(0)=10 on [0, 1]
    with pytest.raises(NonFiniteStateError):
        integrate_forward(lambda j, x: x * x, np.array([10.0]), GridConfig(20, 1.0))
