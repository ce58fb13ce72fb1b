import math

import numpy as np
import pytest

from redblue import (
    Affine,
    Constant,
    GridConfig,
    GridMismatchError,
    Pattern,
    Sinusoid,
    ZERO_PATTERN,
    solve_value_coeffs,
)
from redblue.dynamics import misdirection_gain, pattern_curvature
from redblue.riccati import check_same_grid, terminal_conditions
from conftest import make_params, random_params


def test_terminal_conditions():
    params = make_params(t_v=2.0, vbar_final=0.5)
    terminal = terminal_conditions(params)
    np.testing.assert_allclose(terminal, [2.0, 0.0, 0.0, -1.0, 0.0, 0.25])


def test_gain_and_curvature_at_full_intensity():
    params = make_params(lam=make_params().lam_upper)
    assert misdirection_gain(params) == 1.0
    # curvature is computed in factored form, so it is exactly zero here
    assert pattern_curvature(params) == 0.0


def test_solution_matches_scalar_closed_form():
    # with a zero pattern and lam=0 the quadratic coefficient satisfies
    # mu' = mu^2 - 1, mu(T) = 1/2, solved by tanh(atanh(1/2) + T - t)
    params = make_params(
        horizon=1.0,
        r_alpha=1.0,
        r_v=1.0,
        t_v=0.5,
        lam=0.0,
        vbar=Constant(0.3),
        vbar_final=0.7,
    )
    grid = GridConfig(400, 1.0)
    coeffs = solve_value_coeffs(params, ZERO_PATTERN, grid)
    c = math.atanh(0.5)
    w = c + 1.0 - grid.times()
    np.testing.assert_allclose(coeffs.mu, np.tanh(w), atol=1e-9)
    # the offset coefficient then solves gamma' = mu gamma + r_v vbar with
    # gamma(T) = -t_v vbar_T, which integrates in closed form as well
    expected_gamma = -(
        0.5 * 0.7 * math.cosh(c) + 0.3 * (np.sinh(w) - math.sinh(c))
    ) / np.cosh(w)
    np.testing.assert_allclose(coeffs.gamma, expected_gamma, atol=1e-9)


def test_zero_pattern_decouples_exactly():
    rng = np.random.default_rng(42)
    for _ in range(5):
        params = random_params(rng)
        grid = GridConfig(100, params.horizon)
        coeffs = solve_value_coeffs(params, ZERO_PATTERN, grid)
        assert np.all(coeffs.eta == 0.0)
        assert np.all(coeffs.rho == 0.0)
        assert np.all(coeffs.theta == 0.0)


def test_lambda_zero_decouples_exactly():
    params = make_params(lam=0.0)
    pattern = Pattern(Sinusoid(1.0, 10.0 * math.pi), Affine(0.2, 0.1))
    coeffs = solve_value_coeffs(params, pattern, GridConfig(150, 0.1))
    assert np.all(coeffs.eta == 0.0)
    assert np.all(coeffs.rho == 0.0)
    assert np.all(coeffs.theta == 0.0)
    # gamma still reacts to the pattern offset through the control, but the
    # cross terms cannot: the running weight keeps mu nonzero
    assert np.all(coeffs.mu > 0.0)


def test_full_intensity_decouples_exactly():
    params = make_params(lam=10.0 * 0.1**2)
    assert params.lam == params.lam_upper
    pattern = Pattern(Sinusoid(0.7, 20.0), Constant(0.3))
    coeffs = solve_value_coeffs(params, pattern, GridConfig(150, 0.1))
    assert np.all(coeffs.eta == 0.0)
    assert np.all(coeffs.rho == 0.0)
    assert np.all(coeffs.theta == 0.0)


def test_refinement_converged():
    params = make_params(lam=0.06)
    pattern = Pattern(Sinusoid(1.0, 10.0 * math.pi), Constant(0.0))
    coarse = solve_value_coeffs(params, pattern, GridConfig(200, 0.1))
    fine = solve_value_coeffs(params, pattern, GridConfig(400, 0.1))
    for name in ("mu", "eta", "rho", "gamma", "theta", "xi"):
        a = getattr(coarse, name)
        b = getattr(fine, name)[::2]
        assert np.max(np.abs(a - b)) < 1e-10


def test_value_evaluation():
    params = make_params()
    grid = GridConfig(50, 0.1)
    coeffs = solve_value_coeffs(params, ZERO_PATTERN, grid)
    v, y = 1.2, -0.4
    k = 10
    manual = (
        0.5 * coeffs.mu[k] * v * v
        + coeffs.eta[k] * v * y
        + 0.5 * coeffs.rho[k] * y * y
        + coeffs.gamma[k] * v
        + coeffs.theta[k] * y
        + coeffs.xi[k]
    )
    assert coeffs.value(k, v, y) == pytest.approx(manual, rel=1e-15)


def test_check_same_grid():
    params = make_params()
    coeffs = solve_value_coeffs(params, ZERO_PATTERN, GridConfig(50, 0.1))
    check_same_grid(coeffs.grid, GridConfig(50, 0.1))
    with pytest.raises(GridMismatchError):
        check_same_grid(coeffs.grid, GridConfig(60, 0.1))
    with pytest.raises(GridMismatchError):
        check_same_grid(coeffs.grid, GridConfig(50, 0.2))
