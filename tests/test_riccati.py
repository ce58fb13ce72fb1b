import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redblue import (
    Affine,
    Constant,
    GridConfig,
    InputError,
    NumericError,
    Pattern,
    Sinusoid,
    ZERO_PATTERN,
    solve_value_coeffs,
)
from redblue.dynamics import Dynamics, misdirection_gain, pattern_curvature
from redblue.model import check_same_grid, grid_function, sample_on_half_grid
from redblue.red.objective import solve_stack
from redblue.riccati import terminal_conditions
from rk4_reference import reference_rk4
from conftest import (
    assert_within_column_max,
    make_params,
    random_params,
    states_or_node,
)
import value_reference as reference


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
        params, horizon = random_params(rng)
        grid = GridConfig(100, horizon)
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


def test_check_same_grid():
    params = make_params()
    coeffs = solve_value_coeffs(params, ZERO_PATTERN, GridConfig(50, 0.1))
    check_same_grid(coeffs.grid, GridConfig(50, 0.1))
    with pytest.raises(InputError):
        check_same_grid(coeffs.grid, GridConfig(60, 0.1))
    with pytest.raises(InputError):
        check_same_grid(coeffs.grid, GridConfig(50, 0.2))


# The largest difference of gamma, theta and xi from the per-stage reference,
# relative to each column's max |value|, was 6.2e-16 over 4000 draws made as
# this test makes them, and 7.4e-16 over 300 smooth-pattern draws; the 297
# draws that went non-finite did so at the same node on both sides
VALUE_BOUND = 5e-15


def value_curves(params, pattern, grid):
    c = solve_value_coeffs(params, pattern, grid)
    return np.column_stack((c.mu, c.eta, c.rho, c.gamma, c.theta, c.xi))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    n_steps=st.integers(2, 300),
    # at the largest scale some patterns overflow
    scale=st.sampled_from([1e-3, 1.0, 40.0, 200.0]),
)
def test_value_lines_match_the_per_stage_reference(seed, mode, n_steps, scale):
    # gamma and theta read off the closed loop's gains step as the in-place
    # lines did, up to rounding, under velocity targets and a pattern
    # offset; F is the same function on both sides, so (mu, eta, rho) agree
    # bit for bit, and a solve that goes non-finite does so at the same node
    rng = np.random.default_rng(seed)
    params, horizon = random_params(rng, mode)
    grid = GridConfig(n_steps, horizon)
    f_c = grid_function(scale * rng.standard_normal(n_steps + 1), grid)
    f_d = Sinusoid(*rng.uniform((-2.0, 0.0, 0.0), (2.0, 20.0, 3.0)))
    args = (params, Pattern(f_c, f_d), grid)
    want = states_or_node(reference.solve_value_coeffs, *args)
    got = states_or_node(value_curves, *args)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got[:, :3], want[:, :3])
    assert_within_column_max(got, want, VALUE_BOUND)


def per_stage_reference(params, pattern, grid):
    """The six lines stepped by the reference loop, calling value_rhs at
    every stage; its nodes, or its NumericError's reason."""
    dyn = Dynamics.of(params)
    forcing = list(
        zip(
            *(
                sample_on_half_grid(curve, grid).tolist()
                for curve in (pattern.f_c, pattern.f_d, params.vbar)
            )
        )
    )
    with np.errstate(all="ignore"):
        try:
            return reference_rk4(
                lambda j, s: dyn.value_rhs(*s, *forcing[j]),
                terminal_conditions(params),
                grid,
                -1,
            )
        except NumericError as exc:
            return str(exc)


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    n_steps=st.integers(2, 300),
    # a zero scale keeps the sign of every zero node; 1e160 overflows f^2
    scale=st.sampled_from([0.0, 1e-3, 1.0, 40.0, 200.0, 1e160]),
)
def test_six_line_loop_matches_the_per_stage_callback(seed, mode, n_steps, scale):
    # the loop traced from value_rhs, with coeff_rhs and state_gains
    # inlined, steps every node as the reference loop calling value_rhs at
    # every stage does, bit for bit and in the sign of every zero, under
    # velocity targets and a pattern offset, and fails with the same reason
    rng = np.random.default_rng(seed)
    params, horizon = random_params(rng, mode)
    grid = GridConfig(n_steps, horizon)
    f_c = grid_function(scale * rng.standard_normal(n_steps + 1), grid)
    f_d = Sinusoid(*rng.uniform((-2.0, 0.0, 0.0), (2.0, 20.0, 3.0)))
    pattern = Pattern(f_c, f_d)
    want = per_stage_reference(params, pattern, grid)
    try:
        got = value_curves(params, pattern, grid)
    except NumericError as exc:
        got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    n_steps=st.integers(2, 300),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 40.0]),
)
def test_mu_eta_rho_are_solve_stacks_f_columns(seed, mode, n_steps, scale):
    # under a zero-offset pattern riccati's F is solve_stack's, bit for bit:
    # the six-line loop steps F with the same operations in the same order
    rng = np.random.default_rng(seed)
    params, horizon = random_params(rng, mode)
    params = replace(params, vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, horizon)
    row = scale * rng.standard_normal(n_steps + 1)
    pattern = Pattern(grid_function(row, grid), Constant(0.0))
    coeffs = states_or_node(value_curves, params, pattern, grid)
    stack = states_or_node(solve_stack, params, row, grid)
    if isinstance(coeffs, str) or isinstance(stack, str):
        return
    assert coeffs[:, :3].tobytes() == stack[0][:, :3].tobytes()
