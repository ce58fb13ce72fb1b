from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redblue import (
    Constant,
    FeedbackPolicy,
    GridConfig,
    ModelParams,
    NonFiniteStateError,
    Pattern,
    ZERO_PATTERN,
    expected_log_lr,
    monte_carlo,
    solve_moments,
    solve_value_coeffs,
)
from redblue.red.objective import solve_stack
from redblue.riccati import ValueCoeffs
from conftest import make_params, random_params


def manual_coeffs(grid, mu_value):
    n1 = grid.n_steps + 1
    zeros = np.zeros(n1)
    return ValueCoeffs(
        grid=grid,
        mu=np.full(n1, mu_value),
        eta=zeros.copy(),
        rho=zeros.copy(),
        gamma=zeros.copy(),
        theta=zeros.copy(),
        xi=zeros.copy(),
    )


def test_moment_cascade_closed_form():
    # with mu/r_alpha = 1 and all cross coefficients zero the system is a
    # linear cascade with exponential solutions:
    #   E[V^2]  = e^(-2t)
    #   E[VY]   = e^(-t) - e^(-2t)
    #   E[Y^2]  = (1 - e^(-t))^2
    # (noise intensities are negligible, initial state (1, 0))
    params = ModelParams(
        horizon=1.0,
        sigma_b=0.0,
        sigma_w=1e-9,
        r_alpha=1.0,
        r_beta=10.0,
        r_v=1.0,
        t_v=1.0,
        vbar=Constant(0.0),
        vbar_final=0.0,
        lam=0.0,
        v0=1.0,
        y0=0.0,
    )
    grid = GridConfig(400, 1.0)
    coeffs = manual_coeffs(grid, mu_value=1.0)
    moments = solve_moments(params, coeffs, Constant(0.0), grid)
    t = grid.times()
    np.testing.assert_allclose(moments.h20, np.exp(-2.0 * t), atol=1e-8)
    np.testing.assert_allclose(
        moments.h11, np.exp(-t) - np.exp(-2.0 * t), atol=1e-8
    )
    np.testing.assert_allclose(moments.h02, (1.0 - np.exp(-t)) ** 2, atol=1e-8)


def test_initial_values():
    params = make_params(v0=1.5, y0=-2.0)
    grid = GridConfig(100, 0.1)
    coeffs = solve_value_coeffs(params, ZERO_PATTERN, grid)
    moments = solve_moments(params, coeffs, Constant(0.0), grid)
    assert moments.h20[0] == 1.5**2
    assert moments.h11[0] == 1.5 * -2.0
    assert moments.h02[0] == 4.0


def test_requires_decoupled_offsets():
    # a running target drives the offset coefficients, outside the scope of
    # the second-moment system
    params = make_params(vbar=Constant(1.0))
    grid = GridConfig(100, 0.1)
    coeffs = solve_value_coeffs(params, ZERO_PATTERN, grid)
    with pytest.raises(ValueError):
        solve_moments(params, coeffs, Constant(0.0), grid)
    batch = solve_value_coeffs(params, [ZERO_PATTERN] * 3, grid)
    with pytest.raises(ValueError):
        solve_moments(params, batch, [Constant(0.0)] * 3, grid)


def test_cauchy_schwarz_along_curves():
    params = make_params(lam=0.08)
    grid = GridConfig(200, 0.1)
    pattern = Pattern(Constant(1.0), Constant(0.0))
    coeffs = solve_value_coeffs(params, pattern, grid)
    moments = solve_moments(params, coeffs, pattern.f_c, grid)
    gap = moments.h11**2 - moments.h20 * moments.h02
    assert np.max(gap) <= 1e-6


def test_expected_log_lr_zero_for_zero_pattern():
    params = make_params()
    grid = GridConfig(100, 0.1)
    coeffs = solve_value_coeffs(params, ZERO_PATTERN, grid)
    moments = solve_moments(params, coeffs, Constant(0.0), grid)
    assert expected_log_lr(params, coeffs, Constant(0.0), moments, grid) == 0.0


def test_unit_pattern_payoff_value():
    # reported payoff for the short-horizon regime with a constant unit
    # pattern is 23.21; the misdirection weight sits at its upper bound
    params = make_params(lam=0.1)
    grid = GridConfig(200, 0.1)
    pattern = Pattern(Constant(1.0), Constant(0.0))
    coeffs = solve_value_coeffs(params, pattern, grid)
    moments = solve_moments(params, coeffs, pattern.f_c, grid)
    value = expected_log_lr(params, coeffs, pattern.f_c, moments, grid)
    assert value == pytest.approx(23.21, rel=0.01)


def test_agrees_with_monte_carlo():
    params = make_params(lam=0.06)
    grid = GridConfig(150, 0.1)
    pattern = Pattern(Constant(0.8), Constant(0.0))
    policy = FeedbackPolicy.solve(params, pattern, grid)
    summary = monte_carlo(policy, pattern, grid, 4000, 31)
    coeffs = policy.coeffs
    moments = solve_moments(params, coeffs, pattern.f_c, grid)
    value = expected_log_lr(params, coeffs, pattern.f_c, moments, grid)
    assert abs(summary.mean_log_lr - value) <= 3.0 * summary.se_log_lr


_COEFF_CURVES = ("mu", "eta", "rho", "gamma", "theta", "xi")
_MOMENT_CURVES = ("h20", "h11", "h02")


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    n_steps=st.integers(2, 120),
    kinds=st.integers(1, 40).flatmap(
        lambda size: st.lists(
            st.sampled_from(["zero", "bump", "random", "large"]),
            min_size=size,
            max_size=size,
        )
    ),
)
def test_batched_solve_stack_matches_single_solves(seed, mode, n_steps, kinds):
    # member b of a batch is bit for bit the single solve of row b: every
    # coefficient curve, every moment curve and the payoff
    rng = np.random.default_rng(seed)
    params = replace(random_params(rng, mode), vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, params.horizon)
    n1 = n_steps + 1
    rows = np.zeros((len(kinds), n1))
    for row, kind in zip(rows, kinds):
        if kind == "bump":
            row[rng.integers(n1)] = rng.choice([1e-5, -1e-5, 0.3])
        elif kind == "random":
            row[:] = rng.standard_normal(n1)
        elif kind == "large":
            # large enough that some members overflow
            row[:] = 10.0 ** rng.uniform(1.0, 2.2) * rng.standard_normal(n1)
    singles = []
    for row in rows:
        try:
            singles.append(solve_stack(params, row, grid))
        except NonFiniteStateError:
            singles.append(None)
    if None in singles:
        with pytest.raises(NonFiniteStateError):
            solve_stack(params, rows, grid)
        return
    coeffs, moments, elr = solve_stack(params, rows, grid)
    assert elr.shape == (len(rows),)
    for b, (coeffs_b, moments_b, elr_b) in enumerate(singles):
        for curves, curves_b, names in (
            (coeffs, coeffs_b, _COEFF_CURVES),
            (moments, moments_b, _MOMENT_CURVES),
        ):
            for name in names:
                batch = getattr(curves, name)
                assert batch.shape == (n1, len(rows))
                assert np.array_equal(batch[:, b], getattr(curves_b, name))
        assert elr[b] == elr_b
