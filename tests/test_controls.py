import math

import numpy as np
import pytest

from redblue import (
    Affine,
    FeedbackPolicy,
    GridConfig,
    GridMismatchError,
    OutOfDomainError,
    Pattern,
    Sinusoid,
    ZERO_PATTERN,
)
from redblue.controls import optimal_alpha, optimal_beta
from conftest import make_params, random_params


def solve_policy(params, pattern, n=200):
    grid = GridConfig(n, params.horizon)
    return FeedbackPolicy.solve(params, pattern, grid)


def test_alpha_is_affine_in_state():
    policy = solve_policy(make_params(), ZERO_PATTERN)
    t = 0.037
    base = optimal_alpha(policy, t, 0.0, 0.0)
    dv = optimal_alpha(policy, t, 1.0, 0.0) - base
    dy = optimal_alpha(policy, t, 0.0, 1.0) - base
    combined = optimal_alpha(policy, t, 2.0, -3.0)
    assert combined == pytest.approx(base + 2.0 * dv - 3.0 * dy, rel=1e-12)


def test_alpha_matches_coefficients_at_nodes():
    params = make_params()
    policy = solve_policy(params, ZERO_PATTERN)
    coeffs = policy.coeffs
    k = 40
    t = policy.grid.times()[k]
    v, y = 0.8, -1.1
    manual = -(coeffs.mu[k] * v + coeffs.eta[k] * y + coeffs.gamma[k]) / params.r_alpha
    assert optimal_alpha(policy, t, v, y) == pytest.approx(manual, rel=1e-12)


def test_beta_zero_for_zero_pattern():
    policy = solve_policy(make_params(lam=0.07), ZERO_PATTERN)
    for t in np.linspace(0.0, 0.1, 11):
        assert optimal_beta(policy, float(t), 1.3, -2.1) == 0.0


def test_beta_tracks_pattern_at_full_intensity():
    # at the largest admissible misdirection weight the observation-side
    # control reproduces the pattern exactly: beta = f_c(t) y + f_d(t)
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = random_params(rng, lam_mode="full")
        pattern = Pattern(
            Sinusoid(rng.uniform(0.2, 1.0), rng.uniform(2.0, 30.0)),
            Affine(rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)),
        )
        policy = solve_policy(params, pattern)
        for _ in range(20):
            t = float(rng.uniform(0.0, params.horizon))
            v = float(rng.uniform(-2.0, 2.0))
            y = float(rng.uniform(-3.0, 3.0))
            expected = pattern.f_c(t) * y + pattern.f_d(t)
            assert optimal_beta(policy, t, v, y) == pytest.approx(
                expected, abs=1e-12
            )


def test_controls_interpolate_between_nodes():
    policy = solve_policy(make_params(), ZERO_PATTERN, n=10)
    times = policy.grid.times()
    v, y = 1.0, 2.0
    left = optimal_alpha(policy, float(times[3]), v, y)
    right = optimal_alpha(policy, float(times[4]), v, y)
    mid = optimal_alpha(policy, float(0.5 * (times[3] + times[4])), v, y)
    assert mid == pytest.approx(0.5 * (left + right), rel=1e-12)


def test_out_of_domain_query_rejected():
    policy = solve_policy(make_params(), ZERO_PATTERN)
    with pytest.raises(OutOfDomainError):
        optimal_alpha(policy, 0.11, 0.0, 0.0)
    with pytest.raises(OutOfDomainError):
        optimal_beta(policy, -0.01, 0.0, 0.0)
    # queries within rounding slack of the ends are fine
    optimal_alpha(policy, 0.1 + 1e-12, 0.0, 0.0)


def test_policy_rejects_mismatched_grid():
    params = make_params()
    grid = GridConfig(50, params.horizon)
    other = GridConfig(60, params.horizon)
    coeffs = FeedbackPolicy.solve(params, ZERO_PATTERN, grid).coeffs
    with pytest.raises(GridMismatchError):
        FeedbackPolicy(params, ZERO_PATTERN, other, coeffs)
