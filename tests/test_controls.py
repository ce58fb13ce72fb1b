import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from redblue.dynamics import Dynamics
from redblue.model import sample_on_grid
from conftest import make_params, random_params


def solve_policy(params, pattern, n=200, horizon=0.1):
    grid = GridConfig(n, horizon)
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
        params, horizon = random_params(rng, lam_mode="full")
        pattern = Pattern(
            Sinusoid(rng.uniform(0.2, 1.0), rng.uniform(2.0, 30.0)),
            Affine(rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)),
        )
        policy = solve_policy(params, pattern, horizon=horizon)
        for _ in range(20):
            t = float(rng.uniform(0.0, horizon))
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
    # a policy's grid is its curves' grid: curves of 51 nodes labelled
    # with a 60-step grid are refused
    params = make_params()
    grid = GridConfig(50, 0.1)
    other = GridConfig(60, 0.1)
    coeffs = FeedbackPolicy.solve(params, ZERO_PATTERN, grid).coeffs
    with pytest.raises(GridMismatchError):
        FeedbackPolicy(params, ZERO_PATTERN, replace(coeffs, grid=other))


def bits(arrays) -> bytes:
    """The bytes of a sequence of equal-length arrays, stacked."""
    return np.asarray(arrays, dtype=float).tobytes()


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    n_steps=st.integers(2, 200),
)
def test_paths_controls_and_moments_share_one_closed_loop(seed, mode, n_steps):
    # the gains table the paths step with, the pointwise controls at the
    # nodes and the moment matrix K are the same gains, bit for bit, under
    # velocity targets and a pattern with an offset
    rng = np.random.default_rng(seed)
    params, horizon = random_params(rng, mode)
    pattern = Pattern(
        Sinusoid(rng.uniform(0.2, 2.0), rng.uniform(1.0, 30.0), rng.uniform(0.0, 3.0)),
        Affine(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    )
    p = solve_policy(params, pattern, n_steps, horizon)
    c = p.coeffs
    dyn = Dynamics.of(params)
    f_c = sample_on_grid(pattern.f_c, p.grid)
    f_d = sample_on_grid(pattern.f_d, p.grid)
    # the table is the gains of the node curves and the grid-sampled pattern
    assert p.gains.shape == (n_steps + 1, 6)
    assert bits(p.gains.T) == bits(
        (
            *dyn.state_gains(c.mu, c.eta, c.rho, f_c),
            *dyn.offset_gains(c.gamma, c.theta, f_d),
        )
    )
    a_v, a_y, b_v, b_y, a_0, b_0 = p.gains.T
    assert bits(dyn.moment_gains(c.mu, c.eta, c.rho, f_c)) == bits(
        (
            2.0 * a_v,
            2.0 * a_y,
            1.0 + b_v,
            b_y + a_v,
            a_y,
            2.0 * (1.0 + b_v),
            2.0 * b_y,
        )
    )
    t = p.grid.times()
    v, y = rng.uniform(-2.0, 2.0, t.size), rng.uniform(-3.0, 3.0, t.size)
    assert bits((optimal_alpha(p, t, v, y), optimal_beta(p, t, v, y))) == bits(
        (a_v * v + a_y * y + a_0, b_v * v + b_y * y + b_0)
    )
