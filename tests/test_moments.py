import tracemalloc
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
    NumericError,
    Pattern,
    RedConfig,
    ZERO_PATTERN,
    expected_log_lr,
    monte_carlo,
    play_rounds,
    solve_moments,
    solve_value_coeffs,
)
from redblue.dynamics import Dynamics
from redblue.model import grid_function, sample_on_half_grid
from redblue.moments import NOT_SIMPLIFIED, nodes_to_half_grid
from redblue.odeint import integrate_backward
from redblue.red.objective import solve_stack
from redblue.riccati import ValueCoeffs
import moment_reference as reference
from rk4_reference import reference_rk4
from conftest import (
    assert_within_column_max,
    make_params,
    random_params,
    states_or_node,
)


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
    # (noise intensities are negligible, sigma_b**2 underflows to 0.0,
    # initial state (1, 0))
    params = ModelParams(
        sigma_b=1e-300,
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
    # the red objective checks the targets before it solves: a nonzero
    # running target, then a nonzero terminal target alone, each for one
    # pattern and for a batch
    for targets in (params, make_params(vbar_final=0.5)):
        for f_nodes in (np.zeros(101), np.zeros((3, 101))):
            with pytest.raises(ValueError, match="simplified model"):
                solve_stack(targets, f_nodes, grid)


@pytest.mark.parametrize(
    "targets",
    [{"vbar": Constant(1e-15)}, {"vbar_final": 1e-15}],
    ids=["vbar", "vbar_final"],
)
def test_tiny_targets_are_not_simplified(targets):
    # one exact rule at every entry point: a target far below any tolerance
    # still leaves the closure, though gamma and theta stay below 1e-12
    params = make_params(**targets)
    grid = GridConfig(40, 0.1)
    pattern = Pattern(Constant(1.0), Constant(0.0))
    coeffs = solve_value_coeffs(params, pattern, grid)
    assert np.max(np.abs(coeffs.gamma)) < 1e-12
    red = RedConfig(lambda_reg=1.0)
    calls = [
        lambda: solve_stack(params, np.ones(41), grid),
        lambda: solve_moments(params, coeffs, pattern.f_c, grid),
        lambda: play_rounds(params, pattern.f_c, red, 1, 50, 3, grid),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert info.value.args == (NOT_SIMPLIFIED,)


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


def layered_solves(params, row, grid):
    """The public solves on one row, as solve_stack's (x, elr)."""
    f_c = grid_function(row, grid)
    coeffs = solve_value_coeffs(params, Pattern(f_c, Constant(0.0)), grid)
    moments = solve_moments(params, coeffs, f_c, grid)
    elr = expected_log_lr(params, coeffs, f_c, moments, grid)
    curves = (coeffs.mu, coeffs.eta, coeffs.rho, moments.h20, moments.h11, moments.h02)
    return np.column_stack(curves), elr


def solved_or_none(solve, *args):
    try:
        return solve(*args)
    except NumericError:
        return None


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
    # member b of a batch is bit for bit the single solve of row b, and both
    # are the public solves of row b: every state curve and the payoff
    rng = np.random.default_rng(seed)
    params, horizon = random_params(rng, mode)
    params = replace(params, vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, horizon)
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
        single = solved_or_none(solve_stack, params, row, grid)
        layered = solved_or_none(layered_solves, params, row, grid)
        # the public solves also step gamma and theta, which stay zero under
        # zero targets, and xi, which is at most T (sigma_b^2 max |mu| +
        # sigma_w^2 max |rho|) / 2 and so finite for these draws (sigma_b,
        # sigma_w < 0.4, T < 1.2) whenever mu and rho are: both sides fail
        # or neither does
        assert (single is None) == (layered is None)
        if single is not None:
            assert np.array_equal(single[0], layered[0])
            assert single[1] == layered[1]
        singles.append(single)
    if None in singles:
        with pytest.raises(NumericError):
            solve_stack(params, rows, grid)
        return
    x, elr = solve_stack(params, rows, grid)
    assert x.shape == (n1, 6, len(rows))
    assert elr.shape == (len(rows),)
    for b, (x_b, elr_b) in enumerate(singles):
        assert np.array_equal(x[:, :, b], x_b)
        assert elr[b] == elr_b


def test_batched_solve_stack_holds_the_moment_matrices_and_three_step_maps():
    # validate's finite-difference batch: the augmented matrices take two
    # step-sized arrays and G's step maps three more; everything else (F's
    # states, the half-grid coefficients, K's entries) stays under one
    n, size = 200, 35
    grid = GridConfig(n, 0.1)
    rows = 1.0 + 0.01 * np.random.default_rng(3).standard_normal((size, n + 1))
    solve_stack(make_params(), rows, grid)  # builds F's loop once
    tracemalloc.start()
    try:
        solve_stack(make_params(), rows, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * n * size * 16 * 8


# The largest difference from the per-stage reference, relative to each
# column's max |value|, was 1.3e-13 over 2100 single rows drawn as this test
# draws them; the 256 that went non-finite did so at the same node on both
# sides
STATE_BOUND = 1e-12


def reference_stack(params, row, grid):
    """solve_stack's x for one row, stepped by the reference loop, with G's
    per-stage reference right-hand side, which restates K at every stage."""
    dyn = Dynamics.of(params)
    f = sample_on_half_grid(grid_function(row, grid), grid).tolist()
    with np.errstate(all="ignore"):
        coeffs = reference_rk4(
            lambda j, s: dyn.coeff_rhs(*s, f[j]), dyn.coeff_terminal(), grid, -1
        )
        s = nodes_to_half_grid(coeffs).tolist()
        moments = reference_rk4(
            lambda j, m: reference.moment_rhs(dyn, *m, *s[j], f[j]),
            dyn.moment_initial(),
            grid,
            1,
        )
    return np.concatenate((coeffs, moments), axis=1)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    n_steps=st.integers(2, 120),
    size=st.integers(1, 6),
    # at the largest scale most patterns overflow
    scale=st.sampled_from([1e-3, 1.0, 40.0, 200.0]),
)
def test_solve_stack_matches_the_per_stage_reference(seed, mode, n_steps, size, scale):
    # G's composed RK4 maps step the moments as the per-stage right-hand
    # side did, up to rounding, for one pattern and for each member of a
    # batch; a solve that goes non-finite does so at the same node
    rng = np.random.default_rng(seed)
    params, horizon = random_params(rng, mode)
    params = replace(params, vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, horizon)
    rows = scale * rng.standard_normal((size, n_steps + 1))
    wants = [states_or_node(reference_stack, params, row, grid) for row in rows]
    for row, want in zip(rows, wants):
        got = states_or_node(solve_stack, params, row, grid)
        if isinstance(want, str):
            assert got == want
        else:
            assert_within_column_max(got[0], want, STATE_BOUND)
    if any(isinstance(want, str) for want in wants):
        with pytest.raises(NumericError):
            solve_stack(params, rows, grid)
        return
    x, _ = solve_stack(params, rows, grid)
    for b, want in enumerate(wants):
        assert_within_column_max(x[:, :, b], want, STATE_BOUND)


def rk4_or_message(solve, *args):
    """``solve``'s nodes, or its NumericError's reason."""
    try:
        return solve(*args)
    except NumericError as exc:
        return str(exc)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    # the grid has at least two steps
    n_steps=st.integers(2, 300),
    size=st.integers(1, 6),
    # a zero scale keeps the sign of every zero node; 1e160 overflows f^2
    scale=st.sampled_from([0.0, 1e-3, 1.0, 40.0, 200.0, 1e160]),
)
def test_generated_coeff_loop_matches_the_callback_loop(seed, mode, n_steps, size, scale):
    # F's loop, generated from coeff_rhs's expressions, steps every node as
    # the reference loop calling coeff_rhs at every stage does, bit for bit
    # and in the sign of every zero, for one pattern and for each member of
    # a batch, and fails with the same reason as the member that goes
    # non-finite first in stepping order
    rng = np.random.default_rng(seed)
    dyn = Dynamics.of(random_params(rng, mode)[0])
    grid = GridConfig(n_steps, rng.uniform(0.2, 1.2))
    nodes = scale * rng.standard_normal((size, n_steps + 1))
    f = np.column_stack(
        [sample_on_half_grid(grid_function(row, grid), grid) for row in nodes]
    )
    singles = []
    for column in f.T:
        rows = column.tolist()
        got = rk4_or_message(
            integrate_backward, dyn.coeff_rhs, [rows], dyn.coeff_terminal(), grid
        )
        with np.errstate(all="ignore"):
            want = rk4_or_message(
                reference_rk4,
                lambda j, s: dyn.coeff_rhs(*s, rows[j]),
                dyn.coeff_terminal(),
                grid,
                -1,
            )
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        singles.append(got)
    start = np.multiply.outer(dyn.coeff_terminal(), np.ones(size))
    got = rk4_or_message(integrate_backward, dyn.coeff_rhs, [list(f)], start, grid)
    failed = [single for single in singles if isinstance(single, str)]
    if failed:
        times = [float(single.split("t=")[1].split(":")[0]) for single in failed]
        assert got == failed[times.index(max(times))]
    else:
        assert got.tobytes() == np.stack(singles, -1).tobytes()
