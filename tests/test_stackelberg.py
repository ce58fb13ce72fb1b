from dataclasses import replace

import numpy as np
import pytest

from redblue import (
    Affine,
    Constant,
    GridConfig,
    InputError,
    Pattern,
    RedConfig,
    baseline_summary,
    expected_log_lr,
    play_rounds,
    solve_moments,
    solve_red,
    solve_value_coeffs,
)
from redblue import stackelberg
from redblue.odeint import integrate_backward
from redblue.stackelberg import red_seed
from conftest import make_params


def quick_config(**overrides):
    base = dict(lambda_reg=1.0, penalty_kind="quadratic", solver="fpi")
    base.update(overrides)
    return RedConfig(**base)


def test_round_chain_matches_manual_optimizer_run():
    params = make_params(lam=0.08)
    grid = GridConfig(100, 0.1)
    config = quick_config()
    seed = 5150
    records = play_rounds(
        params, Constant(1.0), config, 2, mc_paths=200, seed=seed, grid=grid
    )
    assert [r.round_index for r in records] == [1, 2]
    manual = solve_red(
        params,
        replace(config, f_c_initial=records[0].f_c_used),
        grid,
        red_seed(seed, 1),
    )
    np.testing.assert_array_equal(records[1].f_c_used.values, manual.f_c.values)


def test_rounds_are_deterministic():
    params = make_params(lam=0.08)
    grid = GridConfig(100, 0.1)
    config = quick_config()
    a = play_rounds(params, Constant(1.0), config, 2, 300, 77, grid)
    b = play_rounds(params, Constant(1.0), config, 2, 300, 77, grid)
    for ra, rb in zip(a, b):
        assert ra.mc.as_dict() == rb.mc.as_dict()
        np.testing.assert_array_equal(ra.f_c_used.values, rb.f_c_used.values)
        assert ra.expected_log_lr_moment == rb.expected_log_lr_moment


def test_one_round_steps_f_once(monkeypatch):
    # round 1's moment E[log LR] reads the curves of its own blue solve
    from redblue import moments, riccati

    calls = []

    def counting(*args):
        calls.append(args)
        return integrate_backward(*args)

    for module in (moments, riccati):
        monkeypatch.setattr(module, "integrate_backward", counting)
    grid = GridConfig(60, 0.1)
    play_rounds(make_params(lam=0.08), Constant(1.0), quick_config(), 1, 100, 9, grid)
    assert len(calls) == 1


def test_rounds_carry_coeffs_and_skip_the_unplayed_solve(monkeypatch):
    params = make_params(lam=0.08)
    grid = GridConfig(60, 0.1)
    calls = []

    def counting_solve_red(*args):
        calls.append(args)
        return solve_red(*args)

    monkeypatch.setattr(stackelberg, "solve_red", counting_solve_red)
    records = play_rounds(params, Constant(1.0), quick_config(), 3, 100, 9, grid)
    assert len(records) == 3
    assert len(calls) == 2
    for record in records:
        fresh = solve_value_coeffs(
            params, Pattern(record.f_c_used, Constant(0.0)), grid
        )
        for name in ("mu", "eta", "rho", "gamma", "theta", "xi"):
            np.testing.assert_array_equal(
                getattr(record.coeffs, name), getattr(fresh, name)
            )


@pytest.mark.parametrize("solver", ["fpi", "nn"])
def test_round_log_lr_is_the_public_moment_solve(solver):
    # round 1 solves the closure itself, later rounds take the value of the
    # optimizer solve that produced their pattern: both equal the public
    # solves on the pattern played, bit for bit
    params = make_params(lam=0.08)
    grid = GridConfig(40, 0.1)
    config = quick_config(solver=solver)
    records = play_rounds(params, Constant(1.0), config, 3, 50, 11, grid)
    for record in records:
        f_c = record.f_c_used
        moments = solve_moments(params, record.coeffs, f_c, grid)
        elr = expected_log_lr(params, record.coeffs, f_c, moments, grid)
        assert record.expected_log_lr_moment == elr


def test_huge_penalty_freezes_pattern_between_rounds():
    params = make_params(lam=0.08)
    grid = GridConfig(100, 0.1)
    config = quick_config(lambda_reg=1e8)
    records = play_rounds(params, Affine(0.5, 2.0), config, 2, 200, 3, grid)
    np.testing.assert_allclose(
        records[1].f_c_used.values, records[0].f_c_used.values, atol=1e-6
    )


def test_zero_pattern_is_a_fixed_point():
    # with a zero pattern the cross coefficients vanish, so the nodewise
    # minimizer anchored at zero stays at zero in every round
    params = make_params(lam=0.09)
    grid = GridConfig(100, 0.1)
    config = quick_config(lambda_reg=1.5)
    records = play_rounds(params, Constant(0.0), config, 3, 200, 8, grid)
    for record in records:
        assert np.all(record.f_c_used.values == 0.0)
        assert record.expected_log_lr_moment == 0.0


def test_sample_trajectory_counts_and_grids():
    params = make_params(lam=0.05)
    grid = GridConfig(60, 0.1)
    records = play_rounds(
        params,
        Constant(1.0),
        quick_config(),
        1,
        mc_paths=150,
        seed=2,
        grid=grid,
        n_sample_trajectories=4,
    )
    assert len(records) == 1
    trajectories = records[0].mc.sample_trajectories
    assert len(trajectories) == 4
    for traj in trajectories:
        assert traj.times.size == 61
        assert traj.v_path[0] == params.v0
        assert traj.y_path[0] == params.y0


def test_baseline_has_zero_payoff():
    params = make_params(lam=0.05)
    grid = GridConfig(60, 0.1)
    summary = baseline_summary(params, grid, 300, seed=4)
    assert summary.mean_log_lr == 0.0
    assert summary.mean_blue_cost == summary.mean_primary_cost
    assert summary.se_log_lr == 0.0


def test_rejects_zero_rounds():
    with pytest.raises(ValueError):
        play_rounds(
            make_params(),
            Constant(1.0),
            quick_config(),
            0,
            100,
            1,
            GridConfig(50, 0.1),
        )


@pytest.mark.parametrize("threads", [1.5, 0, -3])
def test_rounds_refuse_a_bad_thread_count_before_solving(threads, monkeypatch):
    def solve(*args):
        raise AssertionError("a round solved before the thread count was checked")

    monkeypatch.setattr(stackelberg.FeedbackPolicy, "solve", solve)
    with pytest.raises(InputError, match="^threads must be"):
        play_rounds(
            make_params(),
            Constant(1.0),
            quick_config(),
            2,
            100,
            1,
            GridConfig(50, 0.1),
            threads=threads,
        )
