import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redblue import (
    Affine,
    Constant,
    FeedbackPolicy,
    GridConfig,
    GridMismatchError,
    ModelParams,
    NonFiniteStateError,
    Pattern,
    Sinusoid,
    ZERO_PATTERN,
    monte_carlo,
)
from redblue import sde
from redblue.model import sample_on_grid
from redblue.sde import (
    Trajectory,
    _BlockSimulator,
    _kept_paths,
    _log_lrs,
    _Outputs,
    _primary_costs,
    _sums,
    log_lr_samples,
    mix_seed,
    sample_paths,
    simulate_path,
)
from conftest import make_params


def test_mix_seed_deterministic_and_distinct():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    assert mix_seed(1, 2, 3) != mix_seed(1, 2, 4)
    assert mix_seed(0) != mix_seed(1)
    assert 0 <= mix_seed(7) < 2**64


def test_degenerate_noise_paths_are_deterministic():
    # with both noise intensities zero and no control pressure the state is
    # a straight line; sigma=0 skips validation on purpose, so the params
    # are constructed directly
    params = ModelParams(
        sigma_b=0.0,
        sigma_w=0.0,
        r_alpha=1.0,
        r_beta=10.0,
        r_v=0.0,
        t_v=0.0,
        vbar=Constant(0.0),
        vbar_final=0.0,
        lam=0.0,
        v0=1.0,
        y0=0.0,
    )
    grid = GridConfig(16, 1.0)
    policy = FeedbackPolicy.solve(params, ZERO_PATTERN, grid)
    traj = simulate_path(policy, grid, seed=123)
    # V stays at v0, so Y advances by exactly h per step: Y_t = t at nodes
    np.testing.assert_array_equal(traj.v_path, np.ones(17))
    np.testing.assert_array_equal(traj.y_path, np.arange(17) / 16.0)
    np.testing.assert_array_equal(traj.alpha_path, np.zeros(16))
    np.testing.assert_array_equal(traj.beta_path, np.zeros(16))


SYNTHETIC_GRID = GridConfig(2, 1.0)


def synthetic_trajectory():
    times = np.array([0.0, 0.5, 1.0])
    return Trajectory(
        times=times,
        v_path=np.array([1.0, 2.0, 0.0]),
        y_path=np.array([0.0, 1.0, 3.0]),
        alpha_path=np.array([2.0, -1.0]),
        beta_path=np.array([0.5, 0.5]),
    )


def synthetic_window(traj):
    paths = (traj.v_path, traj.y_path, traj.alpha_path, traj.beta_path)
    return tuple(a[:, None] for a in paths)


def test_primary_cost_hand_computed():
    params = make_params(
        r_alpha=2.0,
        r_beta=4.0,
        r_v=1.0,
        t_v=3.0,
        vbar=Constant(1.0),
        vbar_final=1.0,
    )
    traj = synthetic_trajectory()
    # running: h/2 [r_a (4+1) + r_b (0.25+0.25) + r_v (0+1)] = 0.25 [10+2+1]
    # terminal: t_v/2 (0-1)^2 = 1.5
    # the whole path is one window: running sums plus the two steps' terms
    cost = _primary_costs(
        _sums(1),
        0,
        synthetic_window(traj),
        sample_on_grid(params.vbar, SYNTHETIC_GRID),
        params,
        SYNTHETIC_GRID,
    )
    assert cost.shape == (1,)
    assert cost[0] == pytest.approx(0.25 * 13.0 + 1.5)


def test_log_likelihood_ratio_hand_computed():
    params = make_params(sigma_w=0.5)
    traj = synthetic_trajectory()
    pattern = Pattern(Constant(1.0), Constant(0.25))
    # g = (y + 0.25) at nodes 0,1 -> (0.25, 1.25); dy = (1, 2)
    # stoch = 0.25 + 2.5 = 2.75; drift = h (1*0.25 + 2*1.25) = 1.375
    # quad = h/2 (0.0625 + 1.5625) = 0.40625
    expected = (2.75 - 1.375 - 0.40625) / 0.25
    log_lr = _log_lrs(
        _sums(1),
        0,
        synthetic_window(traj),
        sample_on_grid(pattern.f_c, SYNTHETIC_GRID),
        sample_on_grid(pattern.f_d, SYNTHETIC_GRID),
        params,
        SYNTHETIC_GRID,
    )
    assert log_lr.shape == (1,)
    assert log_lr[0] == pytest.approx(expected)


def test_log_likelihood_zero_for_zero_pattern():
    params = make_params()
    grid = GridConfig(50, 0.1)
    policy = FeedbackPolicy.solve(params, ZERO_PATTERN, grid)
    samples = log_lr_samples(policy, ZERO_PATTERN, grid, 100, master_seed=3)
    assert samples.shape == (100,)
    assert np.all(samples == 0.0)


def test_monte_carlo_deterministic():
    params = make_params()
    grid = GridConfig(100, 0.1)
    pattern = Pattern(Constant(1.0), Constant(0.0))
    policy = FeedbackPolicy.solve(params, pattern, grid)
    a = monte_carlo(policy, pattern, grid, 500, master_seed=11)
    b = monte_carlo(policy, pattern, grid, 500, master_seed=11)
    assert a.as_dict() == b.as_dict()
    c = monte_carlo(policy, pattern, grid, 500, master_seed=12)
    assert a.mean_primary_cost != c.mean_primary_cost


def _policy(n_steps: int) -> tuple[FeedbackPolicy, GridConfig, Pattern]:
    grid = GridConfig(n_steps, 0.1)
    pattern = Pattern(Constant(1.0), Constant(0.0))
    return FeedbackPolicy.solve(make_params(), pattern, grid), grid, pattern


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=25)
@given(
    n_steps=st.integers(2, 6),
    n_paths=st.integers(2, 3000),
    seed=seeds,
    threads=st.integers(2, 4),
)
@example(n_steps=4, n_paths=3000, seed=5, threads=4)
def test_thread_count_does_not_change_results(n_steps, n_paths, seed, threads):
    policy, grid, pattern = _policy(n_steps)
    single = monte_carlo(policy, pattern, grid, n_paths, seed, threads=1, n_sample=3)
    pooled = monte_carlo(
        policy, pattern, grid, n_paths, seed, threads=threads, n_sample=3
    )
    assert single.as_dict() == pooled.as_dict()
    for a, b in zip(single.sample_trajectories, pooled.sample_trajectories):
        np.testing.assert_array_equal(a.v_path, b.v_path)
        np.testing.assert_array_equal(a.beta_path, b.beta_path)


@settings(max_examples=25)
@given(
    n_steps=st.integers(2, 40),
    n_paths=st.integers(1, 2100),
    k=st.integers(1, 2100),
    seed=seeds,
)
@example(n_steps=3, n_paths=2100, k=1023, seed=11)
@example(n_steps=3, n_paths=2100, k=1024, seed=11)
@example(n_steps=3, n_paths=2100, k=1025, seed=11)
@example(n_steps=40, n_paths=2100, k=1025, seed=1)
def test_ensemble_prefix_is_a_smaller_ensemble(n_steps, n_paths, k, seed):
    # member i depends only on (seed, i): not on the size of the ensemble.
    # With k = 1025 member 1024 is a block of one path; its per-path
    # statistics are still summed in time order, not pairwise.
    k = min(k, n_paths)
    policy, grid, pattern = _policy(n_steps)
    v, y = sample_paths(policy, grid, n_paths, seed)
    vk, yk = sample_paths(policy, grid, k, seed)
    np.testing.assert_array_equal(v[:k], vk)
    np.testing.assert_array_equal(y[:k], yk)
    lr = log_lr_samples(policy, pattern, grid, n_paths, seed)
    lrk = log_lr_samples(policy, pattern, grid, k, seed)
    assert lr[:k].tobytes() == lrk.tobytes()


@pytest.mark.parametrize("n_paths, n_sample", [(40, 3), (2, 4), (1100, 1030)])
def test_sample_trajectories_are_ensemble_members(n_paths, n_sample):
    policy, grid, pattern = _policy(30)
    summary = monte_carlo(policy, pattern, grid, n_paths, 99, n_sample=n_sample)
    v, y = sample_paths(policy, grid, n_sample, 99)
    assert len(summary.sample_trajectories) == n_sample
    for i, traj in enumerate(summary.sample_trajectories):
        np.testing.assert_array_equal(traj.v_path, v[i])
        np.testing.assert_array_equal(traj.y_path, y[i])
    # members simulated only to be sampled stay out of the statistics
    plain = monte_carlo(policy, pattern, grid, n_paths, 99)
    assert summary.as_dict() == plain.as_dict()


def test_simulate_path_is_member_zero():
    policy, grid, _ = _policy(80)
    v, y = sample_paths(policy, grid, 5, master_seed=99)
    traj = simulate_path(policy, grid, 99)
    np.testing.assert_array_equal(traj.v_path, v[0])
    np.testing.assert_array_equal(traj.y_path, y[0])


def test_log_lr_samples_match_monte_carlo():
    policy, grid, pattern = _policy(40)
    samples = log_lr_samples(policy, pattern, grid, 1500, 8)
    summary = monte_carlo(policy, pattern, grid, 1500, 8)
    assert float(np.mean(samples)) == summary.mean_log_lr


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_statistics_raise():
    # the paths stay finite, but squaring them for the cost overflows
    params = make_params(v0=1e200)
    grid = GridConfig(10, 0.1)
    policy = FeedbackPolicy.solve(params, ZERO_PATTERN, grid)
    with pytest.raises(NonFiniteStateError, match="mean_primary_cost"):
        monte_carlo(policy, ZERO_PATTERN, grid, 10, 1)


@pytest.mark.parametrize("other", [GridConfig(100, 0.1), GridConfig(50, 0.2)])
def test_ensembles_run_only_on_the_policys_grid(other):
    # the policy's gains table fixes its grid: on another one its gains would
    # be read at the wrong times, with no error
    policy, grid, pattern = _policy(50)
    ensembles = [
        lambda g: monte_carlo(policy, pattern, g, 10, 1),
        lambda g: log_lr_samples(policy, pattern, g, 10, 1),
        lambda g: sample_paths(policy, g, 10, 1),
        lambda g: simulate_path(policy, g, 1),
    ]
    for ensemble in ensembles:
        ensemble(grid)
        with pytest.raises(GridMismatchError):
            ensemble(other)


def test_blue_cost_identity():
    params = make_params(lam=0.08)
    grid = GridConfig(100, 0.1)
    pattern = Pattern(Constant(0.5), Constant(0.0))
    policy = FeedbackPolicy.solve(params, pattern, grid)
    summary = monte_carlo(policy, pattern, grid, 400, 21)
    assert summary.mean_blue_cost == (
        summary.mean_primary_cost - params.lam * summary.mean_log_lr
    )


def test_likelihood_ratio_mean_is_one_under_null():
    # paths follow the no-misdirection law while the statistic tests for a
    # small pattern; the discrete likelihood ratio is an exact martingale
    params = make_params()
    grid = GridConfig(100, 0.1)
    policy = FeedbackPolicy.solve(params, ZERO_PATTERN, grid)
    pattern = Pattern(Constant(0.05), Constant(0.0))
    samples = np.exp(log_lr_samples(policy, pattern, grid, 4000, 17))
    se = np.std(samples, ddof=1) / np.sqrt(samples.size)
    assert abs(np.mean(samples) - 1.0) <= 3.0 * se


# The whole-path block code that the windowed runner replaced, kept as the
# reference the windows must reproduce bit for bit.


def _reference_step_paths(policy, grid, dw):
    p = policy.params
    n = grid.n_steps
    h = grid.h
    m = dw.shape[2]
    v = np.empty((n + 1, m))
    y = np.empty((n + 1, m))
    alpha = np.empty((n, m))
    beta = np.empty((n, m))
    v[0] = p.v0
    y[0] = p.y0
    av, ay, bv, by, a0, b0 = policy.gains.T
    dwb, dww = dw
    tmp = np.empty(m)
    for k in range(n):
        vk = v[k]
        yk = y[k]
        ak = np.multiply(vk, av[k], out=alpha[k])
        ak += np.multiply(yk, ay[k], out=tmp)
        ak += a0[k]
        bk = np.multiply(vk, bv[k], out=beta[k])
        bk += np.multiply(yk, by[k], out=tmp)
        bk += b0[k]
        vn = np.multiply(ak, h, out=v[k + 1])
        vn += vk
        vn += dwb[k]
        yn = np.add(vk, bk, out=y[k + 1])
        yn *= h
        yn += yk
        yn += dww[k]
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(y))):
        raise NonFiniteStateError("path simulation overflowed")
    return v, y, alpha, beta


def _reference_primary_costs(v, alpha, beta, params, grid):
    n = grid.n_steps
    h = grid.h
    vb = np.asarray(params.vbar(grid.times()), dtype=float)[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        run = (0.5 * h) * (
            params.r_alpha * np.sum(alpha * alpha, axis=0)
            + params.r_beta * np.sum(beta * beta, axis=0)
            + params.r_v * np.sum((v[:n] - vb[:, None]) ** 2, axis=0)
        )
        term = 0.5 * params.t_v * (v[n] - params.vbar_final) ** 2
        return run + term


def _reference_log_lrs(v, y, fc_nodes, fd_nodes, params, grid):
    n = grid.n_steps
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        g = fc_nodes[:n, None] * y[:n] + fd_nodes[:n, None]
        dy = y[1:] - y[:n]
        stoch = np.sum(g * dy, axis=0)
        drift = np.sum(v[:n] * g, axis=0) * h
        quad = 0.5 * h * np.sum(g * g, axis=0)
        return (stoch - drift - quad) / params.sigma_w**2


def _reference_block(policy, pattern, grid, z):
    p = policy.params
    sq = math.sqrt(grid.h)
    dw = np.empty((2, grid.n_steps, z.shape[0]))
    np.multiply(z[:, :, 0].T, p.sigma_b * sq, out=dw[0])
    np.multiply(z[:, :, 1].T, p.sigma_w * sq, out=dw[1])
    paths = _reference_step_paths(policy, grid, dw)
    v, y, alpha, beta = paths
    fc = sample_on_grid(pattern.f_c, grid)
    fd = sample_on_grid(pattern.f_d, grid)
    costs = _reference_primary_costs(v, alpha, beta, p, grid)
    return paths, costs, _reference_log_lrs(v, y, fc, fd, p, grid)


@settings(max_examples=30)
@given(
    n_steps=st.integers(2, 100),
    width=st.integers(2, 1100),
    n_keep=st.integers(0, 1100),
    seed=seeds,
    zero_pattern=st.booleans(),
)
@example(n_steps=31, width=1024, n_keep=3, seed=1, zero_pattern=False)
@example(n_steps=32, width=1024, n_keep=1024, seed=2, zero_pattern=False)
@example(n_steps=33, width=1100, n_keep=1100, seed=3, zero_pattern=False)
@example(n_steps=64, width=2, n_keep=1, seed=4, zero_pattern=False)
@example(n_steps=2, width=7, n_keep=7, seed=5, zero_pattern=True)
def test_windowed_block_matches_whole_path_reference(
    n_steps, width, n_keep, seed, zero_pattern
):
    # the window length moves no bit of any statistic or kept trajectory;
    # bytes are compared, so the signs of zero statistics count too
    n_keep = min(n_keep, width)
    params = make_params(vbar=Sinusoid(0.5, 40.0, 0.3), vbar_final=0.2)
    grid = GridConfig(n_steps, 0.1)
    pattern = ZERO_PATTERN if zero_pattern else Pattern(Affine(1.0, 2.0), Constant(0.3))
    policy = FeedbackPolicy.solve(params, pattern, grid)
    z = np.random.default_rng(seed).standard_normal((width, n_steps, 2))
    paths, costs, lrs = _reference_block(policy, pattern, grid, z)
    for window in (1, 3, n_steps, sde._WINDOW_STEPS):
        out = _Outputs(
            keep=_kept_paths(n_keep, grid),
            primary=np.empty(width),
            vbar=sample_on_grid(params.vbar, grid),
            loglr=np.empty(width),
            fc=sample_on_grid(pattern.f_c, grid),
            fd=sample_on_grid(pattern.f_d, grid),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sde, "_WINDOW_STEPS", window)
            sim = _BlockSimulator(policy, grid, width, out)
            # a block that ran before leaves nothing behind in the buffers
            sim.simulate(z[::-1].copy(), 0)
            sim.simulate(z, 0)
        assert out.primary.tobytes() == costs.tobytes()
        assert out.loglr.tobytes() == lrs.tobytes()
        for kept, path in zip(out.keep, paths):
            assert kept.tobytes() == path[:, :n_keep].T.tobytes()


def test_monte_carlo_never_holds_a_block_of_full_paths():
    # the per-block peak is the block's noise plus window buffers: the
    # paths, controls and statistic terms of a whole block never coexist
    policy, grid, pattern = _policy(400)
    noise_bytes = 1024 * grid.n_steps * 2 * 8
    tracemalloc.start()
    try:
        monte_carlo(policy, pattern, grid, 3000, 5, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * noise_bytes
