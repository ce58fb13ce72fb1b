"""Euler-Maruyama path simulation, pathwise statistics, and Monte Carlo.

An ensemble is simulated in fixed blocks of 1024 paths (``_BLOCK_PATHS``).
Block b draws all of its noise with one call on a generator seeded by
``mix_seed(master_seed, b)``, in path-major order, so ensemble member i
depends only on (master_seed, i): not on the ensemble size, the thread
count, or which function asked for it.  The sample trajectories of a run
are therefore the first members of its ensemble, a larger ensemble extends
a smaller one, and ``simulate_path(policy, grid, seed)`` is member 0 of the
ensemble keyed by ``seed``.

Within a block the paths are stored time-major, shape (n_steps + 1, paths),
so each Euler step reads and writes contiguous rows.  Blocks write into
disjoint slices of preallocated arrays and reductions run in index order,
so results are bit-identical for any thread count.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controls import FeedbackPolicy
from .errors import NonFiniteStateError
from .model import GridConfig, ModelParams, Pattern, sample_on_grid

# Paths per simulation block, and per noise stream.  Fixed so that results
# never depend on the parallelism degree.
_BLOCK_PATHS = 1024


def mix_seed(*parts: int) -> int:
    """Deterministic 64-bit child seed from non-negative integer components."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One realized path: states at nodes, controls at nodes 0..n-1."""

    times: np.ndarray
    v_path: np.ndarray
    y_path: np.ndarray
    alpha_path: np.ndarray
    beta_path: np.ndarray


@dataclass(frozen=True)
class McSummary:
    """Ensemble statistics; ``sample_trajectories`` holds the first
    ensemble members when they were asked for, and is not part of
    ``as_dict``."""

    n_paths: int
    mean_primary_cost: float
    mean_log_lr: float
    mean_blue_cost: float
    se_primary_cost: float
    se_log_lr: float
    master_seed: int
    sample_trajectories: tuple[Trajectory, ...] = field(
        default=(), compare=False, repr=False
    )

    def as_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "mean_primary_cost": self.mean_primary_cost,
            "mean_log_lr": self.mean_log_lr,
            "mean_blue_cost": self.mean_blue_cost,
            "se_primary_cost": self.se_primary_cost,
            "se_log_lr": self.se_log_lr,
            "master_seed": self.master_seed,
        }


def _step_paths(policy: FeedbackPolicy, grid: GridConfig, dw: np.ndarray):
    """Vectorized Euler-Maruyama over a block of paths, time-major.

    dw holds the scaled noise increments sigma sqrt(h) Z, shape
    (2, n_steps, paths) (V channel first); returns v, y of shape
    (n_steps + 1, paths) and realized controls of shape (n_steps, paths).
    """
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
    av, ay, a0 = policy.alpha_v, policy.alpha_y, policy.alpha_0
    bv, by, b0 = policy.beta_v, policy.beta_y, policy.beta_0
    dwb, dww = dw
    tmp = np.empty(m)
    for k in range(n):
        vk = v[k]
        yk = y[k]
        # alpha_k = av vk + ay yk + a0 and v_{k+1} = vk + alpha_k h + dW_B,
        # evaluated in place with the additions in that order
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


def _run_blocks(
    policy: FeedbackPolicy,
    grid: GridConfig,
    n_paths: int,
    master_seed: int,
    consume: Callable,
    threads: int = 1,
) -> list:
    """Simulate ensemble members 0..n_paths-1 and hand each block to consume.

    ``consume(start, paths)`` gets the block's time-major (v, y, alpha, beta),
    whose column j is member start + j; its results come back in block
    order.  With threads > 1 blocks run on a pool, so consume may write only
    to its own slice of shared output.
    """
    p = policy.params
    n = grid.n_steps
    sq = math.sqrt(grid.h)

    def run(block):
        start = block * _BLOCK_PATHS
        m = min(_BLOCK_PATHS, n_paths - start)
        rng = np.random.default_rng(mix_seed(master_seed, block))
        z = rng.standard_normal((m, n, 2))
        dw = np.empty((2, n, m))
        np.multiply(z[:, :, 0].T, p.sigma_b * sq, out=dw[0])
        np.multiply(z[:, :, 1].T, p.sigma_w * sq, out=dw[1])
        del z
        paths = _step_paths(policy, grid, dw)
        del dw  # free the noise before consume allocates its temporaries
        return consume(start, paths)

    blocks = range(-(-n_paths // _BLOCK_PATHS))
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, blocks))
    return [run(block) for block in blocks]


def _trajectory(times: np.ndarray, paths, j: int) -> Trajectory:
    v, y, alpha, beta = paths
    return Trajectory(
        times=times,
        v_path=v[:, j].copy(),
        y_path=y[:, j].copy(),
        alpha_path=alpha[:, j].copy(),
        beta_path=beta[:, j].copy(),
    )


def simulate_path(policy: FeedbackPolicy, grid: GridConfig, seed: int) -> Trajectory:
    """Member 0 of the ensemble keyed by ``seed``."""
    times = grid.times()
    (traj,) = _run_blocks(
        policy, grid, 1, seed, lambda start, paths: _trajectory(times, paths, 0)
    )
    return traj


def _primary_costs(
    v: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    params: ModelParams,
    grid: GridConfig,
) -> np.ndarray:
    """Left-Riemann running cost plus terminal term, per path (time-major).

    An overflow gives inf or nan with no numpy warning; monte_carlo raises
    on it.
    """
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


def _log_lrs(
    v: np.ndarray,
    y: np.ndarray,
    fc_nodes: np.ndarray,
    fd_nodes: np.ndarray,
    params: ModelParams,
    grid: GridConfig,
) -> np.ndarray:
    """Left-endpoint discretization of the log likelihood ratio, per path
    (time-major).

    With g_k = f_c(t_k) Y_k + f_d(t_k):
        (1/sigma_w^2) [ sum g_k (Y_{k+1}-Y_k) - sum V_k g_k h - 1/2 sum g_k^2 h ]

    An overflow gives inf or nan with no numpy warning; monte_carlo and
    log_lr_samples raise on it.
    """
    n = grid.n_steps
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        g = fc_nodes[:n, None] * y[:n] + fd_nodes[:n, None]
        dy = y[1:] - y[:n]
        stoch = np.sum(g * dy, axis=0)
        drift = np.sum(v[:n] * g, axis=0) * h
        quad = 0.5 * h * np.sum(g * g, axis=0)
        return (stoch - drift - quad) / params.sigma_w**2


def sample_paths(
    policy: FeedbackPolicy, grid: GridConfig, n_paths: int, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """V and Y node values for a whole ensemble, shape (n_paths, n_steps+1).

    Row i is ensemble member i of monte_carlo with the same master seed.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n = grid.n_steps
    v_all = np.empty((n_paths, n + 1))
    y_all = np.empty((n_paths, n + 1))

    def consume(start, paths):
        v, y, _, _ = paths
        stop = start + v.shape[1]
        v_all[start:stop] = v.T
        y_all[start:stop] = y.T

    _run_blocks(policy, grid, n_paths, master_seed, consume)
    return v_all, y_all


def log_lr_samples(
    policy: FeedbackPolicy,
    pattern: Pattern,
    grid: GridConfig,
    n_paths: int,
    master_seed: int,
) -> np.ndarray:
    """Per-path log likelihood ratios of the monte_carlo ensemble.

    Raises NonFiniteStateError if a sample is not finite.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    fc = sample_on_grid(pattern.f_c, grid)
    fd = sample_on_grid(pattern.f_d, grid)
    out = np.empty(n_paths)

    def consume(start, paths):
        v, y, _, _ = paths
        out[start : start + v.shape[1]] = _log_lrs(v, y, fc, fd, policy.params, grid)

    _run_blocks(policy, grid, n_paths, master_seed, consume)
    bad = int(np.count_nonzero(~np.isfinite(out)))
    if bad:
        raise NonFiniteStateError(
            f"log likelihood ratio samples are not finite on {bad} of {n_paths} paths"
        )
    return out


def monte_carlo(
    policy: FeedbackPolicy,
    pattern: Pattern,
    grid: GridConfig,
    n_paths: int,
    master_seed: int,
    threads: int = 1,
    n_sample: int = 0,
) -> McSummary:
    """Seeded Monte Carlo estimate of the primary cost and log-LR means.

    The `pattern` argument is the one the likelihood statistic tests for;
    it may differ from the pattern the policy was solved with (used to
    evaluate statistics on null-hypothesis paths).  The first `n_sample`
    ensemble members are returned as ``sample_trajectories``; members past
    n_paths are simulated for that purpose only and left out of the
    statistics.  Raises NonFiniteStateError if a statistic is not finite.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_sample < 0:
        raise ValueError("n_sample must be >= 0")
    params = policy.params
    fc = sample_on_grid(pattern.f_c, grid)
    fd = sample_on_grid(pattern.f_d, grid)
    times = grid.times()
    total = max(n_paths, n_sample)
    primary = np.empty(total)
    loglr = np.empty(total)

    def consume(start, paths):
        v, y, alpha, beta = paths
        stop = start + v.shape[1]
        primary[start:stop] = _primary_costs(v, alpha, beta, params, grid)
        loglr[start:stop] = _log_lrs(v, y, fc, fd, params, grid)
        return [
            _trajectory(times, paths, i - start)
            for i in range(start, min(stop, n_sample))
        ]

    sampled = _run_blocks(policy, grid, total, master_seed, consume, threads)
    primary = primary[:n_paths]
    loglr = loglr[:n_paths]
    with np.errstate(over="ignore", invalid="ignore"):
        stats = {
            "mean_primary_cost": float(np.mean(primary)),
            "mean_log_lr": float(np.mean(loglr)),
            "se_primary_cost": float(np.std(primary, ddof=1) / math.sqrt(n_paths)),
            "se_log_lr": float(np.std(loglr, ddof=1) / math.sqrt(n_paths)),
        }
        stats["mean_blue_cost"] = (
            stats["mean_primary_cost"] - params.lam * stats["mean_log_lr"]
        )
    bad = sorted(k for k, x in stats.items() if not math.isfinite(x))
    if bad:
        raise NonFiniteStateError(
            "Monte Carlo statistics are not finite: " + ", ".join(bad)
        )
    return McSummary(
        n_paths=n_paths,
        master_seed=master_seed,
        sample_trajectories=tuple(t for block in sampled for t in block),
        **stats,
    )
