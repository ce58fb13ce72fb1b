"""Euler-Maruyama path simulation, pathwise statistics, and Monte Carlo.

An ensemble is simulated in fixed blocks of 1024 paths (``_BLOCK_PATHS``).
Block b draws all of its noise with one call on a generator seeded by
``mix_seed(master_seed, b)``, in path-major order, so ensemble member i
depends only on (master_seed, i): not on the ensemble size, the thread
count, or which function asked for it.  The sample trajectories of a run
are therefore the first members of its ensemble, a larger ensemble extends
a smaller one, and ``simulate_path(policy, grid, seed)`` is member 0 of the
ensemble keyed by ``seed``.

A block is stepped in time windows of ``_WINDOW_STEPS`` steps, time-major:
each window scales its slice of the block's noise, steps (V, Y) and the
realized controls into window-sized buffers, and adds the window's
per-path statistic terms to running sums in time order.  That is the
order of numpy's axis-0 sum over a whole path, so no statistic depends on
the window length, the block width or the ensemble size.  Each worker
thread reuses one set of buffers from block to block: a block's noise,
(paths, n_steps, 2) doubles, and 12 * _WINDOW_STEPS + 8 rows of one double
per path (3.2 MB for 1024 paths) whatever n_steps is.  A block's full
paths are never held; only the columns of kept trajectories are copied
out.  Blocks write into disjoint slices of preallocated arrays and
reductions run in index order, so results are bit-identical for any
thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .controls import FeedbackPolicy
from .errors import NonFiniteStateError
from .model import GridConfig, ModelParams, Pattern, check_same_grid, sample_on_grid

# Paths per simulation block, and per noise stream.  Fixed so that results
# never depend on the parallelism degree.
_BLOCK_PATHS = 1024
# Time steps per window: a window's buffers for one block stay in cache.
_WINDOW_STEPS = 32


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


def _step_paths(policy: FeedbackPolicy, grid: GridConfig, k0: int, window, dw):
    """Vectorized Euler-Maruyama over one time window of a block, in place.

    window = (v, y, alpha, beta), time-major: v and y of shape (K + 1, paths)
    hold node k0 in row 0 and get nodes k0+1..k0+K; alpha and beta of shape
    (K, paths) get the realized controls at nodes k0..k0+K-1.  dw holds the
    scaled noise increments sigma sqrt(h) Z of those steps, shape
    (2, K, paths) (V channel first).  Raises NonFiniteStateError if a new
    node is not finite.
    """
    v, y, alpha, beta = window
    h = grid.h
    r = alpha.shape[0]
    # the window's rows of the gains table as Python floats, which make
    # cheaper ufunc operands than numpy scalars and the same products
    gains = policy.gains[k0 : k0 + r].tolist()
    dwb, dww = dw
    tmp = np.empty(v.shape[1])
    for j, (av, ay, bv, by, a0, b0) in enumerate(gains):
        vk = v[j]
        yk = y[j]
        # alpha_k = av vk + ay yk + a0 and v_{k+1} = vk + alpha_k h + dW_B,
        # evaluated in place with the additions in that order
        ak = np.multiply(vk, av, out=alpha[j])
        ak += np.multiply(yk, ay, out=tmp)
        ak += a0
        bk = np.multiply(vk, bv, out=beta[j])
        bk += np.multiply(yk, by, out=tmp)
        bk += b0
        vn = np.multiply(ak, h, out=v[j + 1])
        vn += vk
        vn += dwb[j]
        yn = np.add(vk, bk, out=y[j + 1])
        yn *= h
        yn += yk
        yn += dww[j]
    if not (np.isfinite(v[1:]).all() and np.isfinite(y[1:]).all()):
        raise NonFiniteStateError("path simulation overflowed")


def _sums(paths: int) -> np.ndarray:
    """Zeroed running sums and window terms of three per-path statistics.

    Shape (3, _WINDOW_STEPS + 1, max(paths, 2)): [i, 0] is statistic i's
    running sum and [i, 1:] takes its terms for one window.  Columns past a
    block's paths stay zero; for a one-path block the second one keeps the
    sums in time order (see ``_fold``).
    """
    return np.zeros((3, _WINDOW_STEPS + 1, max(paths, 2)))


def _fold(acc: np.ndarray, r: int, paths: int) -> np.ndarray:
    """Add each statistic's window terms acc[:, 1..r] to its running sum
    acc[:, 0]; returns the running sums of the ``paths`` real columns.

    Bit for bit this continues numpy's axis-0 sum of the terms over the
    whole path, which adds row by row in time order starting from +0.0.
    The reduction runs along time with an inner loop across at least two
    paths (numpy sums a single contiguous column pairwise), and a sum that
    starts at +0.0 is never -0.0, so adding the running sum to the +0.0
    start changes no bit.
    """
    cols = max(paths, 2)
    acc[:, 0, :cols] = np.add.reduce(acc[:, : r + 1, :cols], axis=1)
    return acc[:, 0, :paths]


def _primary_costs(
    acc: np.ndarray,
    k0: int,
    window,
    vbar: np.ndarray,
    params: ModelParams,
    grid: GridConfig,
):
    """Fold one window's running-cost terms; the per-path cost on the last.

    acc comes from ``_sums`` and collects alpha^2, beta^2 and (V - vbar)^2
    per path; vbar is sampled at nodes 0..n-1.  When the window ends at
    node n, returns the left-Riemann running cost plus the terminal term;
    otherwise None.

    An overflow gives inf or nan, with no numpy warning under the block's
    error state; monte_carlo raises on it.
    """
    v, _, alpha, beta = window
    r, m = alpha.shape
    t_alpha, t_beta, t_v = acc[:, 1 : r + 1, :m]
    np.multiply(alpha, alpha, out=t_alpha)
    np.multiply(beta, beta, out=t_beta)
    np.subtract(v[:r], vbar[k0 : k0 + r, None], out=t_v)
    np.square(t_v, out=t_v)
    s_alpha, s_beta, s_v = _fold(acc, r, m)
    if k0 + r < grid.n_steps:
        return None
    h = grid.h
    run = (0.5 * h) * (
        params.r_alpha * s_alpha + params.r_beta * s_beta + params.r_v * s_v
    )
    term = 0.5 * params.t_v * (v[r] - params.vbar_final) ** 2
    return run + term


def _log_lrs(
    acc: np.ndarray,
    k0: int,
    window,
    fc_nodes: np.ndarray,
    fd_nodes: np.ndarray,
    params: ModelParams,
    grid: GridConfig,
):
    """Fold one window's log likelihood ratio terms; the per-path value on
    the last window.

    Left-endpoint discretization, with g_k = f_c(t_k) Y_k + f_d(t_k):
        (1/sigma_w^2) [ sum g_k (Y_{k+1}-Y_k) - sum V_k g_k h - 1/2 sum g_k^2 h ]
    acc comes from ``_sums`` and collects g dY, V g and g^2 per path.  When
    the window ends at node n, returns the log likelihood ratios; otherwise
    None.

    An overflow gives inf or nan, with no numpy warning under the block's
    error state; monte_carlo and log_lr_samples raise on it.
    """
    v, y, _, _ = window
    r = v.shape[0] - 1
    t_gdy, t_vg, g = acc[:, 1 : r + 1, : v.shape[1]]
    np.multiply(fc_nodes[k0 : k0 + r, None], y[:r], out=g)
    g += fd_nodes[k0 : k0 + r, None]
    np.subtract(y[1:], y[:r], out=t_gdy)
    t_gdy *= g
    np.multiply(v[:r], g, out=t_vg)
    np.multiply(g, g, out=g)
    stoch, s_vg, s_gg = _fold(acc, r, v.shape[1])
    if k0 + r < grid.n_steps:
        return None
    h = grid.h
    drift = s_vg * h
    quad = 0.5 * h * s_gg
    return (stoch - drift - quad) / params.sigma_w**2


@dataclass(frozen=True, eq=False)
class _Outputs:
    """What an ensemble run computes, written in place; row i is member i.

    ``keep`` holds path-major arrays for (v, y, alpha, beta), as many of the
    four as given, with one row per kept member.  ``primary`` needs ``vbar``
    at the nodes, ``loglr`` needs ``fc`` and ``fd``.
    """

    keep: tuple[np.ndarray, ...] = ()
    primary: np.ndarray | None = None
    vbar: np.ndarray | None = None
    loglr: np.ndarray | None = None
    fc: np.ndarray | None = None
    fd: np.ndarray | None = None


class _BlockSimulator:
    """One worker's buffers for blocks of up to ``width`` paths.

    The noise array and window buffers are allocated once and reused block
    after block: fresh multi-megabyte buffers per block would be returned to
    the operating system and faulted in again each time.
    """

    def __init__(
        self, policy: FeedbackPolicy, grid: GridConfig, width: int, out: _Outputs
    ):
        self.policy = policy
        self.grid = grid
        self.out = out
        w = _WINDOW_STEPS
        self.z = np.empty((width, grid.n_steps, 2))
        self.dw = np.empty((2, w, width))
        self.paths = tuple(np.empty((w + e, width)) for e in (1, 1, 0, 0))
        self.cost_acc = None if out.primary is None else _sums(width)
        self.lr_acc = None if out.loglr is None else _sums(width)

    def run(self, block: int, master_seed: int, n_paths: int) -> None:
        """Draw block ``block`` of the ensemble's noise and simulate it."""
        start = block * _BLOCK_PATHS
        z = self.z[: min(_BLOCK_PATHS, n_paths - start)]
        np.random.default_rng(mix_seed(master_seed, block)).standard_normal(out=z)
        # numpy warns on overflow per operation; a blow-up is raised once, as
        # NonFiniteStateError or as a non-finite statistic.  The error state
        # is per thread, so each worker sets it for its own blocks.
        with np.errstate(over="ignore", invalid="ignore"):
            self.simulate(z, start)

    def simulate(self, z: np.ndarray, start: int) -> None:
        """Simulate one block window by window and write its slice of out.

        z is the block's standard normal noise, shape (paths, n_steps, 2) (V
        channel first); column j of the block is ensemble member start + j.
        """
        policy, grid, out = self.policy, self.grid, self.out
        p = policy.params
        n = grid.n_steps
        m = z.shape[0]
        sq = math.sqrt(grid.h)
        scale = np.array([p.sigma_b * sq, p.sigma_w * sq])[:, None, None]
        v, y, alpha, beta = (a[:, :m] for a in self.paths)
        v[0] = p.v0
        y[0] = p.y0
        for acc in (self.cost_acc, self.lr_acc):
            if acc is not None:
                acc[:, 0] = 0.0
                acc[:, :, m:] = 0.0
        n_keep = len(out.keep[0]) if out.keep else 0
        kept = min(m, max(0, n_keep - start))
        for k0 in range(0, n, _WINDOW_STEPS):
            r = min(_WINDOW_STEPS, n - k0)
            dw = self.dw[:, :r, :m]
            np.multiply(z[:, k0 : k0 + r].transpose(2, 1, 0), scale, out=dw)
            window = (v[: r + 1], y[: r + 1], alpha[:r], beta[:r])
            _step_paths(policy, grid, k0, window, dw)
            for dst, src in zip(out.keep, window):
                dst[start : start + kept, k0 : k0 + len(src)] = src[:, :kept].T
            if self.cost_acc is not None:
                costs = _primary_costs(self.cost_acc, k0, window, out.vbar, p, grid)
            if self.lr_acc is not None:
                lrs = _log_lrs(self.lr_acc, k0, window, out.fc, out.fd, p, grid)
            v[0] = v[r]
            y[0] = y[r]
        if self.cost_acc is not None:
            out.primary[start : start + m] = costs
        if self.lr_acc is not None:
            out.loglr[start : start + m] = lrs


def _run_blocks(
    policy: FeedbackPolicy,
    grid: GridConfig,
    n_paths: int,
    master_seed: int,
    out: _Outputs,
    threads: int = 1,
) -> None:
    """Simulate ensemble members 0..n_paths-1 into ``out``, block by block.

    With threads > 1, worker w runs blocks w, w + workers, ...; each block
    writes only its own rows, so the assignment changes no result.
    """
    n_blocks = -(-n_paths // _BLOCK_PATHS)
    workers = max(1, min(threads, n_blocks))
    width = min(_BLOCK_PATHS, n_paths)

    def work(first):
        sim = _BlockSimulator(policy, grid, width, out)
        for block in range(first, n_blocks, workers):
            sim.run(block, master_seed, n_paths)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    else:
        work(0)


def _kept_paths(n_keep: int, grid: GridConfig) -> tuple[np.ndarray, ...]:
    """Empty path-major (v, y, alpha, beta) arrays for n_keep members."""
    n = grid.n_steps
    return tuple(np.empty((n_keep, n + e)) for e in (1, 1, 0, 0))


def _trajectories(grid: GridConfig, keep) -> tuple[Trajectory, ...]:
    times = grid.times()
    return tuple(Trajectory(times, *rows) for rows in zip(*keep))


def simulate_path(policy: FeedbackPolicy, grid: GridConfig, seed: int) -> Trajectory:
    """Member 0 of the ensemble keyed by ``seed``."""
    check_same_grid(policy.grid, grid)
    keep = _kept_paths(1, grid)
    _run_blocks(policy, grid, 1, seed, _Outputs(keep=keep))
    (traj,) = _trajectories(grid, keep)
    return traj


def sample_paths(
    policy: FeedbackPolicy, grid: GridConfig, n_paths: int, master_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """V and Y node values for a whole ensemble, shape (n_paths, n_steps+1).

    Row i is ensemble member i of monte_carlo with the same master seed.
    """
    check_same_grid(policy.grid, grid)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    v_all, y_all, _, _ = _kept_paths(n_paths, grid)
    _run_blocks(policy, grid, n_paths, master_seed, _Outputs(keep=(v_all, y_all)))
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
    check_same_grid(policy.grid, grid)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    out = _Outputs(
        loglr=np.empty(n_paths),
        fc=sample_on_grid(pattern.f_c, grid),
        fd=sample_on_grid(pattern.f_d, grid),
    )
    _run_blocks(policy, grid, n_paths, master_seed, out)
    bad = int(np.count_nonzero(~np.isfinite(out.loglr)))
    if bad:
        raise NonFiniteStateError(
            f"log likelihood ratio samples are not finite on {bad} of {n_paths} paths"
        )
    return out.loglr


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
    check_same_grid(policy.grid, grid)
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_sample < 0:
        raise ValueError("n_sample must be >= 0")
    params = policy.params
    total = max(n_paths, n_sample)
    out = _Outputs(
        keep=_kept_paths(n_sample, grid),
        primary=np.empty(total),
        vbar=np.asarray(params.vbar(grid.times()), dtype=float),
        loglr=np.empty(total),
        fc=sample_on_grid(pattern.f_c, grid),
        fd=sample_on_grid(pattern.f_d, grid),
    )
    _run_blocks(policy, grid, total, master_seed, out, threads)
    primary = out.primary[:n_paths]
    loglr = out.loglr[:n_paths]
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
        sample_trajectories=_trajectories(grid, out.keep),
        **stats,
    )
