"""Multi-round interaction between the pattern optimizer and the controller.

Each round: the controller best-responds to the current pattern (coefficient
solve, Monte Carlo metrics, whose first ensemble members are the sample
paths), then the optimizer anchors its trust penalty at that pattern and
instills a new one, which the controller adopts next round.  A round's
expected log likelihood ratio comes from the moment closure once: round 1's
from the moments of its own blue solve, every later round's from the
optimizer solve that produced its pattern.  All randomness is derived from
one master seed so a run is reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .controls import FeedbackPolicy
from .model import (
    Constant,
    GridConfig,
    GridSampled,
    ModelParams,
    Pattern,
    TimeFunction,
    grid_function,
    sample_on_grid,
)
from .moments import expected_log_lr, solve_moments
from .red import RedConfig, solve_red
from .riccati import ValueCoeffs
from .sde import McSummary, Trajectory, mix_seed, monte_carlo

# Stream tags for per-round seed derivation.  Tag 1 is retired; the others
# keep their values so the optimizer and baseline streams do not move.
_STREAM_MC = 0
_STREAM_RED = 2
_STREAM_BASELINE = 3


@dataclass(frozen=True, eq=False)
class RoundRecord:
    round_index: int
    f_c_used: GridSampled
    coeffs: ValueCoeffs
    mc: McSummary
    expected_log_lr_moment: float

    @property
    def sample_trajectories(self) -> list[Trajectory]:
        return list(self.mc.sample_trajectories)


def red_seed(master_seed: int, round_index: int) -> int:
    return mix_seed(master_seed, round_index, _STREAM_RED)


def play_rounds(
    params: ModelParams,
    initial_f_c: TimeFunction,
    red_config: RedConfig,
    n_rounds: int,
    mc_paths: int,
    seed: int,
    grid: GridConfig,
    n_sample_trajectories: int = 3,
    threads: int = 1,
) -> list[RoundRecord]:
    """Run the loop and return one record per round, in order.

    The pattern of round k+1 is bit-identical to the optimizer output of
    round k (anchored at round k's pattern and seeded by red_seed), and
    its ``expected_log_lr_moment`` is that output's
    ``final_expected_log_lr``.  The last round runs no optimizer, since its
    output would never be played.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    f_nodes = sample_on_grid(initial_f_c, grid)
    records: list[RoundRecord] = []
    for rnd in range(1, n_rounds + 1):
        f_c = grid_function(f_nodes, grid)
        pattern = Pattern(f_c, Constant(0.0))
        policy = FeedbackPolicy.solve(params, pattern, grid)
        mc = monte_carlo(
            policy,
            pattern,
            grid,
            mc_paths,
            mix_seed(seed, rnd, _STREAM_MC),
            threads=threads,
            n_sample=n_sample_trajectories,
        )
        if rnd == 1:
            moments = solve_moments(params, policy.coeffs, f_c, grid)
            elr = expected_log_lr(params, policy.coeffs, f_c, moments, grid)
        records.append(RoundRecord(rnd, f_c, policy.coeffs, mc, elr))
        if rnd == n_rounds:
            break
        config = replace(red_config, f_c_initial=f_c)
        report = solve_red(params, config, grid, red_seed(seed, rnd))
        # the solve that produced the next pattern has already evaluated it
        f_nodes, elr = report.f_c.values, report.final_expected_log_lr
    return records


def baseline_summary(
    params: ModelParams,
    grid: GridConfig,
    mc_paths: int,
    seed: int,
    threads: int = 1,
) -> McSummary:
    """Metrics under a zero pattern (the payoff is exactly zero there)."""
    pattern = Pattern(Constant(0.0), Constant(0.0))
    policy = FeedbackPolicy.solve(params, pattern, grid)
    return monte_carlo(
        policy,
        pattern,
        grid,
        mc_paths,
        mix_seed(seed, 0, _STREAM_BASELINE),
        threads=threads,
    )
