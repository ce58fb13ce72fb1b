"""The layer timings of the ROADMAP baseline table, measured alone.

Rows are reported with the per-layer metrics so a first result can be
compared with the table by eye; none of them is gated.  A row whose
function is gone or no longer takes these arguments reads ``None``.
"""

from __future__ import annotations

import time

from tracing import LayerView, layer_metrics
from workloads import README_CONFIG

SIZES = (200, 800)
MC_PATHS = 10000
REPEATS = 3


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _row(rows: dict, name: str, measure) -> None:
    try:
        rows[name] = measure()
    except (ImportError, AttributeError, TypeError):
        rows[name] = None


def table_rows(tracer, seed: int) -> dict[str, float | None]:
    """Seconds per call of each table row at n = 200 and n = 800."""
    import numpy as np
    import redblue
    from redblue.cli import build_run_config

    rows: dict[str, float | None] = {}
    for n in SIZES:
        cfg = build_run_config(dict(README_CONFIG, **{"grid.n_steps": n}))
        params, pattern, grid, red = cfg.params, cfg.pattern, cfg.grid, cfg.red
        ones = np.ones(n + 1)

        def coeffs():
            return redblue.solve_value_coeffs(params, pattern, grid)

        def moments():
            c = coeffs()
            return _best_of(lambda: redblue.solve_moments(params, c, pattern.f_c, grid))

        def stack():
            from redblue.red.objective import solve_stack

            return _best_of(lambda: solve_stack(params, ones, grid))

        def euler():
            from redblue.red.euler import euler_objective_and_gradient

            return _best_of(lambda: euler_objective_and_gradient(ones, params, red, grid))

        _row(rows, f"table.coeffs.n{n}.s", lambda: _best_of(coeffs))
        _row(rows, f"table.moments.n{n}.s", moments)
        _row(rows, f"table.solve_stack.n{n}.s", stack)
        _row(rows, f"table.euler.n{n}.s", euler)

        def mc(threads):
            policy = redblue.FeedbackPolicy.solve(params, pattern, grid)
            return _best_of(
                lambda: redblue.monte_carlo(
                    policy, pattern, grid, MC_PATHS, seed, threads=threads
                ),
                repeats=1,
            )

        def noise_share():
            policy = redblue.FeedbackPolicy.solve(params, pattern, grid)
            _, spans, _ = tracer.record(
                lambda: redblue.monte_carlo(policy, pattern, grid, MC_PATHS, seed)
            )
            m = layer_metrics(LayerView(spans, tracer.absent_spans))
            parts = (m["sde.seed.s"], m["sde.noise.s"], m["sde.mc.s"])
            if None in parts or not parts[2]:
                return None
            return (parts[0] + parts[1]) / parts[2]

        _row(rows, f"table.mc10k.t1.n{n}.s", lambda: mc(1))
        _row(rows, f"table.mc10k.t2.n{n}.s", lambda: mc(2))
        _row(rows, f"table.mc10k.seed_share.n{n}", noise_share)
    return rows

