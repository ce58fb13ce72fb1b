import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from redblue import Constant, GridConfig, RedBlueError, RedConfig
from redblue.cli import build_run_config
from redblue.red.fbs import fbs_solve
from redblue.red.fpi import fpi_solve
import red_reference as reference
from conftest import random_params
from test_cli import README_DOC


def _outcome(solve, *args):
    """The report's fields, with every array as bytes, or the (type,
    message) of the error raised; the suite raises numpy's RuntimeWarning
    as an error."""
    try:
        report = solve(*args)
    except (RedBlueError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    return (
        report.f_c.values.tobytes(),
        np.array(report.objective_history).tobytes(),
        report.iterations,
        report.converged,
        json.dumps(report.as_dict(), sort_keys=True),
    )


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "upper", "full"]),
    penalty_kind=st.sampled_from(["quadratic", "logarithmic"]),
    lambda_reg=st.sampled_from([0.1, 1.0, 3.0]),
    relaxation=st.sampled_from([0.25, 0.5, 1.0]),
    max_iters=st.integers(1, 40),
    n_steps=st.integers(10, 120),
    tolerance=st.sampled_from([1e-3, 1e-6]),
)
def test_sweep_matches_the_per_solver_loops_bit_for_bit(
    seed, mode, penalty_kind, lambda_reg, relaxation, max_iters, n_steps, tolerance
):
    # fpi and fbs as update rules of one loop give the reports their own
    # loops gave, or fail with the same error
    rng = np.random.default_rng(seed)
    params = replace(random_params(rng, mode), vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, params.horizon)
    for solver, solve, reference_solve in (
        ("fpi", fpi_solve, reference.fpi_solve),
        ("fbs", fbs_solve, reference.fbs_solve),
    ):
        config = RedConfig(
            lambda_reg=lambda_reg,
            penalty_kind=penalty_kind,
            solver=solver,
            tolerance=tolerance,
            max_iters=max_iters,
            fbs_relaxation=relaxation,
        )
        want = _outcome(reference_solve, params, config, grid)
        assert _outcome(solve, params, config, grid) == want


def test_fpi_at_zero_lambda_reg_runs_under_the_logarithmic_penalty():
    # at lambda_reg = 0 the penalty is off, so iterates that reach 0 are
    # valid and the report is the quadratic kind's
    cfg = build_run_config(dict(README_DOC, **{"red.lambda_reg": 0.0}))
    report = fpi_solve(cfg.params, cfg.red, cfg.grid)
    assert report.final_penalty == 0.0
    assert report.final_objective == report.final_expected_log_lr
    quadratic = replace(cfg.red, penalty_kind="quadratic")
    same = fpi_solve(cfg.params, quadratic, cfg.grid)
    assert np.array_equal(report.f_c.values, same.f_c.values)
    assert report.objective_history == same.objective_history
