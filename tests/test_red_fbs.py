import numpy as np
import pytest

from redblue import GridConfig, RedConfig
from redblue.model import grid_function
from redblue.red.fbs import fbs_solve, solve_adjoint
from redblue.red.fpi import fpi_solve
from redblue.red.objective import solve_stack
from conftest import make_params


def full_intensity_params():
    base = make_params()
    return make_params(lam=base.lam_upper)


def test_adjoint_terminal_row_is_zero():
    params = make_params(lam=0.08)
    grid = GridConfig(100, 0.1)
    f_nodes = np.ones(101)
    x, _ = solve_stack(params, f_nodes, grid)
    adjoint = solve_adjoint(params, f_nodes, x, grid)
    assert adjoint.shape == (101, 6)
    assert np.all(adjoint[-1] == 0.0)


def test_adjoint_vanishes_for_zero_pattern():
    # every driving term in the costate system carries a factor of f_c, so
    # a zero pattern keeps all six curves at exactly zero
    params = make_params(lam=0.08)
    grid = GridConfig(100, 0.1)
    f_nodes = np.zeros(101)
    x, _ = solve_stack(params, f_nodes, grid)
    adjoint = solve_adjoint(params, f_nodes, x, grid)
    assert np.all(adjoint == 0.0)


def test_fbs_solve_requires_matching_solver():
    config = RedConfig(lambda_reg=1.0, solver="fpi")
    with pytest.raises(ValueError):
        fbs_solve(make_params(), config, GridConfig(50, 0.1))


def test_huge_penalty_freezes_anchor():
    params = full_intensity_params()
    grid = GridConfig(100, 0.1)
    config = RedConfig(lambda_reg=1e8, penalty_kind="quadratic", solver="fbs")
    report = fbs_solve(params, config, grid)
    assert report.converged
    np.testing.assert_allclose(report.f_c.values, 1.0, atol=1e-6)


def test_fbs_matches_fpi_on_short_horizon():
    params = full_intensity_params()
    grid = GridConfig(200, 0.1)
    for kind in ("quadratic", "logarithmic"):
        fpi_cfg = RedConfig(lambda_reg=1.0, penalty_kind=kind, solver="fpi")
        fbs_cfg = RedConfig(lambda_reg=1.0, penalty_kind=kind, solver="fbs")
        a = fpi_solve(params, fpi_cfg, grid).f_c.values
        b = fbs_solve(params, fbs_cfg, grid).f_c.values
        distance = np.linalg.norm(a - b) / max(
            np.linalg.norm(a), np.linalg.norm(b)
        )
        assert distance < 0.05


def test_fbs_objective_history_tracks_progress():
    params = full_intensity_params()
    grid = GridConfig(200, 0.1)
    config = RedConfig(lambda_reg=1.0, penalty_kind="quadratic", solver="fbs")
    report = fbs_solve(params, config, grid)
    assert report.converged
    history = report.objective_history
    assert len(history) == report.iterations + 1
    # the sweep is a descent overall even if single steps may stall
    assert history[-1] < history[0]


def test_fbs_quadratic_anchor_need_not_be_one():
    params = full_intensity_params()
    grid = GridConfig(100, 0.1)
    config = RedConfig(
        lambda_reg=1e8,
        penalty_kind="quadratic",
        solver="fbs",
        f_c_initial=grid_function(np.linspace(0.5, 1.5, 101), grid),
    )
    report = fbs_solve(params, config, grid)
    np.testing.assert_allclose(
        report.f_c.values, np.linspace(0.5, 1.5, 101), atol=1e-6
    )
