from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redblue import Constant, GridConfig, NonFiniteStateError, RedConfig
from redblue.dynamics import Dynamics
from redblue.model import GridSampled, grid_function, sample_on_half_grid
from redblue.moments import nodes_to_half_grid
from redblue.odeint import integrate_backward
from redblue.red.fbs import fbs_solve, solve_adjoint
from redblue.red.fpi import fpi_solve
from redblue.red.objective import solve_stack
import moment_reference as reference
from conftest import (
    assert_within_column_max,
    make_params,
    random_params,
    states_or_node,
)


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


def reference_adjoint(params, f_nodes, x, grid):
    """solve_adjoint with the per-stage reference products of G, which
    restate K and dG/ds at every stage, and the payoff gradient per stage."""
    fc_h = sample_on_half_grid(GridSampled(f_nodes, grid.horizon), grid)
    rows = np.column_stack((nodes_to_half_grid(x), fc_h)).tolist()
    dyn = Dynamics.of(params)

    def rhs(j, psi):
        mu, eta, rho, h20, h11, h02, f = rows[j]
        q, p = psi[:3], psi[3:]
        c_mu, c_eta, c_rho = dyn.coeff_vjp_s(q, mu, eta, rho, f)
        g20, g11, g02 = reference.moment_vjp_m(dyn, p, mu, eta, rho, f)
        g_mu, g_eta, g_rho = reference.moment_vjp_s(dyn, p, h20, h11, h02)
        l_eta, l_rho = dyn.payoff_grad_s(h11, h02, f)
        l_h11, l_h02 = dyn.payoff_grad_m(eta, rho, f)
        return (
            -(c_mu + g_mu),
            -(c_eta + g_eta + l_eta),
            -(c_rho + g_rho + l_rho),
            -g20,
            -(g11 + l_h11),
            -(g02 + l_h02),
        )

    return integrate_backward(rhs, (0.0,) * 6, grid)


# The largest difference from the per-stage reference, relative to each
# column's max |value|, was 2.7e-12 over 1518 draws made as this test makes
# them.  It comes from the pattern's midpoints, which the reference interpolates
# with np.interp, amplified on patterns of scale 40; with the reference's
# midpoints the maps differ by at most 4.5e-14 on the worst draw.
COSTATE_BOUND = 1e-11


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    n_steps=st.integers(2, 120),
    scale=st.sampled_from([1e-3, 1.0, 40.0]),
)
def test_adjoint_matches_the_per_stage_reference(seed, mode, n_steps, scale):
    # the composed RK4 maps step the costates as the per-stage products did,
    # up to rounding; a solve that goes non-finite does so at the same node
    rng = np.random.default_rng(seed)
    params = replace(random_params(rng, mode), vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, params.horizon)
    f_nodes = scale * rng.standard_normal(n_steps + 1)
    try:
        x, _ = solve_stack(params, f_nodes, grid)
    except NonFiniteStateError:
        return
    want = states_or_node(reference_adjoint, params, f_nodes, x, grid)
    got = states_or_node(solve_adjoint, params, f_nodes, x, grid)
    if isinstance(want, str):
        assert got == want
    else:
        assert_within_column_max(got, want, COSTATE_BOUND)
