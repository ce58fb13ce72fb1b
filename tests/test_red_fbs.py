from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redblue import Constant, GridConfig, NumericError, RedConfig
from redblue.dynamics import Dynamics
from redblue.model import GridSampled, grid_function, sample_on_half_grid
from redblue.moments import nodes_to_half_grid
from redblue.red.fbs import _hamiltonian_coeffs, fbs_solve, solve_adjoint
from redblue.red.fpi import fpi_solve
from redblue.red.objective import anchor_values, closed_form_update, solve_stack
import moment_reference as reference
from rk4_reference import reference_rk4
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
    """solve_adjoint stepped by the reference loop, with the hand-written
    per-stage products of F and G, which restate J_F, K and dG/ds at every
    stage, and the hand-written payoff gradient per stage."""
    fc_h = sample_on_half_grid(GridSampled(f_nodes, grid.horizon), grid)
    rows = np.column_stack((nodes_to_half_grid(x), fc_h)).tolist()
    dyn = Dynamics.of(params)

    def rhs(j, psi):
        mu, eta, rho, h20, h11, h02, f = rows[j]
        q, p = psi[:3], psi[3:]
        c_mu, c_eta, c_rho = reference.coeff_vjp_s(dyn, q, mu, eta, rho, f)
        g20, g11, g02 = reference.moment_vjp_m(dyn, p, mu, eta, rho, f)
        g_mu, g_eta, g_rho = reference.moment_vjp_s(dyn, p, h20, h11, h02)
        l_eta, l_rho = reference.payoff_grad_s(dyn, h11, h02, f)
        l_h11, l_h02 = reference.payoff_grad_m(dyn, eta, rho, f)
        return (
            -(c_mu + g_mu),
            -(c_eta + g_eta + l_eta),
            -(c_rho + g_rho + l_rho),
            -g20,
            -(g11 + l_h11),
            -(g02 + l_h02),
        )

    with np.errstate(all="ignore"):
        return reference_rk4(rhs, (0.0,) * 6, grid, -1)


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
    params, horizon = random_params(rng, mode)
    params = replace(params, vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, horizon)
    f_nodes = scale * rng.standard_normal(n_steps + 1)
    try:
        x, _ = solve_stack(params, f_nodes, grid)
    except NumericError:
        return
    want = states_or_node(reference_adjoint, params, f_nodes, x, grid)
    got = states_or_node(solve_adjoint, params, f_nodes, x, grid)
    if isinstance(want, str):
        assert got == want
    else:
        assert_within_column_max(got, want, COSTATE_BOUND)


def step_at_configured_weight(params, config, grid, f):
    """fbs_relaxation * ||f_hat - f||: the step an undamped sweep would take
    from the pattern f."""
    x, _ = solve_stack(params, f, grid)
    psi = solve_adjoint(params, f, x, grid)
    a, b = _hamiltonian_coeffs(Dynamics.of(params), x, psi)
    f_hat = closed_form_update(a, b, anchor_values(config, grid), config)
    return config.fbs_relaxation * float(np.linalg.norm(f_hat - f))


def test_fbs_is_unconverged_when_halving_shrank_its_step():
    # the objective rises from iteration 5 on, so omega is halved six times
    # and the relaxed step falls below the tolerance at iteration 11, while
    # the step at the configured weight is still about 49 times it.  The
    # stop rule is unchanged: the same iterations, history and pattern.
    params = make_params(sigma_b=0.25, sigma_w=0.25, lam=0.5)
    grid = GridConfig(300, 1.0)
    config = RedConfig(lambda_reg=1.0, penalty_kind="quadratic", solver="fbs")
    report = fbs_solve(params, config, grid)
    assert not report.converged
    assert report.iterations == 11
    np.testing.assert_allclose(
        report.objective_history,
        [
            29.17455223413,
            12.17066887738661,
            10.770672084394313,
            10.614646781901046,
            10.60133019347486,
            10.603768122739561,
            10.604711622491614,
            10.605114091050838,
            10.605298785990367,
            10.605387173037997,
            10.605430400910809,
            10.60545177660515,
        ],
        rtol=1e-12,
    )
    f = report.f_c.values
    assert f.sum() == pytest.approx(88.75453238535562, rel=1e-12)
    assert f[0] == pytest.approx(0.36537286619022297, rel=1e-12)
    assert f[-1] == pytest.approx(0.2531194023996015, rel=1e-12)
    step = step_at_configured_weight(params, config, grid, f)
    assert step > 40.0 * config.tolerance


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(10, 60),
    lambda_reg=st.sampled_from([0.01, 0.1, 1.0]),
    kind=st.sampled_from(["quadratic", "logarithmic"]),
)
def test_fbs_converged_means_the_configured_step_is_small(
    seed, n_steps, lambda_reg, kind
):
    # a converged report is a true statement at the returned pattern: the
    # step at the configured relaxation weight is below the tolerance there
    rng = np.random.default_rng(seed)
    params, horizon = random_params(rng, "upper")
    params = replace(params, vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, horizon)
    config = RedConfig(lambda_reg=lambda_reg, penalty_kind=kind, solver="fbs")
    try:
        report = fbs_solve(params, config, grid)
    except NumericError:
        return
    if report.converged:
        step = step_at_configured_weight(params, config, grid, report.f_c.values)
        assert step < config.tolerance
