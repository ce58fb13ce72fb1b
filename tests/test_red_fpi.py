import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from redblue import (
    Constant,
    DegenerateDenominatorError,
    GridConfig,
    NonPositiveFcError,
    RedConfig,
)
from redblue.model import grid_function, sample_on_grid
from redblue.red.fpi import fpi_solve
from redblue.red.objective import anchor_values, anchored_penalty, closed_form_update
from conftest import make_params


def full_intensity_params():
    base = make_params()
    return make_params(lam=base.lam_upper)


def test_quadratic_update_hand_computed():
    # u = 1: a = h02 = 0.2, b = -(eta h11)/r_beta = -0.3, anchor 1,
    # lambda_reg 0.15 -> f = (2*0.15 + 0.3) / (0.2 + 0.3) = 1.2
    config = RedConfig(lambda_reg=0.15, penalty_kind="quadratic")
    value = closed_form_update(
        np.array([0.2]), np.array([-0.3]), np.array([1.0]), config
    )
    assert value[0] == pytest.approx(1.2, rel=1e-14)


def test_quadratic_update_respects_anchor():
    config = RedConfig(lambda_reg=0.15, penalty_kind="quadratic")
    # doubling the anchor shifts the closed form accordingly
    value = closed_form_update(
        np.array([0.2]), np.array([-0.3]), np.array([2.0]), config
    )
    assert value[0] == pytest.approx((0.6 + 0.3) / 0.5, rel=1e-14)


def test_logarithmic_update_hand_computed():
    # u = 1: a = h02 = 1, b = -(eta h11)/r_beta = -1, lambda_reg 2
    # -> positive root of f^2 - f - 2 = 0, which is 2
    config = RedConfig(lambda_reg=2.0, penalty_kind="logarithmic")
    value = closed_form_update(
        np.array([1.0]), np.array([-1.0]), np.array([1.0]), config
    )
    assert value[0] == pytest.approx(2.0, rel=1e-14)


def _golden_minimum(phi, lo, hi, iters=200):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iters):
        x1 = hi - inv * (hi - lo)
        x2 = lo + inv * (hi - lo)
        if phi(x1) < phi(x2):
            hi = x2
        else:
            lo = x1
    return 0.5 * (lo + hi)


def test_logarithmic_update_with_grid_anchor_minimizes_nodewise_objective():
    # a non-unit, time-varying anchor: every node value must minimize
    # (a/2) f^2 + b f - lambda_reg anchor log(f / anchor) over f > 0
    grid = GridConfig(8, 0.1)
    anchor_nodes = np.linspace(0.3, 2.5, 9)
    config = RedConfig(
        lambda_reg=0.7,
        penalty_kind="logarithmic",
        f_c_initial=grid_function(anchor_nodes, grid),
    )
    rng = np.random.default_rng(3)
    a = rng.uniform(0.2, 3.0, 9)
    b = rng.uniform(-2.0, 2.0, 9)
    update = closed_form_update(a, b, anchor_values(config, grid), config)
    for ak, bk, ck, fk in zip(a, b, anchor_nodes, update):
        def phi(f):
            return 0.5 * ak * f * f + bk * f - 0.7 * ck * math.log(f / ck)

        assert fk == pytest.approx(_golden_minimum(phi, 1e-9, 50.0), rel=1e-6)


@pytest.mark.parametrize("anchor", [0.0, -0.1, -5.0])
def test_logarithmic_update_rejects_non_positive_anchor(anchor):
    # u = 1: a = h02 = 1, b = -(eta h11)/r_beta = -1
    config = RedConfig(lambda_reg=1.0, penalty_kind="logarithmic")
    with pytest.raises(NonPositiveFcError):
        closed_form_update(
            np.array([1.0]), np.array([-1.0]), np.array([anchor]), config
        )


def test_degenerate_denominator_raises():
    # lam = 0 makes the quadratic coefficient negative (a = -h02 = -1, and
    # b = 0 with eta = rho = 0); with a small penalty weight the nodewise
    # problem is unbounded below
    config = RedConfig(lambda_reg=0.01, penalty_kind="quadratic")
    with pytest.raises(DegenerateDenominatorError):
        closed_form_update(np.array([-1.0]), np.array([0.0]), np.array([1.0]), config)
    log_config = RedConfig(lambda_reg=0.5, penalty_kind="logarithmic")
    with pytest.raises(DegenerateDenominatorError):
        closed_form_update(
            np.array([-1.0]), np.array([0.0]), np.array([1.0]), log_config
        )


def test_huge_penalty_pins_anchor():
    # u = 1: a = h02 = 2, b = -(eta h11 + rho h02)/r_beta = -(3 + 1)/10 = -0.4
    config = RedConfig(lambda_reg=1e8, penalty_kind="quadratic")
    value = closed_form_update(
        np.array([2.0]), np.array([-0.4]), np.array([1.0]), config
    )
    assert value[0] == pytest.approx(1.0, abs=1e-6)


@given(
    a=st.floats(1e-3, 1e3),
    b=st.floats(-1e3, 1e3),
    anchor=st.floats(1e-3, 1e3),
    lambda_reg=st.floats(0.0, 1e3),
)
@example(a=1.0, b=1e-200, anchor=1.0, lambda_reg=0.0)
def test_logarithmic_update_root_is_real_and_non_negative(a, b, anchor, lambda_reg):
    # a > 0, anchor > 0 and lambda_reg >= 0 give b^2 + 4 a lambda_reg anchor
    # >= b^2 >= 0, so the update needs no discriminant check
    config = RedConfig(lambda_reg=lambda_reg, penalty_kind="logarithmic")
    value = closed_form_update(
        np.array([a]), np.array([b]), np.array([anchor]), config
    )
    assert np.isfinite(value[0])
    assert value[0] >= 0.0


def test_penalty_values():
    grid = GridConfig(100, 0.1)

    def penalty(f_c, config):
        return anchored_penalty(
            sample_on_grid(f_c, grid), anchor_values(config, grid), config, grid
        )

    quad = RedConfig(lambda_reg=1.0, penalty_kind="quadratic")
    assert penalty(Constant(1.5), quad) == pytest.approx(0.025, rel=1e-12)
    log = RedConfig(lambda_reg=1.0, penalty_kind="logarithmic")
    e = float(np.exp(1.0))
    assert penalty(Constant(e), log) == pytest.approx(-0.1, rel=1e-12)


def test_fpi_solve_requires_matching_solver():
    params = full_intensity_params()
    config = RedConfig(lambda_reg=1.0, solver="fbs")
    with pytest.raises(ValueError):
        fpi_solve(params, config, GridConfig(50, 0.1))


def test_fpi_solve_full_intensity_log_analytic():
    # at the misdirection bound the cross coefficients vanish, so the
    # optimal payoff reduces to (u - 1/2) lambda_reg T / sigma_w^2, here
    # 5 * lambda_reg, independent of the moment curves
    params = full_intensity_params()
    grid = GridConfig(200, 0.1)
    for lambda_reg in (0.1, 1.0):
        config = RedConfig(lambda_reg=lambda_reg, penalty_kind="logarithmic")
        report = fpi_solve(params, config, grid)
        assert report.converged
        assert report.iterations < 20
        assert report.final_expected_log_lr == pytest.approx(
            5.0 * lambda_reg, abs=5e-3
        )
        assert len(report.objective_history) == report.iterations + 1


def test_fpi_report_penalty_consistency():
    params = full_intensity_params()
    grid = GridConfig(200, 0.1)
    config = RedConfig(lambda_reg=1.0, penalty_kind="quadratic")
    report = fpi_solve(params, config, grid)
    assert report.converged
    scale = config.lambda_reg / params.sigma_w**2
    assert report.final_objective == pytest.approx(
        report.final_expected_log_lr + scale * report.final_penalty, rel=1e-12
    )
    assert report.final_objective == report.objective_history[-1]
