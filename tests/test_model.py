import dataclasses
import math

import numpy as np
import pytest

from redblue import (
    Affine,
    Constant,
    GridConfig,
    GridSampled,
    LambdaOutOfRangeError,
    ModelParams,
    NonPositiveHorizonError,
    NonPositiveWeightError,
    OutOfDomainError,
    Sinusoid,
    validate_params,
)
from redblue.model import grid_function, sample_on_grid, sample_on_half_grid
from conftest import make_params


def test_constant_affine_values():
    assert Constant(2.5)(0.0) == 2.5
    assert Constant(2.5)(11.0) == 2.5
    f = Affine(0.6, -20.0)
    assert f(0.0) == 0.6
    assert f(0.03) == pytest.approx(0.0, abs=1e-15)
    assert f(0.1) == pytest.approx(-1.4)


def test_sinusoid_values():
    f = Sinusoid(1.0, 10.0 * math.pi)
    assert f(0.0) == 0.0
    assert f(0.05) == pytest.approx(math.sin(0.5 * math.pi))
    g = Sinusoid(2.0, 1.0, math.pi / 2.0)
    assert g(0.0) == pytest.approx(2.0)


def test_grid_sampled_interpolates_linearly():
    f = GridSampled(np.array([0.0, 1.0, 4.0]), 1.0)
    assert f(0.0) == 0.0
    assert f(0.25) == pytest.approx(0.5)
    assert f(0.75) == pytest.approx(2.5)
    assert f(1.0) == 4.0


def test_grid_sampled_domain_check():
    f = GridSampled(np.array([0.0, 1.0]), 1.0)
    # slack admits queries a rounding error past the ends
    assert f(1.0 + 1e-10) == 1.0
    assert f(-1e-10) == 0.0
    with pytest.raises(OutOfDomainError):
        f(1.001)
    with pytest.raises(OutOfDomainError):
        f(-0.001)


def test_grid_sampled_needs_two_values():
    with pytest.raises(ValueError):
        GridSampled(np.array([1.0]), 1.0)


def test_validate_params_accepts_boundary_lambda():
    params = make_params(lam=10.0 * 0.1**2)
    assert validate_params(params) is params


def test_validate_params_rejects_bad_values():
    with pytest.raises(NonPositiveWeightError):
        validate_params(make_params(sigma_w=0.0))
    with pytest.raises(NonPositiveWeightError):
        validate_params(make_params(r_alpha=-1.0))
    with pytest.raises(LambdaOutOfRangeError):
        validate_params(make_params(lam=-0.01))
    with pytest.raises(LambdaOutOfRangeError):
        validate_params(make_params(lam=0.1001))
    # sigma_w^2 underflows to 0.0 or overflows; sigma_b^2 overflows
    for bad in (dict(sigma_w=1e-300, lam=0.0), dict(sigma_w=1e200), dict(sigma_b=1e200)):
        with pytest.raises(NonPositiveWeightError, match=r"\*\*2 must be"):
            validate_params(make_params(**bad))


def test_validate_params_accepts_underflowing_sigma_b_square():
    # sigma_b^2 is only ever added, so its underflow to 0.0 is harmless
    params = make_params(sigma_b=1e-300)
    assert validate_params(params) is params


def test_lam_upper():
    assert make_params().lam_upper == pytest.approx(0.1)


def test_grid_config_nodes():
    grid = GridConfig(4, 2.0)
    assert grid.h == 0.5
    np.testing.assert_allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.times()[0] == 0.0
    assert grid.times()[-1] == 2.0
    half = grid.half_times()
    assert half.size == 9
    assert half[1] == 0.25


def test_grid_config_rejects_tiny():
    with pytest.raises(ValueError):
        GridConfig(1, 1.0)
    # the grid is T's one home: ModelParams has no horizon to disagree with it
    assert "horizon" not in {f.name for f in dataclasses.fields(ModelParams)}
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NonPositiveHorizonError):
            GridConfig(10, horizon)


def test_sampling_affine_exact():
    grid = GridConfig(4, 1.0)
    f = Affine(1.0, 2.0)
    np.testing.assert_allclose(sample_on_grid(f, grid), [1.0, 1.5, 2.0, 2.5, 3.0])
    half = sample_on_half_grid(f, grid)
    assert half.size == 9
    assert half[1] == pytest.approx(1.25)


def test_grid_function_round_trip():
    grid = GridConfig(5, 1.0)
    values = np.linspace(-1.0, 2.0, 6)
    f = grid_function(values, grid)
    np.testing.assert_array_equal(sample_on_grid(f, grid), values)
