import numpy as np
import pytest
from hypothesis import given, strategies as st

from redblue.dynamics import Dynamics
from conftest import make_params

unit = st.floats(-1.0, 1.0)
value = st.floats(-3.0, 3.0)


@st.composite
def dynamics(draw):
    """Rates of a random admissible parameter set, lam anywhere in [0, bound]."""
    r_beta = draw(st.floats(2.0, 12.0))
    sigma_w = draw(st.floats(0.08, 0.4))
    params = make_params(
        sigma_b=draw(st.floats(0.05, 0.4)),
        sigma_w=sigma_w,
        r_alpha=draw(st.floats(0.5, 4.0)),
        r_beta=r_beta,
        r_v=draw(st.floats(0.2, 3.0)),
        t_v=draw(st.floats(0.2, 3.0)),
        lam=draw(st.floats(0.0, 1.0)) * r_beta * sigma_w**2,
        v0=draw(value),
        y0=draw(value),
    )
    return Dynamics.of(params)


def central_difference(fn, x, d, eps):
    up = np.array(fn(*(x + eps * d)))
    down = np.array(fn(*(x - eps * d)))
    return (up - down) / (2.0 * eps)


# F and G are quadratic in their arguments, so a central difference is exact
# up to rounding; the tolerance only has to absorb cancellation.
EPS = 1e-3


@given(dynamics(), st.lists(value, min_size=4, max_size=4), st.lists(unit, min_size=4, max_size=4),
       st.lists(unit, min_size=3, max_size=3))
def test_coeff_vjp_matches_finite_differences(dyn, x, d, q):
    x, d, q = np.array(x), np.array(d), np.array(q)
    fd = q @ central_difference(dyn.coeff_rhs, x, d, EPS)
    vjp = np.array(dyn.coeff_vjp(q, *x)) @ d
    assert vjp == pytest.approx(fd, rel=1e-8, abs=1e-9)


@given(dynamics(), st.lists(value, min_size=7, max_size=7), st.lists(unit, min_size=7, max_size=7),
       st.lists(unit, min_size=3, max_size=3))
def test_moment_vjp_matches_finite_differences(dyn, x, d, p):
    x, d, p = np.array(x), np.array(d), np.array(p)
    fd = p @ central_difference(dyn.moment_rhs, x, d, EPS)
    vjp = np.array(dyn.moment_vjp(p, *x)) @ d
    assert vjp == pytest.approx(fd, rel=1e-8, abs=1e-9)


@given(dynamics(), st.lists(value, min_size=5, max_size=5), st.lists(unit, min_size=5, max_size=5))
def test_payoff_grad_matches_finite_differences(dyn, x, d):
    # the payoff is cubic (h02 f^2), so the difference carries an
    # eps^2 truncation term
    x, d = np.array(x), np.array(d)
    fd = central_difference(lambda *a: [dyn.payoff(*a)], x, d, 1e-5)[0]
    grad = np.array(dyn.payoff_grad(*x)) @ d
    assert grad == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_boundary_states():
    dyn = Dynamics.of(make_params(t_v=2.0, v0=1.5, y0=-2.0))
    assert dyn.coeff_terminal() == (2.0, 0.0, 0.0)
    assert dyn.moment_initial() == (2.25, -3.0, 4.0)
