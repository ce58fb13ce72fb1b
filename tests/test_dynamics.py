import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redblue.dynamics import Dynamics
import moment_reference as reference
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
    mu, eta, rho, f = x
    # the full q . dF/d(mu, eta, rho, f), assembled from its blocks
    blocks = [*dyn.coeff_vjp_s(q, mu, eta, rho, f), dyn.coeff_vjp_f(q, eta, rho, f)]
    vjp = np.array(blocks) @ d
    assert vjp == pytest.approx(fd, rel=1e-8, abs=1e-9)


@given(dynamics(), st.lists(value, min_size=7, max_size=7), st.lists(unit, min_size=7, max_size=7),
       st.lists(unit, min_size=3, max_size=3))
def test_moment_vjp_matches_finite_differences(dyn, x, d, p):
    x, d, p = np.array(x), np.array(d), np.array(p)

    def moment_rhs(h20, h11, h02, mu, eta, rho, f):
        return dyn.moment_rhs(h20, h11, h02, dyn.moment_gains(mu, eta, rho, f))

    fd = p @ central_difference(moment_rhs, x, d, EPS)
    h20, h11, h02, mu, eta, rho, f = x
    # the full p . dG/d(h20, h11, h02, mu, eta, rho, f), assembled from its blocks
    blocks = [
        *dyn.moment_vjp_m(p, dyn.moment_gains(mu, eta, rho, f)),
        *dyn.moment_vjp_s(p, dyn.moment_jac_s(h20, h11, h02)),
        dyn.moment_vjp_f(p, h11, h02),
    ]
    vjp = np.array(blocks) @ d
    assert vjp == pytest.approx(fd, rel=1e-8, abs=1e-9)


@given(dynamics(), st.lists(value, min_size=5, max_size=5), st.lists(unit, min_size=5, max_size=5))
def test_payoff_grad_matches_finite_differences(dyn, x, d):
    # the payoff is cubic (h02 f^2), so the difference carries an
    # eps^2 truncation term
    x, d = np.array(x), np.array(d)
    fd = central_difference(lambda *a: [dyn.payoff(*a)], x, d, 1e-5)[0]
    eta, rho, h11, h02, f = x
    # the full dL/d(eta, rho, h11, h02, f), assembled from its blocks
    blocks = [
        *dyn.payoff_grad_s(h11, h02, f),
        *dyn.payoff_grad_m(eta, rho, f),
        dyn.payoff_grad_f(*dyn.payoff_coeffs(eta, rho, h11, h02), f),
    ]
    grad = np.array(blocks) @ d
    assert grad == pytest.approx(fd, rel=1e-6, abs=1e-7)


# Magnitudes in [1e-100, 1e100], or zero: the products and quotients of a
# few of them by the rates drawn here stay in the normal range, where the
# table forms and the per-stage reference round alike.
normal = st.floats(-1e100, 1e100).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def check_tables_match_the_reference(dyn, h, s, p):
    h20, h11, h02 = h
    mu, eta, rho, f = s
    gains = dyn.moment_gains(mu, eta, rho, f)
    jac = dyn.moment_jac_s(h20, h11, h02)
    assert same_bits(
        dyn.moment_rhs(h20, h11, h02, gains),
        reference.moment_rhs(dyn, h20, h11, h02, mu, eta, rho, f),
    )
    assert same_bits(
        dyn.moment_vjp_m(p, gains), reference.moment_vjp_m(dyn, p, mu, eta, rho, f)
    )
    assert same_bits(
        dyn.moment_vjp_s(p, jac), reference.moment_vjp_s(dyn, p, h20, h11, h02)
    )


@settings(max_examples=300)
@given(
    dynamics(),
    st.lists(normal, min_size=3, max_size=3),
    st.lists(normal, min_size=4, max_size=4),
    st.lists(normal, min_size=3, max_size=3),
)
def test_moment_tables_match_the_per_stage_reference_on_floats(dyn, h, s, p):
    check_tables_match_the_reference(dyn, h, s, p)


@given(dynamics(), st.integers(1, 8), st.data())
def test_moment_tables_match_the_per_stage_reference_on_arrays(dyn, size, data):
    def rows(count):
        row = st.lists(normal, min_size=size, max_size=size).map(np.array)
        return [data.draw(row) for _ in range(count)]

    check_tables_match_the_reference(dyn, rows(3), rows(4), rows(3))


def test_boundary_states():
    dyn = Dynamics.of(make_params(t_v=2.0, v0=1.5, y0=-2.0))
    assert dyn.coeff_terminal() == (2.0, 0.0, 0.0)
    assert dyn.moment_initial() == (2.25, -3.0, 4.0)
