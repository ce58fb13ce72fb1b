import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redblue.dynamics import Dynamics
from redblue.odeint import jacobian
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
    # the full q . dF/d(mu, eta, rho, f), derived from F
    vjp = q @ jacobian(dyn.coeff_rhs, x, range(4)) @ d
    assert vjp == pytest.approx(fd, rel=1e-8, abs=1e-9)


@given(dynamics(), st.lists(value, min_size=7, max_size=7), st.lists(unit, min_size=7, max_size=7),
       st.lists(unit, min_size=3, max_size=3))
def test_moment_vjp_matches_finite_differences(dyn, x, d, p):
    x, d, p = np.array(x), np.array(d), np.array(p)
    fd = p @ central_difference(dyn.moment_rhs, x, d, EPS)
    # the full p . dG/d(h20, h11, h02, mu, eta, rho, f), derived from G
    vjp = p @ jacobian(dyn.moment_rhs, x, range(7)) @ d
    assert vjp == pytest.approx(fd, rel=1e-8, abs=1e-9)


@given(dynamics(), st.lists(value, min_size=5, max_size=5), st.lists(unit, min_size=5, max_size=5))
def test_payoff_grad_matches_finite_differences(dyn, x, d):
    # the payoff is cubic (h02 f^2), so the difference carries an
    # eps^2 truncation term
    x, d = np.array(x), np.array(d)
    fd = central_difference(lambda *a: [dyn.payoff(*a)], x, d, 1e-5)[0]
    # the full dL/d(eta, rho, h11, h02, f), derived from L
    (grad,) = jacobian(dyn.payoff, x, range(5)) @ d
    assert grad == pytest.approx(fd, rel=1e-6, abs=1e-7)


# Magnitudes in [1e-100, 1e100], or zero: the products and quotients of a
# few of them by the rates drawn here stay in the normal range, where the
# table forms and the per-stage reference round alike.
normal = st.floats(-1e100, 1e100).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# The derived dG/d(mu, eta, rho) rounds its entries otherwise than the
# per-stage reference (2.0 * -(1.0 / r_alpha) * h20 against
# -2.0 * h20 / r_alpha), so its products differ in the last bits.  Each
# entry is linear in the moments with negative coefficients, so at |m| it
# is minus the sum of its terms' magnitudes, and |p| . |dG/ds(|m|)| bounds
# the magnitude of every term of a product.  Over 300000 draws made as
# these tests make them the difference was at most 1.96 roundings of it.
JAC_S_BOUND = 4 * np.finfo(float).eps


def check_tables_match_the_reference(dyn, h, s, p):
    h20, h11, h02 = h
    mu, eta, rho, f = s
    args = (*h, *s)
    (k00, k01, _), (k10, k11, k12), (_, k21, k22) = np.moveaxis(
        jacobian(dyn.moment_rhs, args, (0, 1, 2)), (-2, -1), (0, 1)
    )
    p1, p2, p3 = p
    want = reference.moment_rhs(dyn, h20, h11, h02, mu, eta, rho, f)
    assert same_bits(dyn.moment_rhs(*args), want)
    # K m + sigma and K^T p as the Euler recursions apply the derived K
    assert same_bits(
        (
            k00 * h20 + k01 * h11 + dyn.sb2,
            k11 * h11 + k10 * h20 + k12 * h02,
            k21 * h11 + k22 * h02 + dyn.sw2,
        ),
        want,
    )
    assert same_bits(
        (p1 * k00 + p2 * k10, p1 * k01 + p2 * k11 + p3 * k21, p2 * k12 + p3 * k22),
        reference.moment_vjp_m(dyn, p, mu, eta, rho, f),
    )

    def jac_s(*m):
        rows = jacobian(dyn.moment_rhs, (*m, *s), (3, 4, 5))
        return np.moveaxis(rows, (-2, -1), (0, 1))

    got = sum(p_i * row for p_i, row in zip(p, jac_s(*h)))
    scale = sum(np.abs(p_i) * -row for p_i, row in zip(p, jac_s(*map(np.abs, h))))
    want = np.array(reference.moment_vjp_s(dyn, p, h20, h11, h02))
    assert np.all(np.abs(got - want) <= JAC_S_BOUND * scale)


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


# Any float but nan: K's entries round alike for every magnitude, subnormal
# or infinite.
anything = st.floats(allow_nan=False)


@given(dynamics(), st.lists(anything, min_size=4, max_size=4))
def test_derived_k_equals_the_reference_gains_bit_for_bit(dyn, s):
    # K = dG/dm, derived from G, is today's table of gains laid out at its
    # places, and zero at its two corners
    want = np.zeros((3, 3))
    with np.errstate(all="ignore"):
        gains = reference.moment_gains(dyn, *s)
    want[reference.GAIN_ROWS, reference.GAIN_COLS] = gains
    got = jacobian(dyn.moment_rhs, (0.0, 0.0, 0.0, *s), (0, 1, 2))
    assert same_bits(got, want)


@given(dynamics(), st.integers(1, 8), st.data())
def test_derived_k_equals_the_reference_gains_on_arrays(dyn, size, data):
    row = st.lists(anything, min_size=size, max_size=size).map(np.array)
    s = [data.draw(row) for _ in range(4)]
    want = np.zeros((size, 3, 3))
    with np.errstate(all="ignore"):
        gains = reference.moment_gains(dyn, *s)
    want[:, reference.GAIN_ROWS, reference.GAIN_COLS] = np.stack(gains, -1)
    got = jacobian(dyn.moment_rhs, (0.0, 0.0, 0.0, *s), (0, 1, 2))
    assert same_bits(got, want)


def test_boundary_states():
    dyn = Dynamics.of(make_params(t_v=2.0, v0=1.5, y0=-2.0))
    assert dyn.coeff_terminal() == (2.0, 0.0, 0.0)
    assert dyn.moment_initial() == (2.25, -3.0, 4.0)
