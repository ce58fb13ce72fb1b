import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redblue import Constant, GridConfig, RedConfig
from redblue.dynamics import Dynamics
from redblue.errors import NonFiniteStateError, NonPositiveFcError
from redblue.model import sample_on_grid
from redblue.red.euler import _trapezoid_weights, euler_objective_and_gradient
from redblue.red.objective import anchored_penalty
from conftest import random_params, short_params
from moment_reference import moment_rhs as _moment_rhs


# The per-node version the block-split sweeps replaced, kept as the reference:
# the combined transposed-Jacobian products, float tuples per node, and every
# sensitivity pushed one element at a time.


def _coeff_vjp(dyn, q, mu, eta, rho, f):
    ra, rb, u = dyn.r_alpha, dyn.r_beta, dyn.u
    q1, q2, q3 = q
    d_mu = q1 * 2.0 * mu / ra + q2 * eta / ra
    d_eta = (
        q1 * (2.0 * eta / rb - 2.0)
        + q2 * (mu / ra + rho / rb - u * f)
        + q3 * 2.0 * eta / ra
    )
    d_rho = q2 * (eta / rb - 1.0) + q3 * (2.0 * rho / rb - 2.0 * u * f)
    d_f = q2 * (-u * eta) + q3 * (-2.0 * u * rho + 2.0 * dyn.c2 * f)
    return d_mu, d_eta, d_rho, d_f


def _moment_vjp(dyn, p, h20, h11, h02, mu, eta, rho, f):
    ra, rb, u = dyn.r_alpha, dyn.r_beta, dyn.u
    p1, p2, p3 = p
    d_h20 = p1 * (-2.0 * mu / ra) + p2 * (1.0 - eta / rb)
    d_h11 = (
        p1 * (-2.0 * eta / ra)
        + p2 * (u * f - rho / rb - mu / ra)
        + p3 * 2.0 * (1.0 - eta / rb)
    )
    d_h02 = p2 * (-eta / ra) + p3 * 2.0 * (u * f - rho / rb)
    d_mu = p1 * (-2.0 * h20 / ra) + p2 * (-h11 / ra)
    d_eta = p1 * (-2.0 * h11 / ra) + p2 * (-h20 / rb - h02 / ra) + p3 * (-2.0 * h11 / rb)
    d_rho = p2 * (-h11 / rb) + p3 * (-2.0 * h02 / rb)
    d_f = p2 * u * h11 + p3 * 2.0 * u * h02
    return d_h20, d_h11, d_h02, d_mu, d_eta, d_rho, d_f


def _payoff_grad(dyn, eta, rho, h11, h02, f):
    rb = dyn.r_beta
    a, b = dyn.payoff_coeffs(eta, rho, h11, h02)
    d_eta = -h11 * f / rb
    d_rho = -h02 * f / rb
    d_h11 = -eta * f / rb
    d_h02 = -rho * f / rb + (dyn.u - 0.5) * f * f
    return d_eta, d_rho, d_h11, d_h02, b + a * f


def reference_euler_objective_and_gradient(f, params, config, grid):
    f = np.asarray(f, dtype=float)
    n = grid.n_steps
    if f.shape != (n + 1,):
        raise ValueError(f"expected {n + 1} node values")
    h = grid.h
    dyn = Dynamics.of(params)
    sw2 = dyn.sw2
    w = _trapezoid_weights(grid)

    f_list = f.tolist()
    s = [dyn.coeff_terminal()] * (n + 1)
    for k in range(n - 1, -1, -1):
        mu, eta, rho = s[k + 1]
        d_mu, d_eta, d_rho = dyn.coeff_rhs(mu, eta, rho, f_list[k + 1])
        s[k] = (mu - h * d_mu, eta - h * d_eta, rho - h * d_rho)
    m = [dyn.moment_initial()]
    for k in range(n):
        h20, h11, h02 = m[k]
        d20, d11, d02 = _moment_rhs(dyn, h20, h11, h02, *s[k], f_list[k])
        m.append((h20 + h * d20, h11 + h * d11, h02 + h * d02))
    states = np.column_stack([np.array(s, dtype=float), np.array(m, dtype=float)])
    if not np.all(np.isfinite(states)):
        raise NonFiniteStateError("Euler recursion overflowed")
    mu, eta, rho, h20, h11, h02 = states.T

    elr = float(np.sum(w * (dyn.payoff(eta, rho, h11, h02, f) / sw2)))
    if config.lambda_reg != 0.0:
        anchor = sample_on_grid(config.f_c_initial, grid)
        pen = anchored_penalty(f, anchor, config, grid)
        if config.penalty_kind == "quadratic":
            dpen = 2.0 * w * (f - anchor)
        else:
            dpen = -w * anchor / f
        objective = elr + (config.lambda_reg / sw2) * pen
    else:
        dpen = None
        objective = elr

    l_eta, l_rho, l_h11, l_h02, l_f = _payoff_grad(dyn, eta, rho, h11, h02, f)
    grad = w * l_f / sw2
    if dpen is not None:
        grad = grad + (config.lambda_reg / sw2) * dpen
    bar_eta = w * l_eta / sw2
    bar_rho = w * l_rho / sw2
    bar_h11 = w * l_h11 / sw2
    bar_h02 = w * l_h02 / sw2

    grad = grad.tolist()
    bar_h11 = bar_h11.tolist()
    bar_h02 = bar_h02.tolist()
    bs_mu = [0.0] * (n + 1)
    bs_eta = bar_eta.tolist()
    bs_rho = bar_rho.tolist()
    p = (0.0, bar_h11[n], bar_h02[n])
    for k in range(n - 1, -1, -1):
        d20, d11, d02, d_mu, d_eta, d_rho, d_f = _moment_vjp(
            dyn, p, *m[k], *s[k], f_list[k]
        )
        bs_mu[k] += h * d_mu
        bs_eta[k] += h * d_eta
        bs_rho[k] += h * d_rho
        grad[k] += h * d_f
        p = (
            p[0] + h * d20,
            p[1] + h * d11 + bar_h11[k],
            p[2] + h * d02 + bar_h02[k],
        )

    q = (bs_mu[0], bs_eta[0], bs_rho[0])
    for k in range(n):
        d_mu, d_eta, d_rho, d_f = _coeff_vjp(dyn, q, *s[k + 1], f_list[k + 1])
        grad[k + 1] += -h * d_f
        if k + 1 < n:
            q = (
                q[0] - h * d_mu + bs_mu[k + 1],
                q[1] - h * d_eta + bs_eta[k + 1],
                q[2] - h * d_rho + bs_rho[k + 1],
            )

    return objective, np.array(grad)


def _outcome(fn, *args, **kwargs):
    """(value, gradient) or the (type, message) of the error raised; the
    suite raises numpy's RuntimeWarning as an error."""
    try:
        return fn(*args, **kwargs)
    except (NonFiniteStateError, NonPositiveFcError, RuntimeWarning) as exc:
        return type(exc), str(exc)


@settings(max_examples=120)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["any", "zero", "full", "upper"]),
    penalty_kind=st.sampled_from(["quadratic", "logarithmic"]),
    lambda_reg=st.sampled_from([0.0, 0.3, 2.0]),
    n_steps=st.integers(2, 120),
    # the largest scales overflow the recursions or the penalty
    scale=st.sampled_from([1e-3, 1.0, 40.0, 1e60, 1e160]),
    anchor=st.floats(0.2, 3.0),
)
def test_euler_matches_the_per_node_reference_bit_for_bit(
    seed, mode, penalty_kind, lambda_reg, n_steps, scale, anchor
):
    rng = np.random.default_rng(seed)
    params = random_params(rng, mode)
    grid = GridConfig(n_steps, params.horizon)
    config = RedConfig(
        lambda_reg=lambda_reg, penalty_kind=penalty_kind, f_c_initial=Constant(anchor)
    )
    # mostly positive nodes; a negative one fails the logarithmic penalty
    f = scale * (1.0 + 0.6 * rng.standard_normal(n_steps + 1))
    want = _outcome(reference_euler_objective_and_gradient, f, params, config, grid)
    nodes = sample_on_grid(config.f_c_initial, grid)
    for got in (
        _outcome(euler_objective_and_gradient, f, params, config, grid),
        _outcome(euler_objective_and_gradient, f, params, config, grid, nodes),
    ):
        if isinstance(want[0], type):
            assert got == want
        else:
            assert isinstance(got[0], float) and got[0] == want[0]
            assert np.array_equal(got[1], want[1], equal_nan=True)
            # equal also in the sign of every zero
            assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))


def test_non_positive_log_anchor_raises_without_a_given_anchor():
    # sampled here, the anchor is checked as the solvers check it, before
    # the log of f / anchor can meet a negative ratio
    config = RedConfig(
        lambda_reg=1.0,
        penalty_kind="logarithmic",
        f_c_initial=Constant(-1.0),
        solver="nn",
    )
    grid = GridConfig(10, 0.1)
    with pytest.raises(NonPositiveFcError, match="positive anchor"):
        euler_objective_and_gradient(np.ones(11), short_params(), config, grid)
