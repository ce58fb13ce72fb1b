"""The model's equations, stated once.

Blue plays a linear feedback law, alpha = a_v V + a_y Y + a_0 and
beta = b_v V + b_y Y + b_0, on the state V' = alpha, Y' = V + beta (plus
noise), so everything blue's solution implies is a property of one closed
loop,

    A = [[a_v,     a_y],
         [1 + b_v, b_y]],

with the gains of ``state_gains`` and ``offset_gains``:

    a_v = -(mu/r_alpha),  a_y = -(eta/r_alpha),  a_0 = -(gamma/r_alpha),
    b_v = -(eta/r_beta),  b_y = u f_c - rho/r_beta,  b_0 = u f_d - theta/r_beta,

where u = lam/(r_beta sigma_w^2) and c2 = (lam/sigma_w^2)(u - 1).  The
coefficient block s = (mu, eta, rho) is solved backward from
s(T) = (t_v, 0, 0):

    F:  mu'  = mu^2/r_alpha + eta^2/r_beta - 2 eta - r_v
        eta' = mu eta/r_alpha + rho eta/r_beta - rho - u eta f_c
        rho' = eta^2/r_alpha + rho^2/r_beta - 2 u rho f_c + c2 f_c^2

The value function's linear terms follow the transposed loop,
(gamma, theta)' = -A^T (gamma, theta) + (r_v vbar - u eta f_d,
-u rho f_d + c2 f_c f_d), and xi collects the constant terms; ``value_rhs``
states the three lines, after F's.

Under a pattern f = f_c(t) (zero offset, zero velocity targets) the
second-moment block m = (h20, h11, h02), solved forward from
m(0) = (v0^2, v0 y0, y0^2), obeys A's Lyapunov equation
M' = A M + M A^T + diag(sigma_b^2, sigma_w^2) for M = [[h20, h11], [h11, h02]]:

    G:  h20' = 2 a_v h20 + 2 a_y h11 + sigma_b^2
        h11' = (b_y + a_v) h11 + (1 + b_v) h20 + a_y h02
        h02' = 2 (1 + b_v) h11 + 2 b_y h02 + sigma_w^2

G is linear in m, G = K m + sigma with sigma = (sigma_b^2, 0, sigma_w^2):
K, A's Lyapunov operator on m, depends on (mu, eta, rho) and f only, and
dG/d(mu, eta, rho) on m only.  The payoff integrand
L = -(eta h11 + rho h02) f/r_beta + (u - 1/2) h02 f^2, divided by
sigma_w^2, is the rate of the expected log likelihood ratio.

The gains are computed only here: ``controls.FeedbackPolicy`` tables them
for the Monte Carlo paths and the pointwise controls, ``moment_gains`` reads
K off them, and ``value_rhs`` steps gamma and theta with them.

G is stepped by RK4, and the payoff integrated, only in ``redblue.moments``:
its ``solve_stack`` steps F and then G for the pattern optimizers and the
Stackelberg loop, one pattern or a batch, and its public ``solve_moments``
steps G through the same function, from the curves of
``riccati.solve_value_coeffs``, which steps ``value_rhs``.
The Euler recursions of the network objective and their reverse sweeps, and
the forward-backward sweep's costates, evaluate the same functions and their
transposed-Jacobian products; nothing else restates them.  Each product, and
the payoff gradient, is split by the block it differentiates against: the
suffix ``_s`` is the coefficient block, ``_m`` the moment block and ``_f``
the pattern.  A caller evaluates only the blocks it reads, and can step one
block per node while evaluating another once over all nodes.

K's entries are stated once, in ``moment_gains``, and those of
dG/d(mu, eta, rho) in ``moment_jac_s``; ``GAIN_ROWS`` and ``GAIN_COLS``
place both in their matrices.  Every solve builds these entries once over
its grid, as numpy arrays.  The RK4 solves of G and of the fbs costates
lay them out as matrices of a linear system, whose step maps
``odeint.integrate_linear`` composes; the Euler recursions apply them
through ``moment_rhs`` (K m + sigma), ``moment_vjp_m`` (K^T p) and
``moment_vjp_s``.  Only the Riccati block F, which is nonlinear in its own
state, is evaluated per RK4 stage; the costates read its Jacobian from
``coeff_vjp_s`` at unit covectors.  F's three rates are stated only in
``coeff_rhs``, with ``+``, ``-``, ``*`` and ``/`` on (mu, eta, rho, f) and
the ``Dynamics`` fields.  The Euler recursions call it;
``moments.solve_stack`` hands it to ``odeint.integrate_backward`` with
the pattern as its forcing column, and riccati hands ``value_rhs`` with
the columns f_c, f_d and vbar; odeint traces both on a ``Dynamics`` of
symbolic terms, inlining the methods they call, into RK4 loops.  Likewise
``payoff_coeffs`` states L's coefficients (a, b) once, and ``payoff_from``
and ``payoff_grad_f`` take them.  Every function works elementwise on
floats and on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams

# The places (row, column) of the seven entries of ``moment_gains`` in K,
# and of ``moment_jac_s`` in dG/d(mu, eta, rho), in their order; index a
# (..., 3, 3) array with them to lay the entries out as a matrix.
GAIN_ROWS = (0, 0, 1, 1, 1, 2, 2)
GAIN_COLS = (0, 1, 0, 1, 2, 1, 2)


def misdirection_gain(params: ModelParams) -> float:
    """lam / (r_beta * sigma_w^2), the weight of the pattern in beta-hat.

    Zero misdirection weight short-circuits to 0.0: a valid model whose
    r_beta * sigma_w^2 underflows to 0.0 (r_beta 1e-300, sigma_w 1e-150)
    bounds lam to 0, where the quotient would divide by zero.
    """
    if params.lam == 0.0:
        return 0.0
    return params.lam / (params.r_beta * params.sigma_w**2)


def pattern_curvature(params: ModelParams) -> float:
    """Coefficient of f_c^2 in the rho equation.

    Written in factored form so it is exactly zero at the upper misdirection
    bound lam = r_beta * sigma_w^2, where the coefficient system decouples.
    """
    if params.lam == 0.0:
        return 0.0
    u = misdirection_gain(params)
    return (params.lam / params.sigma_w**2) * (u - 1.0)


@dataclass(frozen=True, slots=True)
class Dynamics:
    """The rates of one parameter set, bound once per solve."""

    r_alpha: float
    r_beta: float
    r_v: float
    u: float
    c2: float
    sb2: float
    sw2: float
    t_v: float
    v0: float
    y0: float

    @classmethod
    def of(cls, params: ModelParams) -> "Dynamics":
        return cls(
            r_alpha=params.r_alpha,
            r_beta=params.r_beta,
            r_v=params.r_v,
            u=misdirection_gain(params),
            c2=pattern_curvature(params),
            sb2=params.sigma_b**2,
            sw2=params.sigma_w**2,
            t_v=params.t_v,
            v0=params.v0,
            y0=params.y0,
        )

    def coeff_terminal(self):
        """(mu, eta, rho) at t = T."""
        return self.t_v, 0.0, 0.0

    def moment_initial(self):
        """(h20, h11, h02) at t = 0."""
        return self.v0**2, self.v0 * self.y0, self.y0**2

    def coeff_rhs(self, mu, eta, rho, f):
        """F: time derivatives of (mu, eta, rho).  The only statement of F:
        ``odeint`` traces these expressions, operands in their order, into
        the generated loops that step F, alone or in ``value_rhs``."""
        ra, rb, u = self.r_alpha, self.r_beta, self.u
        d_mu = mu * mu / ra + eta * eta / rb - 2.0 * eta - self.r_v
        d_eta = mu * eta / ra + rho * eta / rb - rho - u * eta * f
        d_rho = eta * eta / ra + rho * rho / rb - 2.0 * u * rho * f + self.c2 * f * f
        return d_mu, d_eta, d_rho

    def state_gains(self, mu, eta, rho, f):
        """(a_v, a_y, b_v, b_y): the gains of blue's feedback on (V, Y), with
        alpha = a_v V + a_y Y + a_0 and beta = b_v V + b_y Y + b_0."""
        ra, rb = self.r_alpha, self.r_beta
        return -(mu / ra), -(eta / ra), -(eta / rb), self.u * f - rho / rb

    def offset_gains(self, gamma, theta, f_d):
        """(a_0, b_0): the state-free terms of alpha and beta."""
        return -(gamma / self.r_alpha), self.u * f_d - theta / self.r_beta

    def value_rhs(self, mu, eta, rho, gamma, theta, xi, f_c, f_d, vbar):
        """Time derivatives of the six value-function coefficients under
        the forcing f_c, f_d and vbar: F, then the linear and constant terms,
        (gamma, theta)' = -A^T (gamma, theta) plus the forcing of the
        velocity target and the pattern offset."""
        a_v, a_y, b_v, b_y = self.state_gains(mu, eta, rho, f_c)
        ra, rb, r_v, u, c2 = self.r_alpha, self.r_beta, self.r_v, self.u, self.c2
        d_gamma = -(a_v * gamma + (1.0 + b_v) * theta) + r_v * vbar - u * eta * f_d
        d_theta = -(a_y * gamma + b_y * theta) - u * f_d * rho + c2 * f_c * f_d
        d_xi = (
            gamma * gamma / (2.0 * ra)
            + theta * theta / (2.0 * rb)
            - 0.5 * self.sb2 * mu
            - 0.5 * self.sw2 * rho
            - u * f_d * theta
            - 0.5 * r_v * vbar * vbar
            + 0.5 * c2 * f_d * f_d
        )
        return (*self.coeff_rhs(mu, eta, rho, f_c), d_gamma, d_theta, d_xi)

    def moment_gains(self, mu, eta, rho, f):
        """The seven nonzero entries of K, row by row, with G = K m + sigma:
        A, from ``state_gains``, acting on the second moments,

            K = [[2 a_v,   2 a_y,       0    ],
                 [1 + b_v, b_y + a_v,   a_y  ],
                 [0,       2 (1 + b_v), 2 b_y]].

        K m and K^T p built from these entries equal, bit for bit, G and
        its vjp with every factor computed in place from (mu, eta, rho, f),
        outside the subnormal range (and short of overflow).  The in-place
        factors differ from the entries only by exact power-of-two scalings
        and signs: (-2 mu)/r_alpha against 2 a_v = 2 (-(mu/r_alpha)), (2 p3) b
        against p3 (2 b), and (-eta)/r_alpha against a_y = -(eta/r_alpha).
        A negative entry added equals its magnitude subtracted, since x - y
        is x + (-y) in IEEE arithmetic.
        """
        a_v, a_y, b_v, b_y = self.state_gains(mu, eta, rho, f)
        leak = 1.0 + b_v
        return 2.0 * a_v, 2.0 * a_y, leak, b_y + a_v, a_y, 2.0 * leak, 2.0 * b_y

    def moment_rhs(self, h20, h11, h02, gains):
        """G = K m + sigma: time derivatives of (h20, h11, h02), given the
        entries of K from ``moment_gains``."""
        k00, k01, k10, k11, k12, k21, k22 = gains
        d20 = k00 * h20 + k01 * h11 + self.sb2
        d11 = k11 * h11 + k10 * h20 + k12 * h02
        d02 = k21 * h11 + k22 * h02 + self.sw2
        return d20, d11, d02

    def coeff_vjp_s(self, q, mu, eta, rho, f):
        """q . dF/d(mu, eta, rho) for a covector q over (mu, eta, rho)."""
        ra, rb, u = self.r_alpha, self.r_beta, self.u
        q1, q2, q3 = q
        d_mu = q1 * 2.0 * mu / ra + q2 * eta / ra
        d_eta = (
            q1 * (2.0 * eta / rb - 2.0)
            + q2 * (mu / ra + rho / rb - u * f)
            + q3 * 2.0 * eta / ra
        )
        d_rho = q2 * (eta / rb - 1.0) + q3 * (2.0 * rho / rb - 2.0 * u * f)
        return d_mu, d_eta, d_rho

    def coeff_vjp_f(self, q, eta, rho, f):
        """q . dF/df for a covector q over (mu, eta, rho)."""
        u = self.u
        _, q2, q3 = q
        return q2 * (-u * eta) + q3 * (-2.0 * u * rho + 2.0 * self.c2 * f)

    def moment_vjp_m(self, p, gains):
        """p . dG/d(h20, h11, h02) = K^T p for a covector p over h, given
        the entries of K from ``moment_gains``."""
        k00, k01, k10, k11, k12, k21, k22 = gains
        p1, p2, p3 = p
        d_h20 = p1 * k00 + p2 * k10
        d_h11 = p1 * k01 + p2 * k11 + p3 * k21
        d_h02 = p2 * k12 + p3 * k22
        return d_h20, d_h11, d_h02

    def moment_jac_s(self, h20, h11, h02):
        """The seven nonzero entries of dG/d(mu, eta, rho), row by row, in
        the places of K's: dG/d(mu, eta, rho) has K's zero corners.  They
        depend on the state only through m, so a solve builds them once
        over the grid and ``moment_vjp_s`` only applies them."""
        ra, rb = self.r_alpha, self.r_beta
        return (
            -2.0 * h20 / ra,
            -2.0 * h11 / ra,
            -h11 / ra,
            -h20 / rb - h02 / ra,
            -h11 / rb,
            -2.0 * h11 / rb,
            -2.0 * h02 / rb,
        )

    # p . dG/d(mu, eta, rho) for a covector p over h, given the entries of
    # ``moment_jac_s``: the same transposed product as K^T p, since the two
    # matrices share their zero corners
    moment_vjp_s = moment_vjp_m

    def moment_vjp_f(self, p, h11, h02):
        """p . dG/df for a covector p over h."""
        u = self.u
        _, p2, p3 = p
        return p2 * u * h11 + p3 * 2.0 * u * h02

    def payoff_coeffs(self, eta, rho, h11, h02):
        """(a, b) with L = b f + (a/2) f^2, the payoff integrand."""
        a = (2.0 * self.u - 1.0) * h02
        b = -(eta * h11 + rho * h02) / self.r_beta
        return a, b

    def payoff(self, eta, rho, h11, h02, f):
        """L; L / sigma_w^2 is the rate of the expected log likelihood ratio."""
        return self.payoff_from(*self.payoff_coeffs(eta, rho, h11, h02), f)

    @staticmethod
    def payoff_from(a, b, f):
        """L from the coefficients (a, b) of ``payoff_coeffs``."""
        return b * f + 0.5 * a * f * f

    def payoff_grad_s(self, h11, h02, f):
        """dL/d(eta, rho); L does not depend on mu."""
        rb = self.r_beta
        return -h11 * f / rb, -h02 * f / rb

    def payoff_grad_m(self, eta, rho, f):
        """dL/d(h11, h02); L does not depend on h20."""
        rb = self.r_beta
        return -eta * f / rb, -rho * f / rb + (self.u - 0.5) * f * f

    @staticmethod
    def payoff_grad_f(a, b, f):
        """dL/df from the coefficients (a, b) of ``payoff_coeffs``."""
        return b + a * f
