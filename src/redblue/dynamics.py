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

This module states rates and nothing else, each once, with ``+``, ``-``,
``*`` and ``/`` on its arguments and the ``Dynamics`` fields, dividing
only by fields and constants: F in ``coeff_rhs``, G in ``moment_rhs``, the
six value lines in ``value_rhs`` and L in ``payoff``, from its
coefficients (a, b) in ``payoff_coeffs``.  The gains are computed only in
``state_gains`` and ``offset_gains``, which ``controls.FeedbackPolicy``
tables for the paths and the controls.  ``odeint`` traces the rates on a
``Dynamics`` of symbolic terms, inlining the methods they call, into the
RK4 loops of ``integrate_backward`` and into every derivative the package
reads, through ``jacobian``: K = dG/dm for ``redblue.moments``, and F's,
G's and L's Jacobians for the fbs costates and the Euler sweeps of
``redblue.red``.  Every function works elementwise on floats and on numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams


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
        the generated loops that step F, alone or in ``value_rhs``, and
        into F's Jacobian."""
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

    def moment_rhs(self, h20, h11, h02, mu, eta, rho, f):
        """G: time derivatives of (h20, h11, h02), K m + sigma with A from
        ``state_gains``,

            K = [[2 a_v,   2 a_y,       0    ],
                 [1 + b_v, b_y + a_v,   a_y  ],
                 [0,       2 (1 + b_v), 2 b_y]].

        ``odeint.jacobian`` reads K off these expressions as dG/dm, each
        entry the factor written here, and dG/d(mu, eta, rho, f) beside it.
        """
        a_v, a_y, b_v, b_y = self.state_gains(mu, eta, rho, f)
        leak = 1.0 + b_v
        d20 = 2.0 * a_v * h20 + 2.0 * a_y * h11 + self.sb2
        d11 = (b_y + a_v) * h11 + leak * h20 + a_y * h02
        d02 = 2.0 * leak * h11 + 2.0 * b_y * h02 + self.sw2
        return d20, d11, d02

    def payoff_coeffs(self, eta, rho, h11, h02):
        """(a, b) with L = b f + (a/2) f^2, the payoff integrand."""
        a = (2.0 * self.u - 1.0) * h02
        b = -(eta * h11 + rho * h02) / self.r_beta
        return a, b

    def payoff(self, eta, rho, h11, h02, f):
        """L; L / sigma_w^2 is the rate of the expected log likelihood ratio."""
        a, b = self.payoff_coeffs(eta, rho, h11, h02)
        return b * f + 0.5 * a * f * f
