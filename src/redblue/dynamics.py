"""The model's equations, stated once.

Under a pattern f = f_c(t) (zero offset, zero velocity targets) the blue
solution is one system of ODEs in the coefficient block s = (mu, eta, rho),
solved backward from s(T) = (t_v, 0, 0), and the second-moment block
m = (h20, h11, h02), solved forward from m(0) = (v0^2, v0 y0, y0^2):

    F:  mu'  = mu^2/r_alpha + eta^2/r_beta - 2 eta - r_v
        eta' = mu eta/r_alpha + rho eta/r_beta - rho - u eta f
        rho' = eta^2/r_alpha + rho^2/r_beta - 2 u rho f + c2 f^2

    G:  h20' = -2 (mu/r_alpha) h20 - 2 (eta/r_alpha) h11 + sigma_b^2
        h11' = (u f - rho/r_beta - mu/r_alpha) h11 + (1 - eta/r_beta) h20
               - (eta/r_alpha) h02
        h02' = 2 (1 - eta/r_beta) h11 + 2 (u f - rho/r_beta) h02 + sigma_w^2

with u = lam/(r_beta sigma_w^2) and c2 = (lam/sigma_w^2)(u - 1).  The payoff
integrand L = -(eta h11 + rho h02) f/r_beta + (u - 1/2) h02 f^2, divided by
sigma_w^2, is the rate of the expected log likelihood ratio.

F and G are stepped by RK4 in two places: ``red.objective.solve_stack``
integrates them directly for the pattern optimizers, one pattern or a batch,
and the public ``riccati.solve_value_coeffs`` and ``moments.solve_moments``
integrate them for one pattern, F alongside the gamma, theta and xi lines.
The Euler recursions of the network objective and their reverse sweeps, and
the forward-backward sweep's costates, evaluate the same functions and their
transposed-Jacobian products; nothing else restates them.  Every function
works elementwise on floats and on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams


def misdirection_gain(params: ModelParams) -> float:
    """lam / (r_beta * sigma_w^2), the weight of the pattern in beta-hat.

    Zero misdirection weight short-circuits to 0.0, which keeps degenerate
    sigma_w = 0 parameter sets usable in deterministic simulation tests.
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
        """F: time derivatives of (mu, eta, rho)."""
        ra, rb, u = self.r_alpha, self.r_beta, self.u
        d_mu = mu * mu / ra + eta * eta / rb - 2.0 * eta - self.r_v
        d_eta = mu * eta / ra + rho * eta / rb - rho - u * eta * f
        d_rho = eta * eta / ra + rho * rho / rb - 2.0 * u * rho * f + self.c2 * f * f
        return d_mu, d_eta, d_rho

    def moment_rhs(self, h20, h11, h02, mu, eta, rho, f):
        """G: time derivatives of (h20, h11, h02)."""
        ra, rb, u = self.r_alpha, self.r_beta, self.u
        d20 = -2.0 * (mu / ra) * h20 - 2.0 * (eta / ra) * h11 + self.sb2
        d11 = (u * f - rho / rb - mu / ra) * h11 + (1.0 - eta / rb) * h20 - (eta / ra) * h02
        d02 = 2.0 * (1.0 - eta / rb) * h11 + 2.0 * (u * f - rho / rb) * h02 + self.sw2
        return d20, d11, d02

    def coeff_vjp(self, q, mu, eta, rho, f):
        """q . dF/d(mu, eta, rho, f) for a covector q over (mu, eta, rho)."""
        ra, rb, u = self.r_alpha, self.r_beta, self.u
        q1, q2, q3 = q
        d_mu = q1 * 2.0 * mu / ra + q2 * eta / ra
        d_eta = (
            q1 * (2.0 * eta / rb - 2.0)
            + q2 * (mu / ra + rho / rb - u * f)
            + q3 * 2.0 * eta / ra
        )
        d_rho = q2 * (eta / rb - 1.0) + q3 * (2.0 * rho / rb - 2.0 * u * f)
        d_f = q2 * (-u * eta) + q3 * (-2.0 * u * rho + 2.0 * self.c2 * f)
        return d_mu, d_eta, d_rho, d_f

    def moment_vjp(self, p, h20, h11, h02, mu, eta, rho, f):
        """p . dG/d(h20, h11, h02, mu, eta, rho, f) for a covector p over h."""
        ra, rb, u = self.r_alpha, self.r_beta, self.u
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

    def payoff_coeffs(self, eta, rho, h11, h02):
        """(a, b) with L = b f + (a/2) f^2, the payoff integrand."""
        a = (2.0 * self.u - 1.0) * h02
        b = -(eta * h11 + rho * h02) / self.r_beta
        return a, b

    def payoff(self, eta, rho, h11, h02, f):
        """L; L / sigma_w^2 is the rate of the expected log likelihood ratio."""
        a, b = self.payoff_coeffs(eta, rho, h11, h02)
        return b * f + 0.5 * a * f * f

    def payoff_grad(self, eta, rho, h11, h02, f):
        """dL/d(eta, rho, h11, h02, f)."""
        rb = self.r_beta
        a, b = self.payoff_coeffs(eta, rho, h11, h02)
        d_eta = -h11 * f / rb
        d_rho = -h02 * f / rb
        d_h11 = -eta * f / rb
        d_h02 = -rho * f / rb + (self.u - 0.5) * f * f
        return d_eta, d_rho, d_h11, d_h02, b + a * f
