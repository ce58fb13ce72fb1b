"""The moment block's per-stage forms that the K tables replaced, kept as the
reference: each evaluation restates K's entries from (mu, eta, rho, f), and
dG/d(mu, eta, rho) from m, in the operand order they were written in."""


def moment_rhs(dyn, h20, h11, h02, mu, eta, rho, f):
    ra, rb, u = dyn.r_alpha, dyn.r_beta, dyn.u
    d20 = -2.0 * (mu / ra) * h20 - 2.0 * (eta / ra) * h11 + dyn.sb2
    d11 = (u * f - rho / rb - mu / ra) * h11 + (1.0 - eta / rb) * h20 - (eta / ra) * h02
    d02 = 2.0 * (1.0 - eta / rb) * h11 + 2.0 * (u * f - rho / rb) * h02 + dyn.sw2
    return d20, d11, d02


def moment_vjp_m(dyn, p, mu, eta, rho, f):
    ra, rb, u = dyn.r_alpha, dyn.r_beta, dyn.u
    p1, p2, p3 = p
    d_h20 = p1 * (-2.0 * mu / ra) + p2 * (1.0 - eta / rb)
    d_h11 = (
        p1 * (-2.0 * eta / ra)
        + p2 * (u * f - rho / rb - mu / ra)
        + p3 * 2.0 * (1.0 - eta / rb)
    )
    d_h02 = p2 * (-eta / ra) + p3 * 2.0 * (u * f - rho / rb)
    return d_h20, d_h11, d_h02


def moment_vjp_s(dyn, p, h20, h11, h02):
    ra, rb = dyn.r_alpha, dyn.r_beta
    p1, p2, p3 = p
    d_mu = p1 * (-2.0 * h20 / ra) + p2 * (-h11 / ra)
    d_eta = p1 * (-2.0 * h11 / ra) + p2 * (-h20 / rb - h02 / ra) + p3 * (-2.0 * h11 / rb)
    d_rho = p2 * (-h11 / rb) + p3 * (-2.0 * h02 / rb)
    return d_mu, d_eta, d_rho
