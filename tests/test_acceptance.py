"""End-to-end acceptance suite.

One test per numbered criterion; each prints a single PASS/FAIL line
(visible under ``pytest -s``) and asserts the same condition.  Seeds are
frozen so every run checks identical numbers.
"""

import functools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from redblue import (
    Affine,
    Constant,
    FeedbackPolicy,
    GridConfig,
    Pattern,
    RedConfig,
    Sinusoid,
    baseline_summary,
    expected_log_lr,
    monte_carlo,
    play_rounds,
    solve_moments,
    solve_red,
    solve_value_coeffs,
)
from redblue.cli import main as cli_main
from redblue.controls import optimal_beta
from redblue.red.euler import euler_objective_and_gradient
from redblue.red.nn import init_network, nn_forward, nn_gradient
from redblue.red.objective import solve_stack
from redblue.sde import log_lr_samples, sample_paths
from conftest import make_params, random_params, tracking_params

ZERO = Pattern(Constant(0.0), Constant(0.0))
SHORT_GRID = GridConfig(200, 0.1)


def _verdict(index: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {index:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _random_pattern(rng) -> Pattern:
    return Pattern(
        Sinusoid(rng.uniform(0.2, 1.0), rng.uniform(1.0, 9.0)),
        Affine(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
    )


@functools.lru_cache(maxsize=None)
def optimizer_report(solver: str, penalty: str, lam_reg: float):
    """Shared cache: criteria 3 and 4 reuse the same twelve solver runs."""
    config = RedConfig(lambda_reg=lam_reg, penalty_kind=penalty, solver=solver)
    return solve_red(make_params(lam=0.1), config, SHORT_GRID, 11)


def test_criterion_01_tracking_tradeoff_table():
    grid = GridConfig(1000, 1.0)
    pattern = Pattern(Sinusoid(1.0, 10.0 * math.pi), Constant(0.0))
    cost_targets = [0.33, 0.44, 0.78, 1.32]
    payoff_targets = [-96.98, -87.26, -78.14, -69.55]
    ok = True
    details = []
    for lam, jp, el in zip([0.0, 0.025, 0.05, 0.075], cost_targets, payoff_targets):
        params = tracking_params(lam)
        policy = FeedbackPolicy.solve(params, pattern, grid)
        mc = monte_carlo(policy, pattern, grid, 10000, 777)
        jp_tol = max(0.05 * abs(jp), 3.0 * mc.se_primary_cost)
        el_tol = max(0.03 * abs(el), 3.0 * mc.se_log_lr)
        ok = (
            ok
            and abs(mc.mean_primary_cost - jp) <= jp_tol
            and abs(mc.mean_log_lr - el) <= el_tol
        )
        details.append(f"{mc.mean_primary_cost:.3f}/{mc.mean_log_lr:.2f}")
    _verdict(1, "misdirection trade-off table", ok, " ".join(details))


def test_criterion_02_fixed_pattern_payoff_value():
    params = make_params(lam=0.1)
    f_c = Constant(1.0)
    coeffs = solve_value_coeffs(params, Pattern(f_c, Constant(0.0)), SHORT_GRID)
    moments = solve_moments(params, coeffs, f_c, SHORT_GRID)
    elr = expected_log_lr(params, coeffs, f_c, moments, SHORT_GRID)
    rel = abs(elr - 23.21) / 23.21
    _verdict(2, "unit-pattern payoff 23.21", rel <= 0.01, f"value {elr:.4f}")


def test_criterion_03_optimized_payoff_values():
    targets = {
        ("logarithmic", 0.1): 0.50,
        ("logarithmic", 1.0): 5.00,
        ("quadratic", 0.1): 0.04,
        ("quadratic", 1.0): 2.17,
    }
    ok = True
    worst = 0.0
    for solver in ("fpi", "fbs", "nn"):
        for (penalty, lam_reg), target in targets.items():
            report = optimizer_report(solver, penalty, lam_reg)
            if solver == "nn":
                tol = 0.20 * abs(target)
            else:
                tol = max(0.10 * abs(target), 0.05)
            gap = abs(report.final_expected_log_lr - target)
            ok = ok and report.converged and gap <= tol
            worst = max(worst, gap / tol)
    _verdict(3, "optimized payoff values", ok, f"worst margin {worst:.2f} of budget")


def test_criterion_04_solver_consistency():
    ok = True
    worst_fpi = worst_nn = 0.0
    for penalty in ("logarithmic", "quadratic"):
        for lam_reg in (0.1, 1.0):
            fbs = optimizer_report("fbs", penalty, lam_reg).f_c.values
            scale = math.sqrt(float(np.mean(fbs**2)))
            for solver, limit in (("fpi", 0.05), ("nn", 0.10)):
                other = optimizer_report(solver, penalty, lam_reg).f_c.values
                dist = math.sqrt(float(np.mean((other - fbs) ** 2))) / scale
                ok = ok and dist <= limit
                if solver == "fpi":
                    worst_fpi = max(worst_fpi, dist)
                else:
                    worst_nn = max(worst_nn, dist)
    _verdict(
        4,
        "solver consistency",
        ok,
        f"fpi-fbs {worst_fpi:.4f} (<=0.05), nn-fbs {worst_nn:.4f} (<=0.10)",
    )


def test_criterion_05_no_coupling_without_misdirection():
    rng = np.random.default_rng(5501)
    worst_coeff = worst_beta = 0.0
    for draw in range(50):
        if draw < 25:
            params = random_params(rng, "zero")
            pattern = _random_pattern(rng)
        else:
            params = random_params(rng, "any")
            pattern = ZERO
        grid = GridConfig(120, params.horizon)
        coeffs = solve_value_coeffs(params, pattern, grid)
        worst_coeff = max(
            worst_coeff,
            float(np.max(np.abs(coeffs.eta))),
            float(np.max(np.abs(coeffs.rho))),
            float(np.max(np.abs(coeffs.theta))),
        )
        policy = FeedbackPolicy.solve(params, pattern, grid)
        for _ in range(100):
            beta = optimal_beta(
                policy,
                rng.uniform(0.0, params.horizon),
                rng.uniform(-3.0, 3.0),
                rng.uniform(-3.0, 3.0),
            )
            worst_beta = max(worst_beta, abs(beta))
    ok = worst_coeff < 1e-8 and worst_beta < 1e-8
    _verdict(
        5,
        "zero offset without misdirection",
        ok,
        f"max coeff {worst_coeff:.1e}, max beta {worst_beta:.1e}",
    )


def test_criterion_06_full_intensity_decoupling():
    rng = np.random.default_rng(6601)
    worst = 0.0
    for _ in range(50):
        params = random_params(rng, "full")
        pattern = _random_pattern(rng)
        grid = GridConfig(120, params.horizon)
        policy = FeedbackPolicy.solve(params, pattern, grid)
        for _ in range(100):
            t = rng.uniform(0.0, params.horizon)
            v = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-3.0, 3.0)
            gap = optimal_beta(policy, t, v, y) - (pattern.f_c(t) * y + pattern.f_d(t))
            worst = max(worst, abs(gap))
    _verdict(6, "full-intensity decoupling", worst < 1e-8, f"max gap {worst:.1e}")


_TIME_FUNCTIONS = st.one_of(
    st.builds(Constant, st.floats(-3.0, 3.0)),
    st.builds(Affine, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.builds(
        Sinusoid, st.floats(-3.0, 3.0), st.floats(0.0, 20.0), st.floats(-3.0, 3.0)
    ),
)
_PATTERNS = st.builds(Pattern, _TIME_FUNCTIONS, _TIME_FUNCTIONS)
# (fraction of the horizon, v, y)
_POINTS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    min_size=1,
    max_size=20,
)


def _decoupled_policy(params, pattern, n_steps):
    """The solved policy, after checking that eta, rho and theta are
    identically zero, which the arithmetic keeps exactly: every term of
    their equations carries one of the three or c2 f, and c2 f is zero at
    lam = 0, for the zero pattern and at the upper bound."""
    grid = GridConfig(n_steps, params.horizon)
    policy = FeedbackPolicy.solve(params, pattern, grid)
    for curve in (policy.coeffs.eta, policy.coeffs.rho, policy.coeffs.theta):
        assert np.all(curve == 0.0)
    return policy


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    zero_lam=st.booleans(),
    pattern=_PATTERNS,
    n_steps=st.integers(2, 150),
    points=_POINTS,
)
def test_no_coupling_without_misdirection(seed, zero_lam, pattern, n_steps, points):
    # criterion 05 as a property: at lam = 0 with any pattern, and at any
    # lam with the zero pattern, beta vanishes exactly
    rng = np.random.default_rng(seed)
    if zero_lam:
        params = random_params(rng, "zero")
    else:
        params, pattern = random_params(rng, "any"), ZERO
    policy = _decoupled_policy(params, pattern, n_steps)
    for frac, v, y in points:
        assert optimal_beta(policy, frac * params.horizon, v, y) == 0.0


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    pattern=_PATTERNS,
    n_steps=st.integers(2, 150),
    points=_POINTS,
)
def test_full_intensity_beta_is_the_pattern_drift(seed, pattern, n_steps, points):
    # criterion 06 as a property: at lam = r_beta sigma_w^2 the gain u is
    # exactly 1 and c2 exactly 0, so beta is f_c(t) y + f_d(t) exactly
    params = random_params(np.random.default_rng(seed), "full")
    policy = _decoupled_policy(params, pattern, n_steps)
    for frac, v, y in points:
        t = frac * params.horizon
        assert optimal_beta(policy, t, v, y) == pattern.f_c(t) * y + pattern.f_d(t)


def zero_pattern_probe(params, grid, directions, step=1e-5):
    """(largest central difference at any node, smallest rise along the
    directions) of the payoff at the zero pattern, from one batched solve:
    the zero pattern, each node bumped up then down, then the directions."""
    n1 = grid.n_steps + 1
    rows = [np.zeros(n1)]
    for k in range(n1):
        for value in (step, -step):
            bump = np.zeros(n1)
            bump[k] = value
            rows.append(bump)
    j0, *rest = solve_stack(params, np.array(rows + directions), grid)[1].tolist()
    grad = max(
        abs(up - down) / (2.0 * step)
        for up, down in zip(rest[0 : 2 * n1 : 2], rest[1 : 2 * n1 : 2])
    )
    return grad, min(value - j0 for value in rest[2 * n1 :])


def unit_directions(rng, count, size):
    directions = []
    for _ in range(count):
        direction = rng.standard_normal(size)
        direction /= np.linalg.norm(direction)
        directions.append(1e-2 * direction)
    return directions


def test_criterion_07_zero_pattern_local_minimum():
    rng = np.random.default_rng(7701)
    worst_grad = 0.0
    min_rise = math.inf
    for _ in range(10):
        params = replace(
            random_params(rng, "upper"), vbar=Constant(0.0), vbar_final=0.0
        )
        grid = GridConfig(100, params.horizon)
        directions = unit_directions(rng, 10, grid.n_steps + 1)
        grad, rise = zero_pattern_probe(params, grid, directions)
        worst_grad = max(worst_grad, grad)
        min_rise = min(min_rise, rise)
    ok = worst_grad < 1e-4 and min_rise > 0.0
    _verdict(
        7,
        "zero pattern is a local minimum",
        ok,
        f"max |grad| {worst_grad:.1e}, min rise {min_rise:.1e}",
    )


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(4, 60))
def test_zero_pattern_is_a_local_minimum_in_the_upper_range(seed, n_steps):
    # criterion 07 as a property: stationary at every node, and the payoff
    # rises along random directions
    rng = np.random.default_rng(seed)
    params = replace(random_params(rng, "upper"), vbar=Constant(0.0), vbar_final=0.0)
    grid = GridConfig(n_steps, params.horizon)
    grad, rise = zero_pattern_probe(params, grid, unit_directions(rng, 5, n_steps + 1))
    assert grad <= 1e-4
    assert rise > 0.0


def test_criterion_08_monte_carlo_cross_oracle():
    rng = np.random.default_rng(8801)
    ok = True
    worst = 0.0
    for draw in range(10):
        params = replace(random_params(rng, "any"), vbar=Constant(0.0), vbar_final=0.0)
        f_c = Sinusoid(rng.uniform(0.2, 0.8), rng.uniform(2.0, 8.0))
        grid = GridConfig(800, params.horizon)
        pattern = Pattern(f_c, Constant(0.0))
        policy = FeedbackPolicy.solve(params, pattern, grid)
        coeffs = solve_value_coeffs(params, pattern, grid)
        moments = solve_moments(params, coeffs, f_c, grid)
        elr = expected_log_lr(params, coeffs, f_c, moments, grid)
        mc = monte_carlo(policy, pattern, grid, 10000, 880 + draw)
        ratio = abs(mc.mean_log_lr - elr) / (3.0 * mc.se_log_lr)
        ok = ok and ratio <= 1.0
        worst = max(worst, ratio)
        v, y = sample_paths(policy, grid, 10000, 880 + draw)
        nodes = np.linspace(grid.n_steps // 5, grid.n_steps, 5).astype(int)
        for k in nodes:
            pairs = (
                (v[:, k] * v[:, k], moments.h20[k]),
                (v[:, k] * y[:, k], moments.h11[k]),
                (y[:, k] * y[:, k], moments.h02[k]),
            )
            for samples, target in pairs:
                se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
                ratio = abs(float(np.mean(samples)) - target) / (3.0 * se)
                ok = ok and ratio <= 1.0
                worst = max(worst, ratio)
    _verdict(8, "Monte Carlo cross-oracle", ok, f"worst 3-se ratio {worst:.2f}")


def test_criterion_09_martingale_normalization():
    params = make_params(lam=0.1)
    policy = FeedbackPolicy.solve(params, ZERO, SHORT_GRID)
    test_pattern = Pattern(Constant(0.05), Constant(0.0))
    samples = np.exp(log_lr_samples(policy, test_pattern, SHORT_GRID, 20000, 99))
    se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    mean = float(np.mean(samples))
    ok = abs(mean - 1.0) <= 3.0 * se
    _verdict(9, "likelihood ratio normalization", ok, f"mean {mean:.4f}, se {se:.1e}")


def test_criterion_10_network_gradient_check():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for case in range(5):
        params = random_params(rng, "any")
        penalty = "logarithmic" if case % 2 else "quadratic"
        config = RedConfig(
            lambda_reg=rng.uniform(0.2, 2.0), penalty_kind=penalty, solver="nn"
        )
        grid = GridConfig(30, params.horizon)
        net = init_network(seed=1000 + case, positive_output=penalty == "logarithmic")
        weight_grads, _ = nn_gradient(net, params, config, grid)

        def objective():
            f = nn_forward(net, grid.times())
            return euler_objective_and_gradient(f, params, config, grid)[0]

        picked = 0
        while picked < 4:
            layer = int(rng.integers(0, 4))
            w = net.weights[layer]
            i = int(rng.integers(0, w.shape[0]))
            j = int(rng.integers(0, w.shape[1]))
            analytic = weight_grads[layer][i, j]
            # finite differences cannot resolve near-zero entries
            if abs(analytic) < 1e-6:
                continue
            step = 1e-5 * max(1.0, abs(w[i, j]))
            orig = w[i, j]
            w[i, j] = orig + step
            up = objective()
            w[i, j] = orig - step
            down = objective()
            w[i, j] = orig
            fd = (up - down) / (2.0 * step)
            worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic)))
            picked += 1
    _verdict(10, "network gradient check", worst < 1e-4, f"worst rel {worst:.1e}")


def test_criterion_11_round_trend_toward_baseline():
    params = make_params(sigma_b=0.15, sigma_w=0.15, lam=0.2)
    config = RedConfig(lambda_reg=1.5, penalty_kind="quadratic", solver="nn")
    records = play_rounds(
        params, Affine(0.6, -20.0), config, 3, 10000, 2026, SHORT_GRID
    )
    base = baseline_summary(params, SHORT_GRID, 10000, 2026)
    payoffs = [abs(r.mc.mean_log_lr) for r in records]
    gaps = [abs(r.mc.mean_primary_cost - base.mean_primary_cost) for r in records]
    ok = (
        payoffs[0] > payoffs[1] > payoffs[2]
        and gaps[0] > gaps[1] > gaps[2]
        and payoffs[2] <= 0.15 * payoffs[0]
        and gaps[2] <= 0.15 * base.mean_primary_cost
    )
    detail = (
        f"|payoff| {payoffs[0]:.3f}->{payoffs[2]:.3f}, "
        f"cost gap {gaps[0]:.3f}->{gaps[2]:.3f}, baseline {base.mean_primary_cost:.3f}"
    )
    _verdict(11, "rounds approach the baseline", ok, detail)


def _dir_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_12_deterministic_outputs(tmp_path):
    doc = {
        "model.T": 0.1,
        "model.sigma_B": 0.1,
        "model.sigma_W": 0.1,
        "model.r_alpha": 1.0,
        "model.r_beta": 10.0,
        "model.r_v": 1.0,
        "model.t_v": 1.0,
        "model.lambda": 0.08,
        "model.v0": 1.0,
        "model.y0": 2.0,
        "grid.n_steps": 40,
        "pattern.f_c": "sinusoid:0.5,20",
        "mc.n_paths": 96,
        "mc.sample_trajectories": 2,
        "red.max_iters": 30,
        "stackelberg.n_rounds": 2,
        "seed": 6,
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    ok = True
    for command in ("blue-solve", "red-optimize", "stackelberg"):
        outputs = []
        for run, threads in enumerate(("1", "4", "1")):
            out = tmp_path / f"{command}-{run}"
            code = cli_main(
                [
                    command,
                    "--config",
                    str(config_path),
                    "--out",
                    str(out),
                    "--threads",
                    threads,
                ]
            )
            ok = ok and code == 0
            outputs.append(_dir_bytes(out))
        ok = ok and outputs[0] == outputs[1] == outputs[2]
    _verdict(12, "byte-identical reruns", ok, "3 commands x threads 1/4/1")
