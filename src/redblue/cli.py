"""Command-line front end: config loading, experiment commands, file output.

Config files are flat JSON documents with dotted keys ("model.sigma_W",
"grid.n_steps", ...).  Every output is a pure function of (config, seed):
CSV cells are printed with 17 significant digits and '\\n' line endings,
JSON is dumped with sorted keys, so reruns are byte-identical.

Exit codes: 0 success (a non-converged optimizer report is data, not an
error), 1 usage or config problem, or an output path that cannot be
written, 2 numeric failure during a run, or an array too large to allocate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .controls import FeedbackPolicy, optimal_beta
from .errors import NonFiniteStateError, RedBlueError
from .model import (
    Affine,
    Constant,
    GridConfig,
    GridSampled,
    ModelParams,
    Pattern,
    Sinusoid,
    TimeFunction,
    ZERO_PATTERN,
    grid_function,
    sample_on_grid,
    validate_params,
)
from .moments import expected_log_lr, solve_moments, solve_stack
from .red import RedConfig, solve_red
from .riccati import solve_value_coeffs
from .sde import Trajectory, log_lr_samples, mix_seed, monte_carlo
from .stackelberg import baseline_summary, play_rounds


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    grid: GridConfig
    pattern: Pattern
    red: RedConfig
    n_paths: int
    n_sample: int
    n_rounds: int
    seed: int
    threads: int
    out_dir: Path


_REQUIRED = object()

# key -> (kind, default, owner, field, least); kind in {"float", "int", "str",
# "tf", "path"}.  A None default leaves the field to the owner's own default;
# a None least means no lower bound.
_KEYS = {
    "model.T": ("float", _REQUIRED, GridConfig, "horizon", None),
    "model.sigma_B": ("float", _REQUIRED, ModelParams, "sigma_b", None),
    "model.sigma_W": ("float", _REQUIRED, ModelParams, "sigma_w", None),
    "model.r_alpha": ("float", _REQUIRED, ModelParams, "r_alpha", None),
    "model.r_beta": ("float", _REQUIRED, ModelParams, "r_beta", None),
    "model.r_v": ("float", _REQUIRED, ModelParams, "r_v", None),
    "model.t_v": ("float", _REQUIRED, ModelParams, "t_v", None),
    "model.vbar": ("tf", "constant:0", ModelParams, "vbar", None),
    "model.vbar_T": ("float", 0.0, ModelParams, "vbar_final", None),
    "model.lambda": ("float", _REQUIRED, ModelParams, "lam", None),
    "model.v0": ("float", _REQUIRED, ModelParams, "v0", None),
    "model.y0": ("float", _REQUIRED, ModelParams, "y0", None),
    "grid.n_steps": ("int", _REQUIRED, GridConfig, "n_steps", None),
    "pattern.f_c": ("tf", "constant:0", Pattern, "f_c", None),
    "pattern.f_d": ("tf", "constant:0", Pattern, "f_d", None),
    "red.penalty": ("str", None, RedConfig, "penalty_kind", None),
    "red.lambda_reg": ("float", 1.0, RedConfig, "lambda_reg", None),
    "red.solver": ("str", None, RedConfig, "solver", None),
    "red.f_c_initial": ("tf", None, RedConfig, "f_c_initial", None),
    "red.tolerance": ("float", None, RedConfig, "tolerance", None),
    "red.max_iters": ("int", None, RedConfig, "max_iters", None),
    "red.relaxation": ("float", None, RedConfig, "fbs_relaxation", None),
    "mc.n_paths": ("int", 1000, RunConfig, "n_paths", 2),
    "mc.sample_trajectories": ("int", 3, RunConfig, "n_sample", 0),
    "stackelberg.n_rounds": ("int", 1, RunConfig, "n_rounds", 1),
    "seed": ("int", 0, RunConfig, "seed", 0),
    "threads": ("int", 1, RunConfig, "threads", 1),
    "out_dir": ("path", "out", RunConfig, "out_dir", None),
}


def parse_time_function(text, horizon: float, key: str) -> TimeFunction:
    """Parse "constant:c", "affine:a,b", "sinusoid:amp,omega[,phase]",
    "grid:v0,v1,...".  A bare number is shorthand for a constant."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return Constant(_finite(key, text))
    if not isinstance(text, str):
        raise ConfigError(f"{key}: expected a string or number")
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    try:
        args = [float(p) for p in rest.split(",")] if rest.strip() else []
    except ValueError:
        raise ConfigError(f"{key}: non-numeric argument in {text!r}") from None
    if not all(map(math.isfinite, args)):
        raise ConfigError(f"{key}: non-finite argument in {text!r}")
    if kind == "constant" and len(args) == 1:
        return Constant(args[0])
    if kind == "affine" and len(args) == 2:
        return Affine(args[0], args[1])
    if kind == "sinusoid" and len(args) in (2, 3):
        phase = args[2] if len(args) == 3 else 0.0
        return Sinusoid(args[0], args[1], phase)
    if kind == "grid" and len(args) >= 2:
        return GridSampled(np.asarray(args), horizon)
    raise ConfigError(f"{key}: cannot parse time function {text!r}")


def _finite(key: str, value) -> float:
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value}")
    return x


def _coerce(key: str, kind: str, value):
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number")
        return _finite(key, value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer")
        return value
    if kind in ("str", "path"):
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string")
        return value
    return value  # "tf": parsed later, once the horizon is known


def build_run_config(
    doc: dict,
    seed: int | None = None,
    threads: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - set(_KEYS))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    missing = sorted(
        k for k, (_, dflt, *_) in _KEYS.items() if dflt is _REQUIRED and k not in doc
    )
    if missing:
        raise ConfigError("missing required config keys: " + ", ".join(missing))
    raw = {
        key: _coerce(key, kind, doc.get(key, dflt))
        for key, (kind, dflt, *_) in _KEYS.items()
        if key in doc or dflt is not None
    }
    flags = {"seed": seed, "threads": threads, "out_dir": out_dir}
    raw.update((key, value) for key, value in flags.items() if value is not None)

    horizon = raw["model.T"]
    if not (isinstance(horizon, float) and horizon > 0.0):
        raise ConfigError("model.T must be a positive number")

    def build(owner, **fields):
        # time functions are parsed here, object by object, so that each
        # error is raised where the object that reads it is built
        for key, (kind, _, cls, field, _) in _KEYS.items():
            if cls is owner and key in raw:
                value = raw[key]
                if kind == "tf":
                    value = parse_time_function(value, horizon, key)
                fields[field] = Path(value) if kind == "path" else value
        return owner(**fields)

    params = validate_params(build(ModelParams))
    grid = build(GridConfig)
    pattern = build(Pattern)
    red = build(RedConfig)
    for key, (*_, least) in _KEYS.items():
        if least is not None and raw[key] < least:
            raise ConfigError(f"{key} must be >= {least}")
    return build(RunConfig, params=params, grid=grid, pattern=pattern, red=red)


# ---------------------------------------------------------------------------
# file writers


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    """Raises ValueError, before opening the file, on a NaN or infinity."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# SVG plots (optional; line charts only, no external tooling)

_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_SVG_W, _SVG_H = 640, 420
_SVG_L, _SVG_R, _SVG_T, _SVG_B = 64, 16, 36, 48


def _svg_line_chart(title: str, xlabel: str, ylabel: str, curves) -> str:
    """curves: list of (label, x array, y array)."""
    xs = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    ys = np.concatenate([np.asarray(c[2], dtype=float) for c in curves])
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    if xmax == xmin:
        xmax = xmin + 1.0
    pad = 0.05 * (ymax - ymin) if ymax > ymin else 1.0
    ymin, ymax = ymin - pad, ymax + pad
    iw = _SVG_W - _SVG_L - _SVG_R
    ih = _SVG_H - _SVG_T - _SVG_B

    def sx(x):
        return _SVG_L + (x - xmin) * iw / (xmax - xmin)

    def sy(y):
        return _SVG_H - _SVG_B - (y - ymin) * ih / (ymax - ymin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_SVG_L}" y="{_SVG_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_SVG_W / 2:.2f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{_SVG_W / 2:.2f}" y="{_SVG_H - 10}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_SVG_T + ih / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_SVG_T + ih / 2:.2f})">{ylabel}</text>',
    ]
    for i in range(5):
        tx = xmin + i * (xmax - xmin) / 4
        ty = ymin + i * (ymax - ymin) / 4
        px, py = sx(tx), sy(ty)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_SVG_H - _SVG_B}" x2="{px:.2f}" '
            f'y2="{_SVG_H - _SVG_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_SVG_H - _SVG_B + 18}" '
            f'text-anchor="middle">{tx:.4g}</text>'
        )
        parts.append(
            f'<line x1="{_SVG_L - 5}" y1="{py:.2f}" x2="{_SVG_L}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_SVG_L - 8}" y="{py + 4:.2f}" '
            f'text-anchor="end">{ty:.4g}</text>'
        )
    for i, (label, cx, cy) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(cx, cy)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        if label:
            ly = _SVG_T + 16 + 16 * i
            parts.append(
                f'<line x1="{_SVG_L + iw - 90}" y1="{ly - 4}" '
                f'x2="{_SVG_L + iw - 70}" y2="{ly - 4}" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{_SVG_L + iw - 64}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: Path, title, xlabel, ylabel, curves) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_svg_line_chart(title, xlabel, ylabel, curves))


def _plot_trajectories(out: Path, trajectories: tuple[Trajectory, ...]) -> None:
    if not trajectories:
        return
    states = []
    controls = []
    for pid, traj in enumerate(trajectories):
        states.append((f"V path {pid}", traj.times, traj.v_path))
        states.append((f"Y path {pid}", traj.times, traj.y_path))
        controls.append((f"alpha path {pid}", traj.times[:-1], traj.alpha_path))
        controls.append((f"beta path {pid}", traj.times[:-1], traj.beta_path))
    write_svg(out / "trajectories.svg", "Sample paths", "t", "state", states)
    write_svg(out / "controls.svg", "Realized controls", "t", "control", controls)


def _write_blue(out: Path, coeffs, summary, plots: bool) -> None:
    """A blue solution's files in ``out``: the coefficient curves, the Monte
    Carlo summary, its sample paths (controls are blank at the last node)
    and, with ``plots``, the paths' charts."""
    out.mkdir(parents=True, exist_ok=True)
    times = coeffs.grid.times()
    write_csv(out / "coeffs.csv", ["t", *coeffs.names()], zip(times, *coeffs.curves()))
    write_json(out / "mc_summary.json", summary.as_dict())
    paths = summary.sample_trajectories
    rows = (
        row
        for pid, p in enumerate(paths)
        for row in zip(
            p.times,
            [str(pid)] * p.times.size,
            p.v_path,
            p.y_path,
            [*p.alpha_path, ""],
            [*p.beta_path, ""],
        )
    )
    header = ["t", "path_id", "v", "y", "alpha", "beta"]
    write_csv(out / "trajectories.csv", header, rows)
    if plots:
        _plot_trajectories(out, paths)


# ---------------------------------------------------------------------------
# commands


def cmd_blue_solve(cfg: RunConfig, plots: bool = False) -> int:
    policy = FeedbackPolicy.solve(cfg.params, cfg.pattern, cfg.grid)
    # sample trajectories are the first paths of the Monte Carlo ensemble
    summary = monte_carlo(
        policy,
        cfg.pattern,
        cfg.grid,
        cfg.n_paths,
        cfg.seed,
        threads=cfg.threads,
        n_sample=cfg.n_sample,
    )
    out = cfg.out_dir
    _write_blue(out, policy.coeffs, summary, plots)
    print(f"blue-solve: wrote {out}/coeffs.csv, trajectories.csv, mc_summary.json")
    return 0


def cmd_red_optimize(cfg: RunConfig, plots: bool = False) -> int:
    report = solve_red(cfg.params, cfg.red, cfg.grid, cfg.seed)
    out, times = cfg.out_dir, cfg.grid.times()
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "fc_optimized.csv", ["t", "f_c"], zip(times, report.f_c.values))
    write_json(out / "report.json", report.as_dict())
    if plots:
        curves = [("f_c", times, report.f_c.values)]
        write_svg(out / "fc_optimized.svg", "Optimized pattern", "t", "f_c", curves)
    status = "converged" if report.converged else "not converged"
    print(
        f"red-optimize: {status} after {report.iterations} iterations, "
        f"objective {report.final_objective:.17g}"
    )
    return 0


def cmd_stackelberg(cfg: RunConfig, plots: bool = False) -> int:
    records = play_rounds(
        cfg.params,
        cfg.pattern.f_c,
        cfg.red,
        cfg.n_rounds,
        cfg.n_paths,
        cfg.seed,
        cfg.grid,
        n_sample_trajectories=cfg.n_sample,
        threads=cfg.threads,
    )
    baseline = baseline_summary(
        cfg.params, cfg.grid, cfg.n_paths, cfg.seed, threads=cfg.threads
    )
    out, times = cfg.out_dir, cfg.grid.times()
    for record in records:
        rdir = out / f"round_{record.round_index:02d}"
        _write_blue(rdir, record.coeffs, record.mc, plots)
        write_csv(
            rdir / "fc_used.csv", ["t", "f_c"], zip(times, record.f_c_used.values)
        )
    rounds = [
        {
            "round_index": record.round_index,
            "f_c": record.f_c_used.values.tolist(),
            "expected_log_lr_moment": record.expected_log_lr_moment,
            "mc": record.mc.as_dict(),
        }
        for record in records
    ]
    write_json(out / "rounds.json", {"baseline": baseline.as_dict(), "rounds": rounds})
    if plots:
        curves = [(f"round {r.round_index}", times, r.f_c_used.values) for r in records]
        write_svg(out / "fc_rounds.svg", "Pattern by round", "t", "f_c", curves)
    print(f"stackelberg: wrote {len(records)} round directories and rounds.json")
    return 0


# ---------------------------------------------------------------------------
# validate: invariant suite on the configured model


def _coeff_residual(coeffs) -> float:
    return float(
        max(
            np.max(np.abs(coeffs.eta)),
            np.max(np.abs(coeffs.rho)),
            np.max(np.abs(coeffs.theta)),
        )
    )


def _policy(cfg: RunConfig, solved: dict, pattern: Pattern) -> FeedbackPolicy:
    """``FeedbackPolicy.solve`` on cfg's params and grid, kept in ``solved``
    for every later check that reads the same pattern.  A solve that raises
    keeps nothing, so each check that reads it fails with the same reason."""
    if id(pattern) not in solved:
        solved[id(pattern)] = FeedbackPolicy.solve(cfg.params, pattern, cfg.grid)
    return solved[id(pattern)]


def _check_zero_pattern(cfg: RunConfig, solved: dict):
    policy = _policy(cfg, solved, ZERO_PATTERN)
    resid = _coeff_residual(policy.coeffs)
    worst = 0.0
    for t in np.linspace(0.0, cfg.grid.horizon, 7):
        for v in (-1.0, 0.0, 2.0):
            for y in (-2.0, 0.0, 3.0):
                worst = max(worst, abs(optimal_beta(policy, float(t), v, y)))
    ok = resid <= 1e-8 and worst <= 1e-12
    return ok, f"coefficient residual {resid:.2e}, max |beta| {worst:.2e}"


def _check_full_intensity(cfg: RunConfig, solved: dict):
    params = replace(cfg.params, lam=cfg.params.lam_upper)
    coeffs = solve_value_coeffs(params, cfg.pattern, cfg.grid)
    resid = _coeff_residual(coeffs)
    return resid <= 1e-8, f"coefficient residual {resid:.2e}"


def _check_martingale(cfg: RunConfig, solved: dict):
    policy = _policy(cfg, solved, ZERO_PATTERN)
    fc = sample_on_grid(cfg.pattern.f_c, cfg.grid)
    fd = sample_on_grid(cfg.pattern.f_d, cfg.grid)
    if not (np.any(fc != 0.0) or np.any(fd != 0.0)):
        fc = np.ones(cfg.grid.n_steps + 1)
    # the identity holds for any pattern, but the mean of exp(log L) is only
    # estimable when Var(log L) is modest; a pilot run measures the quadratic
    # variation (-2 E log L under the null) and the pattern is scaled down
    base = Pattern(grid_function(fc, cfg.grid), grid_function(fd, cfg.grid))
    pilot = log_lr_samples(policy, base, cfg.grid, 256, mix_seed(cfg.seed, 90, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        quad_var = -2.0 * float(np.mean(pilot))
    if not math.isfinite(quad_var):
        raise NonFiniteStateError("the pilot's mean log likelihood ratio is not finite")
    quad_var = max(quad_var, 1e-12)
    scale = min(1.0, 0.5 / math.sqrt(quad_var))
    pattern = Pattern(
        grid_function(scale * fc, cfg.grid), grid_function(scale * fd, cfg.grid)
    )
    n = min(cfg.n_paths, 20000)
    samples = log_lr_samples(policy, pattern, cfg.grid, n, mix_seed(cfg.seed, 90, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        # in place: the log samples are not read again
        np.exp(samples, out=samples)
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(n))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NonFiniteStateError("the mean of exp(log L) or its se is not finite")
    ok = abs(mean - 1.0) <= 3.0 * se
    return ok, f"mean exp(log L) {mean:.6f}, se {se:.2e}, scale {scale:.3g}"


def _check_cross_oracle(cfg: RunConfig, solved: dict):
    policy = _policy(cfg, solved, cfg.pattern)
    mc = monte_carlo(
        policy,
        cfg.pattern,
        cfg.grid,
        cfg.n_paths,
        mix_seed(cfg.seed, 91),
        threads=cfg.threads,
    )
    moments = solve_moments(cfg.params, policy.coeffs, cfg.pattern.f_c, cfg.grid)
    elr = expected_log_lr(cfg.params, policy.coeffs, cfg.pattern.f_c, moments, cfg.grid)
    gap = abs(mc.mean_log_lr - elr)
    ok = gap <= 3.0 * mc.se_log_lr
    return ok, f"MC {mc.mean_log_lr:.6f} vs ODE {elr:.6f}, 3 se {3 * mc.se_log_lr:.2e}"


def _check_gradient(cfg: RunConfig, solved: dict):
    # stationarity of the payoff at a zero pattern, checked in the upper
    # half of the admissible misdirection range where it must be a minimum
    params = cfg.params
    if not params.lam > 0.5 * params.lam_upper:
        params = replace(params, lam=0.75 * params.lam_upper)
    n1 = cfg.grid.n_steps + 1
    step = 1e-5
    sample = np.unique(np.linspace(0, n1 - 1, 15).astype(int))
    # one batch: rows 2i and 2i + 1 bump node sample[i] up and down; then
    # dense random directions, since a single-node bump can sit exactly on
    # a vanishing moment weight (y0 = 0) and mask the minimum
    rows = []
    for k in sample:
        for value in (step, -step):
            bump = np.zeros(n1)
            bump[k] = value
            rows.append(bump)
    rng = np.random.default_rng(mix_seed(cfg.seed, 92))
    for _ in range(5):
        direction = rng.standard_normal(n1)
        direction /= np.linalg.norm(direction)
        rows.append(1e-2 * direction)
    elr = solve_stack(params, np.array(rows), cfg.grid)[1].tolist()
    grad = 0.0
    for up, down in zip(elr[0:-5:2], elr[1:-5:2]):
        grad = max(grad, abs(up - down) / (2.0 * step))
    ascent_ok = all(value > 0.0 for value in elr[-5:])
    ok = grad <= 1e-4 and ascent_ok
    return ok, f"max |dJ/df| {grad:.2e}, ascent in sampled directions {ascent_ok}"


def _check_refinement(cfg: RunConfig, solved: dict):
    fine_grid = GridConfig(2 * cfg.grid.n_steps, cfg.grid.horizon)
    coarse = _policy(cfg, solved, cfg.pattern).coeffs
    fine = solve_value_coeffs(cfg.params, cfg.pattern, fine_grid)
    err = 0.0
    for a, b in zip(coarse.curves(), fine.curves()):
        b = b[::2]
        err = max(err, float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))))
    return err <= 1e-6, f"step-halving residual {err:.2e}"


_VALIDATE_CHECKS = [
    ("zero-pattern-decoupling", _check_zero_pattern),
    ("full-intensity-decoupling", _check_full_intensity),
    ("martingale-normalization", _check_martingale),
    ("moment-cross-oracle", _check_cross_oracle),
    ("gradient-stationarity", _check_gradient),
    ("grid-refinement", _check_refinement),
]


def cmd_validate(cfg: RunConfig, plots: bool = False) -> int:
    failures, solved = 0, {}
    for name, fn in _VALIDATE_CHECKS:
        try:
            ok, detail = fn(cfg, solved)
        except (RedBlueError, ValueError, ArithmeticError) as exc:
            ok, detail = False, f"error: {exc}"
        if not ok:
            failures += 1
        print(f"{name:28s} {'PASS' if ok else 'FAIL'}  {detail}")
    if failures:
        print(f"validate: {failures} check(s) failed")
        return 2
    print("validate: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "blue-solve": cmd_blue_solve,
    "red-optimize": cmd_red_optimize,
    "stackelberg": cmd_stackelberg,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redblue",
        description="Misdirection-aware LQ control and pattern optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--plots", action="store_true", help="emit SVG plots")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        cfg = build_run_config(
            doc, seed=args.seed, threads=args.threads, out_dir=args.out
        )
    except (ConfigError, OSError, ValueError, RedBlueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        # an --out that is, or lies below, a plain file is refused before any
        # solve runs, and nothing is made; validate writes nothing
        if args.command != "validate":
            first = next(p for p in (cfg.out_dir, *cfg.out_dir.parents) if p.exists())
            if not first.is_dir():
                raise NotADirectoryError(f"{first} is not a directory")
        return _COMMANDS[args.command](cfg, plots=args.plots)
    except OSError as exc:  # an output path that cannot be made or written
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except (RedBlueError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
