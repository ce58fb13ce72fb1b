"""The four benchmark workloads: the CLI commands each one runs, and the
checks every output must pass.

All workloads are closed loops: one caller in one process, each iteration
starting when the previous one ends, ``threads=1``.  Each config is the
README example config with the changes listed on the workload.  Checks use
oracles and tolerances, never digests of earlier outputs, so a change to
the noise stream is not counted as a failure; only the iterations of one
run are compared byte for byte with each other.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

README_CONFIG = {
    "model.T": 0.1,
    "model.sigma_B": 0.1,
    "model.sigma_W": 0.1,
    "model.r_alpha": 1.0,
    "model.r_beta": 10.0,
    "model.r_v": 1.0,
    "model.t_v": 1.0,
    "model.lambda": 0.1,
    "model.v0": 1.0,
    "model.y0": 2.0,
    "grid.n_steps": 200,
    "pattern.f_c": "constant:1",
    "red.penalty": "logarithmic",
    "red.lambda_reg": 1.0,
    "red.solver": "fpi",
    "mc.n_paths": 10000,
    "stackelberg.n_rounds": 3,
    "seed": 7,
}

# Acceptance criterion 03: final expected log-LR targets of the optimizers
# on the README model at n = 200, with tolerance max(10% of target, 0.05).
CRITERION_03_TARGETS = {
    ("logarithmic", 0.1): 0.50,
    ("logarithmic", 1.0): 5.00,
    ("quadratic", 0.1): 0.04,
    ("quadratic", 1.0): 2.17,
}


# A Monte Carlo mean must lie within this many standard errors of the
# moment-ODE value.  Each check is a two-sided z-test on a correct program;
# at 3 se about one check in 370 fails by chance, and a set of runs makes
# about a hundred checks (seed 102 of nn-rounds gives z = 3.1 in round 3).
# At 5 se a chance failure is below one in a million checks, while a wrong
# moment solve or a biased ensemble still misses by many standard errors.
MC_TOLERANCE_SE = 5.0


def criterion_03_tolerance(target: float) -> float:
    return max(0.10 * abs(target), 0.05)


@dataclass
class Op:
    """One CLI command with its config; the config file is written once."""

    label: str
    command: str
    doc: dict
    flags: list[str] = field(default_factory=list)


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int | None
    stdout: str
    stderr: str
    outputs: dict[str, bytes]
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON value {token}")


def _read_outputs(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _json(result: OpResult, name: str):
    return json.loads(result.outputs[name], parse_constant=_reject_constant)


class Runner:
    """Runs ops through ``redblue.cli.main`` inside this process."""

    def __init__(self, work: Path):
        self.work = work

    def config_path(self, op: Op) -> Path:
        path = self.work / f"{op.label}.json"
        if not path.exists():
            path.write_text(json.dumps(op.doc, sort_keys=True))
        return path

    def run(self, op: Op) -> OpResult:
        from redblue.cli import main

        config = self.config_path(op)
        out = self.work / f"{op.label}-out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.command, "--config", str(config), "--out", str(out), *op.flags]
        out_buf, err_buf = io.StringIO(), io.StringIO()
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                code = main(argv)
        except Exception as exc:  # a traceback is a failed operation
            code = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        result = OpResult(
            op, seconds, code, out_buf.getvalue(), err_buf.getvalue(), _read_outputs(out)
        )
        if code != 0 and not problems:
            problems.append(f"exit code {code}: {result.stderr.strip()}")
        for name in result.outputs:
            if name.endswith(".json"):
                try:
                    _json(result, name)
                except ValueError as exc:
                    problems.append(f"{name}: {exc}")
        result.problems = problems
        return result


class Workload:
    """Base: the ops of one iteration, their checks, and what runs once."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def doc(self, **changes) -> dict:
        doc = dict(README_CONFIG, seed=self.seed)
        doc.update(changes)
        return doc

    def iteration_ops(self) -> list[Op]:
        raise NotImplementedError

    def threads2_op(self) -> Op | None:
        """The iteration rerun at threads=2, whose outputs must not change."""
        return None

    def probe_op(self) -> Op | None:
        """A command expected to fail today, attempted once to keep it visible."""
        return None

    def prepare(self) -> None:
        """Compute oracles; runs once, outside every timed region."""

    def check(self, result: OpResult) -> list[str]:
        return []

    def paths_per_iteration(self) -> int:
        """Monte Carlo paths per iteration, where the workload is sized by them."""
        return 0


class McEnsemble(Workload):
    """blue-solve with 20k paths at n=400: Monte Carlo seeding, stepping and
    reduction take ~97% of the time and one Riccati solve ~1%.  The workload
    for noise-stream, shared-ensemble and thread changes."""

    name = "mc-ensemble"

    def _doc(self):
        return self.doc(**{"grid.n_steps": 400, "mc.n_paths": 20000})

    def iteration_ops(self):
        return [Op("blue-solve", "blue-solve", self._doc(), ["--threads", "1"])]

    def threads2_op(self):
        return Op("blue-solve", "blue-solve", self._doc(), ["--threads", "2"])

    def prepare(self):
        from redblue import expected_log_lr, solve_moments, solve_value_coeffs
        from redblue.cli import build_run_config

        cfg = build_run_config(self._doc())
        coeffs = solve_value_coeffs(cfg.params, cfg.pattern, cfg.grid)
        moments = solve_moments(cfg.params, coeffs, cfg.pattern.f_c, cfg.grid)
        self.oracle = expected_log_lr(
            cfg.params, coeffs, cfg.pattern.f_c, moments, cfg.grid
        )

    def check(self, result):
        summary = _json(result, "mc_summary.json")
        gap = abs(summary["mean_log_lr"] - self.oracle)
        if not gap <= MC_TOLERANCE_SE * summary["se_log_lr"]:
            return [f"MC log-LR {summary['mean_log_lr']} vs moment ODE "
                    f"{self.oracle}: gap {gap} > {MC_TOLERANCE_SE} se"]
        return []

    def paths_per_iteration(self):
        return self._doc()["mc.n_paths"]


class Rk4Optimize(Workload):
    """red-optimize with fpi and fbs, each penalty, lambda_reg 0.1 and 1.0 at
    n=200 (the fpi/fbs half of acceptance criterion 03): RK4 solves and the
    fbs adjoint take ~99% of the time and no Monte Carlo runs.  Its solves
    are sequential, so a batched RK4 core helps here only per call."""

    name = "rk4-optimize"

    def iteration_ops(self):
        ops = []
        for solver in ("fpi", "fbs"):
            for penalty, lam_reg in CRITERION_03_TARGETS:
                doc = self.doc(**{
                    "red.solver": solver,
                    "red.penalty": penalty,
                    "red.lambda_reg": lam_reg,
                })
                ops.append(Op(f"{solver}-{penalty}-{lam_reg}", "red-optimize", doc))
        return ops

    def check(self, result):
        report = _json(result, "report.json")
        doc = result.op.doc
        target = CRITERION_03_TARGETS[(doc["red.penalty"], doc["red.lambda_reg"])]
        problems = []
        if report["converged"] is not True:
            problems.append("not converged")
        gap = abs(report["final_expected_log_lr"] - target)
        if not gap <= criterion_03_tolerance(target):
            problems.append(
                f"final_expected_log_lr {report['final_expected_log_lr']} is "
                f"{gap} from target {target}"
            )
        return problems


class NnRounds(Workload):
    """stackelberg with the nn solver, 3 rounds, 10k paths at n=100: the
    only workload running the Euler objective, nn training and the round
    bookkeeping, which share the time with four Monte Carlo ensembles, so a
    gain in one layer that costs the other shows here.  The grid is half the
    README's so that a run holds several iterations to take a median over."""

    name = "nn-rounds"

    def iteration_ops(self):
        doc = self.doc(**{"red.solver": "nn", "grid.n_steps": 100})
        return [Op("stackelberg-nn", "stackelberg", doc)]

    def probe_op(self):
        # The README stackelberg config, unmodified (fpi, logarithmic
        # penalty): it exits 2 while the log-penalty update needs a unit
        # anchor, which the nn solver used above does not show.
        return Op("probe-readme-stackelberg", "stackelberg", dict(README_CONFIG))

    def check(self, result):
        problems = []
        for entry in _json(result, "rounds.json")["rounds"]:
            mc = entry["mc"]
            gap = abs(mc["mean_log_lr"] - entry["expected_log_lr_moment"])
            if not gap <= MC_TOLERANCE_SE * mc["se_log_lr"]:
                problems.append(
                    f"round {entry['round_index']}: MC log-LR {mc['mean_log_lr']} "
                    f"vs moment {entry['expected_log_lr_moment']} > {MC_TOLERANCE_SE} se"
                )
        return problems


class Validate(Workload):
    """validate on the README config: the only caller of sample_paths and
    log_lr_samples, and the only workload with many independent pattern
    solves (35 finite-difference solve_stack calls)."""

    name = "validate"

    def iteration_ops(self):
        return [Op("validate", "validate", self.doc())]

    def check(self, result):
        rows = [
            line for line in result.stdout.splitlines()
            if len(line.split()) > 1 and line.split()[1] in ("PASS", "FAIL")
        ]
        if not rows:
            return ["validate printed no check rows"]
        return [f"row failed: {row}" for row in rows if row.split()[1] != "PASS"]


WORKLOADS = {w.name: w for w in (McEnsemble, Rk4Optimize, NnRounds, Validate)}


def setup_code(src: Path, config: Path) -> str:
    """Program for a fresh interpreter: import redblue, build the RunConfig."""
    return (
        "import json, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import redblue\n"
        "from redblue.cli import build_run_config\n"
        f"with open({str(config)!r}) as fh:\n"
        "    build_run_config(json.load(fh))\n"
    )
