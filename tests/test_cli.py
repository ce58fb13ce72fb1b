import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redblue import InputError, RedConfig, cli, moments, riccati, sde
from redblue.cli import (
    build_run_config,
    main,
    parse_time_function,
    write_csv,
    write_json,
)
from redblue.model import sample_on_grid
from redblue.moments import NOT_SIMPLIFIED, solve_stack
from redblue.odeint import integrate_backward
from redblue.red import euler, fbs, nn
from redblue.red.euler import euler_objective_and_gradient
from redblue.sde import mix_seed


def base_doc(**overrides):
    doc = {
        "model.T": 0.5,
        "model.sigma_B": 0.1,
        "model.sigma_W": 0.2,
        "model.r_alpha": 1.0,
        "model.r_beta": 5.0,
        "model.r_v": 1.0,
        "model.t_v": 1.0,
        "model.lambda": 0.1,
        "model.v0": 1.0,
        "model.y0": 0.0,
        "grid.n_steps": 40,
        "mc.n_paths": 64,
        "mc.sample_trajectories": 2,
    }
    doc.update(overrides)
    return doc


def readme_example_config() -> dict:
    """The example config of the README: its one ```json block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```json\n")[1:]
    assert len(blocks) == 1
    return json.loads(blocks[0].split("```")[0])


README_DOC = readme_example_config()


def test_every_config_key_is_in_the_readme():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r'[`"]([\w.]+)[`"]', text))
    assert sorted(set(cli._KEYS) - named) == []


def file_bytes(root: Path) -> dict:
    """Every file below ``root``: relative path -> contents."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


def write_config(tmp_path: Path, doc, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# where a run enters a solve: the RK4 integrators at each import site, the
# Monte Carlo block runner and the Euler recursion
_SOLVE_ENTRIES = [
    (moments, "integrate_backward"),
    (riccati, "integrate_backward"),
    (moments, "integrate_linear"),
    (fbs, "integrate_linear"),
    (sde, "_run_blocks"),
    (euler, "_euler_states"),
]


@contextlib.contextmanager
def counting_solve_entries():
    """The names of the solve entries called inside the block, in order."""
    calls = []
    with contextlib.ExitStack() as stack:
        for module, name in _SOLVE_ENTRIES:

            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            stack.enter_context(mock.patch.object(module, name, counting))
        yield calls


def test_parse_time_function_forms():
    f = parse_time_function("constant:1.5", 1.0, "k")
    assert f(0.3) == 1.5
    f = parse_time_function("affine:1,2", 1.0, "k")
    assert f(0.25) == pytest.approx(1.5)
    f = parse_time_function("sinusoid:2,3", 1.0, "k")
    assert f(0.4) == pytest.approx(2.0 * math.sin(3.0 * 0.4))
    f = parse_time_function("sinusoid:2,3,0.5", 1.0, "k")
    assert f(0.4) == pytest.approx(2.0 * math.sin(3.0 * 0.4 + 0.5))
    f = parse_time_function("grid:0,1,2", 1.0, "k")
    assert f(0.5) == pytest.approx(1.0)
    # bare numbers are shorthand for constants
    assert parse_time_function(3, 1.0, "k")(0.0) == 3.0
    assert parse_time_function(0.25, 1.0, "k")(0.9) == 0.25


@pytest.mark.parametrize(
    "text",
    ["bogus:1", "constant:a", "affine:1", "sinusoid:1", "grid:1", "constant", True, None],
)
def test_parse_time_function_rejects(text):
    with pytest.raises(InputError):
        parse_time_function(text, 1.0, "k")


def test_build_run_config_defaults():
    cfg = build_run_config(base_doc())
    assert cfg.grid.horizon == 0.5
    assert cfg.params.lam == 0.1
    assert cfg.grid.n_steps == 40
    assert cfg.pattern.f_c(0.2) == 0.0
    assert cfg.pattern.f_d(0.2) == 0.0
    assert cfg.red.solver == "fpi"
    assert cfg.red.lambda_reg == 1.0
    assert cfg.red.penalty_kind == "quadratic"
    assert cfg.red.f_c_initial(0.1) == 1.0
    assert cfg.n_rounds == 1
    assert cfg.seed == 0
    assert cfg.threads == 1
    assert cfg.out_dir == Path("out")


def test_red_keys_default_to_the_red_config_defaults():
    # only RedConfig states the red.* defaults (cli._KEYS gives those keys
    # none); a config with no red.* keys must build RedConfig's own
    cfg = build_run_config(base_doc())
    assert cfg.red == RedConfig(lambda_reg=cfg.red.lambda_reg)


def test_build_run_config_rejects_unknown_keys():
    doc = base_doc(**{"model.bogus": 1.0, "extra": 2})
    with pytest.raises(InputError, match="unknown config keys: extra, model.bogus"):
        build_run_config(doc)


def test_build_run_config_lists_missing_keys():
    doc = base_doc()
    del doc["model.T"]
    del doc["grid.n_steps"]
    with pytest.raises(InputError, match="grid.n_steps, model.T"):
        build_run_config(doc)


def test_build_run_config_rejects_out_of_range_lambda():
    # bound is r_beta * sigma_W^2 = 0.2 for the base doc
    with pytest.raises(InputError):
        build_run_config(base_doc(**{"model.lambda": 0.21}))


def test_build_run_config_type_checks():
    with pytest.raises(InputError, match="expected a number"):
        build_run_config(base_doc(**{"model.T": True}))
    with pytest.raises(InputError, match="expected an integer"):
        build_run_config(base_doc(**{"mc.n_paths": 10.5}))
    with pytest.raises(InputError, match="n_paths"):
        build_run_config(base_doc(**{"mc.n_paths": 1}))


@pytest.mark.parametrize(
    "key, least",
    [
        ("mc.n_paths", 2),
        ("mc.sample_trajectories", 0),
        ("stackelberg.n_rounds", 1),
        ("seed", 0),
        ("threads", 1),
    ],
)
def test_keys_below_their_least_value_are_config_errors(key, least):
    build_run_config(base_doc(**{key: least}))
    with pytest.raises(InputError, match=f"^{re.escape(key)} must be >= {least}$"):
        build_run_config(base_doc(**{key: least - 1}))


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--threads", "0"]])
def test_flags_below_their_least_value_exit_1(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, base_doc())
    out = tmp_path / "o"
    assert main(["blue-solve", "--config", cfg, "--out", str(out), *flag]) == 1
    assert "must be >=" in capsys.readouterr().err
    assert not out.exists()


def test_flag_overrides_beat_config_values():
    doc = base_doc(seed=3, threads=2, out_dir="from_doc")
    cfg = build_run_config(doc, seed=9, threads=4, out_dir="from_flag")
    assert cfg.seed == 9
    assert cfg.threads == 4
    assert cfg.out_dir == Path("from_flag")
    cfg = build_run_config(doc)
    assert cfg.seed == 3
    assert cfg.threads == 2
    assert cfg.out_dir == Path("from_doc")


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1.0 / 3.0, "x"), (2.0, "")])
    raw = path.read_bytes().decode()
    assert raw == "a,b\n0.33333333333333331,x\n2,\n"
    assert "\r" not in raw


def test_write_json_rejects_non_finite(tmp_path):
    path = tmp_path / "t.json"
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError):
            write_json(path, {"a": value})
    assert not path.exists()


def test_write_json_sorted_with_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": 1, "a": 2})
    raw = path.read_text()
    assert raw.index('"a"') < raw.index('"b"')
    assert raw.endswith("\n")
    assert json.loads(raw) == {"a": 2, "b": 1}


def test_main_usage_errors_exit_1(tmp_path):
    assert main(["blue-solve"]) == 1
    assert main(["no-such-command", "--config", "x"]) == 1
    assert main(["blue-solve", "--config", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["blue-solve", "--config", str(bad)]) == 1


def test_main_config_errors_exit_1(tmp_path, capsys):
    unknown = write_config(tmp_path, base_doc(**{"model.bogus": 1.0}), "u.json")
    assert main(["blue-solve", "--config", unknown]) == 1
    out_of_range = write_config(tmp_path, base_doc(**{"model.lambda": 5.0}), "l.json")
    assert main(["blue-solve", "--config", out_of_range]) == 1
    capsys.readouterr()
    # a document that is not an object, a key of the wrong type, and an
    # integer beyond the float range: one line each
    cases = [
        ([base_doc()], "config must be a JSON object"),
        (base_doc(**{"red.solver": 1}), "red.solver: expected a string"),
        (base_doc(**{"model.v0": 10**400}), "model.v0: expected a finite number"),
    ]
    for doc, reason in cases:
        cfg = write_config(tmp_path, doc)
        assert main(["blue-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {reason}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["blue-solve", "red-optimize", "stackelberg"])
@pytest.mark.parametrize("below", [False, True])
def test_an_output_path_that_cannot_be_made_exits_1(
    tmp_path, capsys, monkeypatch, command, below
):
    # --out names a plain file, or a path below one: the run ends before
    # any solve, with one line and no traceback
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran before the output path was checked")

    monkeypatch.setattr(cli.FeedbackPolicy, "solve", solve)
    monkeypatch.setattr(cli, "solve_red", solve)
    monkeypatch.setattr(cli, "play_rounds", solve)
    cfg = write_config(tmp_path, base_doc())
    plain = tmp_path / "plain"
    plain.write_text("kept")
    out = plain / "o" if below else plain
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert plain.read_text() == "kept"


@pytest.mark.parametrize(
    "key, value",
    [
        ("pattern.f_c", "constant:inf"),
        ("pattern.f_c", "sinusoid:1,nan"),
        ("pattern.f_c", "grid:nan,1"),
        ("pattern.f_d", math.inf),
        ("red.tolerance", math.inf),
        ("model.v0", math.nan),
    ],
)
def test_non_finite_inputs_are_config_errors(tmp_path, key, value):
    with pytest.raises(InputError, match="finite"):
        build_run_config(base_doc(**{key: value}))
    # json writes these as Infinity / NaN, which json.load accepts
    cfg = write_config(tmp_path, base_doc(**{key: value}))
    for command in ("blue-solve", "red-optimize"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_monte_carlo_exits_2(tmp_path, capsys):
    # Euler-Maruyama is unstable at this step size: the paths stay finite
    # but their costs overflow, which must not be written as Infinity
    doc = base_doc(
        **{"model.T": 1e6, "grid.n_steps": 20, "pattern.f_c": "constant:0"}
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["blue-solve", "--config", cfg, "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not (out / "mc_summary.json").exists()
    assert not out.exists()


def test_blue_solve_writes_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, base_doc(**{"pattern.f_c": "constant:0.5"}))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["blue-solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["blue-solve", "--config", cfg, "--out", str(out2), "--threads", "3"]) == 0
    for name in ("coeffs.csv", "mc_summary.json", "trajectories.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "mc_summary.json").read_text())
    assert summary["n_paths"] == 64
    header = (out1 / "trajectories.csv").read_text().splitlines()[0]
    assert header == "t,path_id,v,y,alpha,beta"


def test_blue_solve_plots(tmp_path):
    cfg = write_config(tmp_path, base_doc())
    out = tmp_path / "o"
    assert main(["blue-solve", "--config", cfg, "--out", str(out), "--plots"]) == 0
    for name in ("trajectories.svg", "controls.svg"):
        assert (out / name).read_text().startswith("<svg")


def test_red_optimize_plots(tmp_path):
    cfg = write_config(tmp_path, base_doc())
    out = tmp_path / "o"
    assert main(["red-optimize", "--config", cfg, "--out", str(out), "--plots"]) == 0
    assert (out / "fc_optimized.svg").read_text().startswith("<svg")


def test_red_optimize_reports_non_convergence(tmp_path, capsys):
    doc = base_doc(**{"red.max_iters": 1, "red.tolerance": 1e-12})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["red-optimize", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["iterations"] == 1
    assert "not converged" in capsys.readouterr().out
    assert (out / "fc_optimized.csv").read_text().splitlines()[0] == "t,f_c"


def test_stackelberg_round_directories(tmp_path):
    doc = base_doc(**{"stackelberg.n_rounds": 2, "red.max_iters": 40})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["stackelberg", "--config", cfg, "--out", str(out)]) == 0
    for rdir in (out / "round_01", out / "round_02"):
        for name in ("coeffs.csv", "fc_used.csv", "mc_summary.json", "trajectories.csv"):
            assert (rdir / name).is_file()
    doc_out = json.loads((out / "rounds.json").read_text())
    assert len(doc_out["rounds"]) == 2
    assert doc_out["rounds"][0]["round_index"] == 1
    assert len(doc_out["rounds"][0]["f_c"]) == 41
    assert doc_out["baseline"]["mean_log_lr"] == 0.0


def test_a_stackelberg_round_directory_is_a_blue_solve_directory(tmp_path):
    # round 1 plays constant:1 in its grid form, which samples to the same
    # midpoints, under the Monte Carlo seed mix_seed(seed, 1, 0)
    overrides = {"grid.n_steps": 50, "mc.n_paths": 300, "stackelberg.n_rounds": 1}
    cfg = write_config(tmp_path, dict(README_DOC, **overrides))
    rounds, blue = tmp_path / "s", tmp_path / "b"
    assert main(["stackelberg", "--config", cfg, "--out", str(rounds), "--plots"]) == 0
    seed = str(mix_seed(README_DOC["seed"], 1, 0))
    argv = ["blue-solve", "--config", cfg, "--out", str(blue), "--seed", seed]
    assert main([*argv, "--plots"]) == 0
    round_dir = rounds / "round_01"
    names = sorted(path.name for path in blue.iterdir())
    assert sorted(path.name for path in round_dir.iterdir()) == sorted(
        [*names, "fc_used.csv"]
    )
    for name in names:
        assert (round_dir / name).read_bytes() == (blue / name).read_bytes(), name


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numeric_failure_exits_2(tmp_path):
    # stiff horizon with weak control effort blows up the coefficient solve
    doc = base_doc(
        **{
            "model.T": 50.0,
            "model.r_alpha": 0.01,
            "model.t_v": 5.0,
            "model.lambda": 0.0,
            "grid.n_steps": 100,
        }
    )
    cfg = write_config(tmp_path, doc)
    assert main(["blue-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("doc", [README_DOC, base_doc()], ids=["readme", "base"])
def test_a_long_horizon_keeps_the_coefficient_solves_finite(doc):
    # T = 600 over 12000 steps: F stays finite through both of its solves.
    # Stepping F as the linear Hamiltonian system whose solution is
    # P = Y X^-1 loses X's conditioning on this input and fails part way,
    # so any other scheme for F must keep this input running.
    long = {"model.T": 600.0, "grid.n_steps": 12000, "pattern.f_c": "sinusoid:0.5,3"}
    cfg = build_run_config({**doc, **long})
    coeffs = riccati.solve_value_coeffs(cfg.params, cfg.pattern, cfg.grid)
    for name in ("mu", "eta", "rho", "gamma", "theta", "xi"):
        assert np.isfinite(getattr(coeffs, name)).all()
    nodes = sample_on_grid(cfg.pattern.f_c, cfg.grid)
    states, elr = solve_stack(cfg.params, nodes, cfg.grid)
    assert np.isfinite(states).all() and math.isfinite(elr)


@pytest.mark.parametrize("command", ["blue-solve", "red-optimize", "validate"])
def test_readme_example_runs(tmp_path, command):
    cfg = write_config(tmp_path, README_DOC)
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, "--config", cfg, *out]) == 0


def test_readme_red_optimize_runs_without_a_penalty(tmp_path):
    # lambda_reg 0 turns the penalty off, so fpi's iterates may reach 0
    # under the logarithmic penalty
    cfg = write_config(tmp_path, dict(README_DOC, **{"red.lambda_reg": 0.0}))
    out = tmp_path / "o"
    assert main(["red-optimize", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["final_penalty"] == 0.0


@pytest.mark.parametrize("solver", ["fpi", "fbs"])
def test_readme_stackelberg_example_runs(tmp_path, solver):
    # rounds after the first anchor the logarithmic penalty at the previous
    # round's pattern, which is not identically one
    cfg = write_config(tmp_path, dict(README_DOC, **{"red.solver": solver}))
    out = tmp_path / "o"
    assert main(["stackelberg", "--config", cfg, "--out", str(out)]) == 0
    rounds = json.loads((out / "rounds.json").read_text())["rounds"]
    assert [r["round_index"] for r in rounds] == [1, 2, 3]


def test_readme_fpi_stackelberg_runs_without_a_penalty(tmp_path):
    # with lambda_reg 0 the logarithmic penalty is never read, so a round
    # may anchor at a pattern that fpi drove to 0 at a node
    cfg = write_config(tmp_path, dict(README_DOC, **{"red.lambda_reg": 0.0}))
    out = tmp_path / "o"
    assert main(["stackelberg", "--config", cfg, "--out", str(out)]) == 0
    rounds = json.loads((out / "rounds.json").read_text())["rounds"]
    assert [r["round_index"] for r in rounds] == [1, 2, 3]
    assert min(rounds[1]["f_c"]) == 0.0


_SMALL = {"grid.n_steps": 20, "mc.n_paths": 100}


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("red-optimize", {"model.v0": 1e154}),
        ("validate", {"model.v0": 1e154, "model.y0": 1.3e154}),
        ("red-optimize", {"red.solver": "nn", "model.sigma_W": 1e154, **_SMALL}),
        ("red-optimize", {"red.solver": "nn", "red.lambda_reg": 1e154, **_SMALL}),
        (
            "stackelberg",
            {
                "red.solver": "nn",
                "red.penalty": "quadratic",
                "red.lambda_reg": 1e300,
                "red.f_c_initial": 1e-160,
                **_SMALL,
            },
        ),
        ("validate", {"model.T": 1e300, **_SMALL}),
        ("validate", {"model.v0": 1e154, "model.y0": 1.3e154, **_SMALL}),
        ("red-optimize", {"red.penalty": "quadratic", "red.lambda_reg": 1e308}),
        (
            "red-optimize",
            {"red.solver": "fbs", "red.penalty": "quadratic", "red.lambda_reg": 1e308},
        ),
        ("red-optimize", {"model.y0": 1e-160, "grid.n_steps": 12, "red.max_iters": 5}),
    ],
    ids=[
        "red-optimize-v0",
        "validate-v0",
        "nn-sigma_W",
        "nn-adam-overflow",
        "stackelberg-nn-adam-overflow",
        "validate-T",
        "validate-v0-small",
        "fpi-update-overflow",
        "fbs-update-overflow",
        "fpi-step-norm-overflow",
    ],
)
def test_arithmetic_errors_exit_2(tmp_path, capsys, recwarn, command, overrides):
    # each config is accepted but overflows at run time: v0^2 is finite
    # while red-optimize's closed-form update is not; for validate, v0^2 and
    # y0^2 are finite while the paths are not, nor is the moment solve, whose
    # E[Y^2] starts at 1.69e308 and grows; the nn cases overflow in the
    # Euler objective or in Adam's moment estimates; the quadratic fpi and
    # fbs cases overflow in the closed-form update; at y0 1e-160 the
    # logarithmic fpi takes a finite step whose norm overflows
    cfg = write_config(tmp_path, dict(README_DOC, **overrides))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    if command == "validate":
        failed = 4 if "model.T" in overrides else 3
        assert f"validate: {failed} check(s) failed" in captured.out
        assert "martingale-normalization     FAIL  error: " in captured.out
        assert "gradient-stationarity        FAIL  error: " in captured.out
    else:
        assert captured.err.startswith("numeric failure: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, overrides, reason",
    [
        (
            "red-optimize",
            {"red.solver": "nn", "red.f_c_initial": "constant:0"},
            "logarithmic penalty needs a positive anchor",
        ),
        (
            "red-optimize",
            {"red.f_c_initial": "constant:0"},
            "logarithmic penalty needs a positive anchor",
        ),
        (
            "stackelberg",
            {"pattern.f_c": "constant:0"},
            "logarithmic penalty needs a positive anchor",
        ),
        ("red-optimize", {"model.vbar": 1.0}, NOT_SIMPLIFIED),
        ("stackelberg", {"model.vbar": 1.0}, NOT_SIMPLIFIED),
    ],
    ids=[
        "nn-zero-anchor",
        "fpi-zero-anchor",
        "stackelberg-zero-anchor",
        "red-optimize-tracking",
        "stackelberg-tracking",
    ],
)
def test_input_refusals_exit_1_before_any_solve(
    tmp_path, capsys, recwarn, command, overrides, reason
):
    # the config alone decides these: a logarithmic anchor that is not
    # positive, or a velocity target outside the moment closure.  In
    # stackelberg the zero anchor is round 1's pattern, which round 2's
    # optimizer would anchor at
    cfg = write_config(tmp_path, dict(README_DOC, **overrides))
    with counting_solve_entries() as calls:
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert calls == []
    captured = capsys.readouterr()
    assert captured.err == f"config error: {reason}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_steps", [2**62, 2**64])
@pytest.mark.parametrize(
    "command", ["blue-solve", "red-optimize", "stackelberg", "validate"]
)
def test_a_grid_too_large_to_index_is_a_config_error(
    tmp_path, capsys, command, n_steps
):
    # the half grid holds 2 n_steps + 1 points, more than numpy can index
    cfg = write_config(tmp_path, dict(README_DOC, **{"grid.n_steps": n_steps}))
    with counting_solve_entries() as calls:
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err == f"config error: n_steps must be <= {2**62 - 1}, got {n_steps}\n"
    assert not (tmp_path / "o").exists()


def test_allocation_beyond_any_address_space_exits_2(tmp_path, capsys):
    # 10**15 sample paths of 201 nodes ask for 1.39 EiB, which no allocator
    # can grant, so the run fails at once without simulating anything
    overrides = {"mc.sample_trajectories": 10**15}
    cfg = write_config(tmp_path, dict(README_DOC, **overrides))
    assert main(["blue-solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate 1.39 EiB")
    assert err.count("\n") == 1


def test_nn_rejects_a_velocity_target_before_training(tmp_path, capsys, monkeypatch):
    # the Euler objective reads no target, so only the closure guard can
    # stop the network before it trains
    calls = []

    def counting(*args):
        calls.append(None)
        return euler_objective_and_gradient(*args)

    monkeypatch.setattr(nn, "euler_objective_and_gradient", counting)
    doc = dict(README_DOC, **{"red.solver": "nn", "model.vbar": 1.0})
    cfg = write_config(tmp_path, doc)
    assert main(["red-optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {NOT_SIMPLIFIED}\n"
    assert calls == []


@pytest.mark.parametrize("target", ["model.vbar", "model.vbar_T"])
def test_validate_fails_both_closure_rows_on_a_tiny_target(tmp_path, capsys, target):
    # a velocity target far below any tolerance still takes the model out
    # of the moment closure, for the cross-oracle and the gradient row alike
    cfg = write_config(tmp_path, dict(README_DOC, **{target: 1e-15}))
    assert main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    reason = f"FAIL  error: {NOT_SIMPLIFIED}\n"
    assert f"moment-cross-oracle          {reason}" in out
    assert f"gradient-stationarity        {reason}" in out
    assert "validate: 2 check(s) failed" in out


def test_six_component_blow_up_reason_is_one_line(tmp_path, capsys):
    # the fbs costate solve goes non-finite; its six-component row is longer
    # than numpy's default line width.  The step maps overflow, so every
    # entry of the row is inf or nan, the moment costates too (0 * inf)
    overrides = {
        "red.solver": "fbs",
        "model.r_beta": 1e154,
        "model.y0": 1e154,
        "grid.n_steps": 12,
    }
    cfg = write_config(tmp_path, dict(README_DOC, **overrides))
    assert main(["red-optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    prefix = "numeric failure: non-finite state at t="
    assert err.startswith(prefix)
    assert err.count("\n") == 1
    node, row = err[len(prefix):].split(": ")
    assert node == "0.09166666666666666"
    entries = [float(v) for v in row.strip().strip("[]").split()]
    assert len(entries) == 6 and not np.isfinite(entries).any()


@pytest.mark.parametrize("command", ["red-optimize", "stackelberg"])
@pytest.mark.parametrize(
    "overrides, leading",
    [({"model.y0": 0.0}, "a = 0.0 at node 0"), ({"model.lambda": 0.04}, "a = -0.8")],
    ids=["y0-zero", "lambda-below-half"],
)
def test_logarithmic_update_names_the_node_where_a_fails(
    tmp_path, capsys, command, overrides, leading
):
    # a = (2u - 1) E[Y^2]: at y0 = 0, E[Y^2] is 0 at node 0 although
    # lam = 0.1 > r_beta sigma_w^2 / 2; at lam = 0.04, 2u - 1 < 0
    doc = dict(README_DOC, **overrides, **{"grid.n_steps": 50})
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        "numeric failure: logarithmic update needs a positive leading "
        "coefficient a = (2 lam / (r_beta sigma_w^2) - 1) E[Y^2] (plus a "
        "costate term under fbs), which needs lam > r_beta sigma_w^2 / 2 and "
        "E[Y^2] > 0; "
    )
    assert leading in err and err.endswith(" at node 0\n")


def test_martingale_check_fails_on_an_overflowing_sample(
    tmp_path, capsys, recwarn, monkeypatch
):
    # exp(1000) overflows, so the mean and the se of the sample are not finite
    monkeypatch.setattr(
        "redblue.cli.log_lr_samples",
        lambda policy, pattern, grid, n_paths, seed, threads: np.full(n_paths, 1000.0),
    )
    cfg = write_config(tmp_path, README_DOC)
    assert main(["validate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "martingale-normalization     FAIL  error: " in captured.out
    assert "RuntimeWarning" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "overrides",
    [
        {"model.sigma_W": 1e-300, "model.lambda": 0.0},
        {"model.sigma_W": 1e200},
        {"model.sigma_B": 1e200},
        {"model.v0": 1e300},
        {"model.v0": 1e155},
        {"model.y0": 1e155},
        {"model.vbar_T": 1e155},
    ],
    ids=[
        "sigma_W-underflow",
        "sigma_W-overflow",
        "sigma_B-overflow",
        "v0-overflow",
        "v0-square-overflow",
        "y0-square-overflow",
        "vbar_T-square-overflow",
    ],
)
def test_noise_scales_with_unusable_squares_are_config_errors(
    tmp_path, capsys, overrides
):
    # sigma_W^2 underflows to zero or overflows; sigma_B^2, v0^2, y0^2 or
    # vbar_T^2 overflows
    cfg = write_config(tmp_path, dict(README_DOC, **overrides))
    assert main(["red-optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "**2 must be" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def count_riccati_solves(monkeypatch) -> list:
    """The grid sizes of every riccati solve from here on."""
    solves = []

    def counting(rates, forcing, terminal, grid):
        solves.append(grid.n_steps)
        return integrate_backward(rates, forcing, terminal, grid)

    monkeypatch.setattr(riccati, "integrate_backward", counting)
    return solves


def test_readme_validate_solves_each_blue_policy_once(tmp_path, capsys, monkeypatch):
    # the zero-pattern and martingale rows share the zero pattern's policy,
    # and the cross-oracle row and grid-refinement's coarse solve share the
    # configured pattern's; the full-intensity and fine-grid solves are
    # their own
    solves = count_riccati_solves(monkeypatch)
    cfg = write_config(tmp_path, README_DOC)
    assert main(["validate", "--config", cfg]) == 0
    n = README_DOC["grid.n_steps"]
    assert solves == [n, n, n, 2 * n]
    assert "validate: all checks passed" in capsys.readouterr().out


def test_a_failed_shared_solve_fails_every_row_that_reads_it(tmp_path, capsys):
    # the configured pattern's solve overflows; the cross-oracle and
    # grid-refinement rows each fail with its reason
    doc = dict(README_DOC, **{"pattern.f_c": "constant:1e160"})
    assert main(["validate", "--config", write_config(tmp_path, doc)]) == 2
    rows = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines())
    reason = rows["moment-cross-oracle"]
    assert reason.startswith("FAIL  error: non-finite state at t=")
    assert rows["grid-refinement"] == reason
    assert rows["validate:"] == "3 check(s) failed"


def test_validate_passes_on_sound_config(tmp_path, capsys):
    doc = base_doc(**{"mc.n_paths": 2000})
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 6
    assert "all checks passed" in out


_FUZZ_FLOAT_KEYS = [
    "model.T",
    "model.sigma_B",
    "model.sigma_W",
    "model.r_alpha",
    "model.r_beta",
    "model.r_v",
    "model.t_v",
    "model.lambda",
    "model.v0",
    "model.y0",
    "model.vbar_T",
    "red.lambda_reg",
    "red.tolerance",
    "red.relaxation",
]
_FUZZ_FLOATS = st.sampled_from(
    [0.0, -1.0, 1e-300, 1e-160, 1e154, 1e300, 1e308]
) | st.floats(1e-3, 10.0)
_FUZZ_TIME_FUNCTIONS = st.sampled_from(
    ["constant:1", "constant:0", "affine:1,-2", "sinusoid:0.5,20,1", "grid:1,2,0.5"]
) | _FUZZ_FLOATS


@settings(max_examples=100)
@given(
    command=st.sampled_from(["blue-solve", "red-optimize", "stackelberg", "validate"]),
    floats=st.dictionaries(
        st.sampled_from(_FUZZ_FLOAT_KEYS), _FUZZ_FLOATS, max_size=3
    ),
    time_functions=st.dictionaries(
        st.sampled_from(["model.vbar", "pattern.f_c", "pattern.f_d", "red.f_c_initial"]),
        _FUZZ_TIME_FUNCTIONS,
        max_size=2,
    ),
    solver=st.sampled_from(["fpi", "fbs", "nn"]),
    penalty=st.sampled_from(["quadratic", "logarithmic"]),
)
def test_any_readme_variant_exits_cleanly(
    command, floats, time_functions, solver, penalty
):
    # every input runs, or exits 1 (config) or 2 (numeric) with a reason;
    # a config error enters no solve, and a numeric failure comes from one;
    # no traceback, no JSON output carries NaN or Infinity, validate passes
    # only when every check does, and a run that exits 0 writes the same
    # bytes on two threads as on one (1100 paths are two blocks)
    doc = dict(
        README_DOC,
        **{"grid.n_steps": 12, "mc.n_paths": 1100, "red.max_iters": 5},
        **{"red.solver": solver, "red.penalty": penalty},
        **floats,
        **time_functions,
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with (
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
            counting_solve_entries() as calls,
        ):
            code = main([command, "--config", cfg, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 1:
            assert stderr.getvalue().startswith("config error: ")
            assert calls == []
        if code == 2:
            assert calls
        if command == "validate" and code == 0:
            assert stdout.getvalue().count(" PASS ") == 6
        for path in out.rglob("*.json"):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path.name
        if code == 0:
            out2 = Path(tmp) / "out2"
            stdout2 = io.StringIO()
            with contextlib.redirect_stdout(stdout2):
                args = ["--config", cfg, "--out", str(out2), "--threads", "2"]
                assert main([command, *args]) == 0
            assert stdout2.getvalue().replace(str(out2), str(out)) == stdout.getvalue()
            assert file_bytes(out2) == file_bytes(out)
