"""The public API is the README's list, no module keeps a dead import,
every raise names one of the two error classes, and a model is refused when
it is built or its solves raise only those two classes."""

import ast
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import redblue
from redblue import (
    Constant,
    FeedbackPolicy,
    GridConfig,
    InputError,
    ModelParams,
    NumericError,
    RedConfig,
    ZERO_PATTERN,
    monte_carlo,
    play_rounds,
    solve_red,
)
from redblue.sde import log_lr_samples
from conftest import make_params

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "redblue"


def readme_api_section() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library API\n", 1)[1]
    return section.split("\n## ", 1)[0]


def test_exports_are_the_readme_list():
    # the bulleted list, continuation lines included, before the example
    prose = readme_api_section().split("```python", 1)[0]
    bullets = [line for line in prose.splitlines() if line.startswith(("- ", "  "))]
    listed = sorted(name for line in bullets for name in re.findall(r"`(\w+)`", line))
    assert sorted(redblue.__all__) == listed
    assert len(set(listed)) == len(listed)


def test_every_export_resolves():
    for name in redblue.__all__:
        assert getattr(redblue, name) is not None, name


def test_readme_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", readme_api_section(), re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import and never used in the module.

    A name listed in the module's ``__all__`` counts as used.
    """
    tree = ast.parse(source)
    bound = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in bound.items()
        if name not in used and name not in exported
    )


def test_unused_imports_check_flags_a_dead_import():
    source = "import numpy as np\nfrom .a import b, c\n__all__ = ['c']\n"
    assert unused_imports(source) == ["b (line 2)", "np (line 1)"]


def test_no_module_has_an_unused_import():
    found = {
        str(path.relative_to(PACKAGE)): unused
        for path in sorted(PACKAGE.rglob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def stray_raises(source: str, also: tuple[str, ...] = ()) -> list[str]:
    """Raise statements that name neither ``InputError`` nor ``NumericError``
    nor a class in ``also``.  A bare re-raise passes."""
    allowed = {"InputError", "NumericError", *also}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if not (isinstance(exc, ast.Name) and exc.id in allowed):
            found.append(f"{ast.unparse(node.exc)} (line {node.lineno})")
    return found


def test_stray_raises_check_flags_other_classes():
    source = (
        "raise InputError('a')\n"
        "raise NumericError\n"
        "raise\n"
        "raise ValueError('b')\n"
        "raise errors.InputError('c')\n"
    )
    assert stray_raises(source) == [
        "ValueError('b') (line 4)",
        "errors.InputError('c') (line 5)",
    ]
    assert stray_raises(source, also=("ValueError",)) == [
        "errors.InputError('c') (line 5)"
    ]


def test_every_raise_names_one_of_the_two_error_classes():
    # the command line refuses an --out below a plain file as an OSError,
    # an output error
    also = {"cli.py": ("NotADirectoryError",)}
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        if stray := stray_raises(path.read_text(), also.get(name, ())):
            found[name] = stray
    assert found == {}


# every float field of a model, and vbar as a constant
MODEL_FIELDS = [f.name for f in fields(ModelParams)]
FIELD_VALUES = (
    *(0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-150, 1e154, 1e300, math.inf, math.nan),
    *(0.05, 0.5, 2.0),
)
CONTRACT_GRID = GridConfig(4, 0.1)


def library_calls(params: ModelParams):
    """Blue's policy and Monte Carlo run, and every red solver under both
    penalties, each as a call of its own."""
    grid = CONTRACT_GRID

    def blue():
        policy = FeedbackPolicy.solve(params, ZERO_PATTERN, grid)
        monte_carlo(policy, ZERO_PATTERN, grid, 8, 1)

    yield blue
    for solver in ("fpi", "fbs", "nn"):
        for penalty in ("quadratic", "logarithmic"):
            config = RedConfig(
                lambda_reg=1.0, penalty_kind=penalty, solver=solver, max_iters=3
            )
            yield lambda config=config: solve_red(params, config, grid, seed=1)


@given(
    overrides=st.dictionaries(
        st.sampled_from(MODEL_FIELDS), st.sampled_from(FIELD_VALUES), max_size=4
    )
)
# r_beta sigma_w^2 underflows to 0.0, which bounds lam to 0
@example(overrides={"r_beta": 1e-300, "sigma_w": 1e-150, "lam": 0.0})
@example(overrides={"r_alpha": 0.0})
@example(overrides={"r_beta": 0.0, "lam": 0.0})
@example(overrides={"sigma_w": 0.0, "lam": 0.0})
@example(overrides={"lam": 5.0})
def test_a_model_is_refused_when_built_or_its_solves_raise_only_package_errors(
    overrides,
):
    if "vbar" in overrides:
        overrides["vbar"] = Constant(overrides["vbar"])
    try:
        params = make_params(**overrides)
    except InputError:
        return
    for call in library_calls(params):
        try:
            call()
        except (InputError, NumericError):
            pass


NN_CONFIG = RedConfig(lambda_reg=1.0, penalty_kind="quadratic", solver="nn")
# a seed or a count that is not a non-negative integer, in each entry point
# that takes one; the command line refuses all of them before any call
REFUSED = {
    "float master_seed": lambda p: monte_carlo(p, ZERO_PATTERN, CONTRACT_GRID, 8, 7.9),
    "negative master_seed": lambda p: monte_carlo(
        p, ZERO_PATTERN, CONTRACT_GRID, 8, -1
    ),
    "float nn seed": lambda p: solve_red(p.params, NN_CONFIG, CONTRACT_GRID, 3.7),
    "negative nn seed": lambda p: solve_red(p.params, NN_CONFIG, CONTRACT_GRID, -1),
    "float n_paths": lambda p: monte_carlo(p, ZERO_PATTERN, CONTRACT_GRID, 2.5, 1),
    "float log_lr_samples n_paths": lambda p: log_lr_samples(
        p, ZERO_PATTERN, CONTRACT_GRID, 2.5, 1
    ),
    "float n_sample": lambda p: monte_carlo(
        p, ZERO_PATTERN, CONTRACT_GRID, 8, 1, n_sample=1.5
    ),
    "float n_rounds": lambda p: play_rounds(
        p.params, Constant(1.0), NN_CONFIG, 1.5, 8, 1, CONTRACT_GRID
    ),
    "negative round seed": lambda p: play_rounds(
        p.params, Constant(1.0), NN_CONFIG, 1, 8, -1, CONTRACT_GRID
    ),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_a_seed_or_count_that_is_not_a_non_negative_integer_is_refused(call):
    policy = FeedbackPolicy.solve(make_params(), ZERO_PATTERN, CONTRACT_GRID)
    with pytest.raises(InputError):
        call(policy)
