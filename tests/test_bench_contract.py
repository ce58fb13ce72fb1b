"""What the benchmark harness in ``bench/`` calls still exists and works.

The harness is run against each commit as it stands, so a refactor that
renames or deletes a function it hooks or imports, or breaks an oracle it
computes, would otherwise show only when the benchmark runs (its lazy
imports turn a missing name into rows that read None).  Nothing here edits
``bench/``.
"""

import ast
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Hooks whose function is deleted on purpose, with its metrics reading None.
# The traced RK4 loop steps backward only; every solve it ran forward went.
EXPECTED_ABSENT = {"redblue.odeint.integrate_forward"}


def _resolves(dotted: str) -> bool:
    """Whether a dotted name under ``redblue`` is a module or an attribute
    reached from the longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _in_redblue(dotted: str) -> bool:
    return dotted.split(".")[0] == "redblue"


def missing_redblue_names(source: str) -> list[str]:
    """Names that ``source`` imports from redblue, or reaches as a
    ``redblue.<attr>`` chain, and that do not resolve."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _in_redblue(node.module or ""):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if _in_redblue(a.name))
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "redblue":
                names.add(".".join(["redblue", *reversed(chain)]))
    return sorted(name for name in names if not _resolves(name))


def test_missing_names_check_flags_a_deleted_name():
    source = (
        "import redblue\n"
        "import redblue.cli\n"
        "from redblue.cli import main, gone\n"
        "redblue.FeedbackPolicy.solve(1)\n"
        "redblue.FeedbackPolicy.vanished\n"
        "redblue.nowhere.deeper\n"
    )
    assert missing_redblue_names(source) == [
        "redblue.FeedbackPolicy.vanished",
        "redblue.cli.gone",
        "redblue.nowhere",
        "redblue.nowhere.deeper",
    ]


def test_every_name_bench_imports_resolves():
    found = {
        path.name: missing
        for path in sorted(BENCH.glob("*.py"))
        if (missing := missing_redblue_names(path.read_text()))
    }
    assert found == {}


@pytest.fixture
def bench(monkeypatch):
    # the harness imports its modules by their bare names
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    yield tracing, workloads
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_every_hook_resolves(bench):
    tracing, _ = bench
    absent = {
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.HOOKS
        if tracing._resolve(module, attr) is None
    }
    assert absent == EXPECTED_ABSENT


def test_mc_ensemble_oracle_is_finite(bench):
    _, workloads = bench
    workload = workloads.McEnsemble(1)
    workload.prepare()
    assert math.isfinite(workload.oracle)


def test_readme_config_is_the_readme_example(bench):
    # the benchmark runs the README's example config; a change to either
    # must show here, not as a benchmark that no longer runs the README
    from test_cli import README_DOC

    _, workloads = bench
    assert workloads.README_CONFIG == README_DOC


@pytest.mark.parametrize("batch", [(), (3,)])
def test_solve_stack_steps_f_in_one_odeint_span(bench, batch):
    # odeint.calls, odeint.steps and odeint.us_per_step count F's solves:
    # solve_stack steps F through integrate_backward, whose grid the
    # harness reads, once per call, for one pattern and for a batch
    tracing, _ = bench
    from conftest import make_params
    from redblue import GridConfig, moments

    grid = GridConfig(50, 0.1)
    nodes = np.ones((*batch, grid.n_steps + 1))
    tracer = tracing.Tracer()
    _, spans, _ = tracer.record(
        lambda: moments.solve_stack(make_params(), nodes, grid)
    )
    assert set(tracer.absent_hooks) == EXPECTED_ABSENT
    odeint = [span for span in spans if span.name == "odeint"]
    assert [span.info for span in odeint] == [{"steps": grid.n_steps}]


def test_solve_value_coeffs_steps_in_one_odeint_span(bench):
    # odeint.* counts riccati's solves too: solve_value_coeffs steps its six
    # lines through integrate_backward once per call
    tracing, _ = bench
    from conftest import make_params
    from redblue import GridConfig, Pattern, Sinusoid, riccati

    grid = GridConfig(50, 0.1)
    pattern = Pattern(Sinusoid(1.0, 20.0), Sinusoid(0.5, 10.0))
    tracer = tracing.Tracer()
    _, spans, _ = tracer.record(
        lambda: riccati.solve_value_coeffs(make_params(), pattern, grid)
    )
    assert set(tracer.absent_hooks) == EXPECTED_ABSENT
    odeint = [span for span in spans if span.name == "odeint"]
    assert [span.info for span in odeint] == [{"steps": grid.n_steps}]
