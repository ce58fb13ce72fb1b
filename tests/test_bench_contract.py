"""What the benchmark harness in ``bench/`` calls still exists and works.

The harness is run against each commit as it stands, so a refactor that
renames or deletes a function it hooks, or breaks an oracle it computes,
would otherwise show only when the benchmark runs.  Nothing here edits
``bench/``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Hooks whose function is deleted on purpose, with its metrics reading None.
# The traced RK4 loop steps backward only; every solve it ran forward went.
EXPECTED_ABSENT = {"redblue.odeint.integrate_forward"}


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
