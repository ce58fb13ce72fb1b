"""What the benchmark harness in ``bench/`` calls still exists and works.

The harness is run against each commit as it stands, so a refactor that
renames or deletes a function it hooks, or breaks an oracle it computes,
would otherwise show only when the benchmark runs.  Nothing here edits
``bench/``.
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Hooks whose function is deleted on purpose, with its metrics reading None.
EXPECTED_ABSENT: set[str] = set()


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
