"""In-memory timing spans around redblue's layer functions, and the
per-layer metrics derived from them.

Nothing in ``src/`` is edited.  ``Tracer.record`` looks each hooked
function up in the module that defines it, then replaces every module
attribute in ``redblue.*`` that is that same object, so calls made through
each import site (``redblue.cli.solve_value_coeffs``,
``redblue.red.objective.solve_value_coeffs``, ...) and through module
globals (``redblue.sde._step_paths``) are all recorded.  A hook whose
function no longer exists is reported as absent, and the metrics that
depend on it read ``None``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass(eq=False, slots=True)
class Span:
    name: str
    site: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(bound, name):
    return bound.arguments.get(name)


def _write_info(bound, result):
    path = _arg(bound, "path")
    return {"bytes": os.path.getsize(path)}


def _odeint_info(bound, result):
    return {"steps": _arg(bound, "grid").n_steps}


def _ensemble_info(bound, result):
    n_paths = _arg(bound, "n_paths")
    n_steps = _arg(bound, "grid").n_steps
    return {"paths": n_paths, "noise_bytes": n_paths * n_steps * 2 * 8}


def _path_info(bound, result):
    return {"paths": 1, "noise_bytes": _arg(bound, "grid").n_steps * 2 * 8}


def _report_info(bound, result):
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "history": list(result.objective_history),
    }


def _rounds_info(bound, result):
    return {"rounds": len(result)}


# (defining module, attribute path, span name, info extractor)
HOOKS = [
    ("redblue.cli", "build_run_config", "cli.config", None),
    ("redblue.cli", "write_csv", "cli.write", _write_info),
    ("redblue.cli", "write_json", "cli.write", _write_info),
    ("redblue.cli", "write_svg", "cli.write", _write_info),
    ("redblue.model", "sample_on_grid", "model.sample", None),
    ("redblue.model", "sample_on_half_grid", "model.sample", None),
    ("redblue.odeint", "integrate_forward", "odeint", _odeint_info),
    ("redblue.odeint", "integrate_backward", "odeint", _odeint_info),
    ("redblue.riccati", "solve_value_coeffs", "riccati.solve", None),
    ("redblue.moments", "solve_moments", "moments.solve", None),
    ("redblue.moments", "expected_log_lr", "moments.elr", None),
    ("redblue.controls", "FeedbackPolicy.__post_init__", "controls.policy", None),
    ("redblue.sde", "monte_carlo", "sde.mc", _ensemble_info),
    ("redblue.sde", "sample_paths", "sde.sample_paths", _ensemble_info),
    ("redblue.sde", "simulate_path", "sde.path", _path_info),
    ("redblue.sde", "mix_seed", "sde.seed", None),
    ("redblue.sde", "_step_paths", "sde.step", None),
    ("redblue.sde", "_primary_costs", "sde.reduce", None),
    ("redblue.sde", "_log_lrs", "sde.reduce", None),
    ("redblue.red.objective", "solve_stack", "red.solve_stack", None),
    ("redblue.red.fpi", "fpi_solve", "red.fpi", _report_info),
    ("redblue.red.fbs", "fbs_solve", "red.fbs", _report_info),
    ("redblue.red.fbs", "solve_adjoint", "red.fbs.adjoint", None),
    ("redblue.red.nn", "nn_solve", "red.nn", _report_info),
    ("redblue.red.euler", "euler_objective_and_gradient", "red.euler", None),
    ("redblue.stackelberg", "play_rounds", "stackelberg.rounds", _rounds_info),
    ("redblue.stackelberg", "baseline_summary", "stackelberg.baseline", None),
    ("redblue.stackelberg", "solve_red", "stackelberg.solve_red", None),
]

# Spans whose self time is the Monte Carlo noise generation: everything an
# ensemble does outside its seeding, stepping and reduction children.
_ENSEMBLE_SPANS = ("sde.mc", "sde.sample_paths", "sde.path")


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name, function) or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Keeps every span in memory; hooks are in place only inside ``record``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent_hooks: list[str] = []
        self.absent_spans: set[str] = set()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _install(self) -> None:
        self.absent_hooks = []
        installed = set()
        for module_name, attr_path, name, info in HOOKS:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.absent_hooks.append(f"{module_name}.{attr_path}")
                continue
            installed.add(name)
            owner, attr, fn = found
            if owner is not sys.modules.get(module_name):
                # a method: patch the class itself
                self._patch(owner, attr, self._wrap(fn, name, module_name, info))
                continue
            for site_name, site in list(sys.modules.items()):
                if site_name != "redblue" and not site_name.startswith("redblue."):
                    continue
                for key, value in list(vars(site).items()):
                    if value is fn:
                        self._patch(site, key, self._wrap(fn, name, site_name, info))
        self.absent_spans = {name for _, _, name, _ in HOOKS} - installed

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, site: str, info):
        spans = self.spans
        local = self._local
        signature = inspect.signature(fn) if info is not None else None

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(
                name,
                site,
                time.perf_counter(),
                parent=stack[-1] if stack else None,
                thread=threading.get_ident(),
            )
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                try:
                    span.info = info(signature.bind(*args, **kwargs), result)
                except (TypeError, AttributeError, OSError):
                    span.info = {"error": True}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self, fn):
        """Run ``fn()`` traced; return (its result, its spans, wall seconds)."""
        first = len(self.spans)
        self._install()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            self._uninstall()
        return result, self.spans[first:], wall

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": span.name,
                    "site": span.site,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else ids[id(span.parent)],
                    "thread": span.thread,
                }
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of the intervals its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(span)] = span.duration - covered
    return out


def ratio(num, den):
    """num / den; None if either is absent, 0 when the base is 0 (no work)."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _halvings(history: list[float], iterations: int) -> int:
    steps = history[:iterations]
    return sum(1 for a, b in zip(steps, steps[1:]) if b > a)


class LayerView:
    """Per-layer metrics of one traced workload iteration.

    Calls and durations count only the outermost span of a name, so a
    function that calls itself, or ``integrate_backward`` calling
    ``integrate_forward``, is not counted twice.
    """

    def __init__(self, spans: list[Span], absent_spans: set[str]):
        self.spans = spans
        self.absent_spans = absent_spans
        self._self = self_times(spans)
        self._outer: dict[str, list[Span]] = {}
        for span in spans:
            parent = span.parent
            while parent is not None and parent.name != span.name:
                parent = parent.parent
            if parent is None:
                self._outer.setdefault(span.name, []).append(span)

    def gone(self, *names) -> bool:
        return any(n in self.absent_spans for n in names)

    def outer(self, name) -> list[Span] | None:
        return None if self.gone(name) else self._outer.get(name, [])

    def calls(self, name, site=None):
        spans = self.outer(name)
        if spans is None:
            return None
        return sum(1 for s in spans if site is None or s.site == site)

    def seconds(self, name):
        spans = self.outer(name)
        return None if spans is None else sum(s.duration for s in spans)

    def self_seconds(self, *names):
        if self.gone(*names):
            return None
        return sum(self._self[id(s)] for s in self.spans if s.name in names)

    def info_sum(self, name, key):
        spans = self.outer(name)
        if spans is None or any(key not in s.info for s in spans):
            return None
        return sum(s.info[key] for s in spans)

    def reports(self, name):
        spans = self.outer(name)
        return None if spans is None else [s.info for s in spans]

    def layer_shares(self, wall: float) -> dict[str, float]:
        """Self time of each layer (first part of the span name) over wall;
        ``untraced`` is the part of wall outside every span."""
        shares: dict[str, float] = {}
        for span in self.spans:
            layer = span.name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + self._self[id(span)]
        covered = sum(s.duration for s in self.spans if s.parent is None)
        shares["untraced"] = wall - covered
        return {k: v / wall for k, v in sorted(shares.items())}


def layer_metrics(view: LayerView) -> dict[str, float | None]:
    """Every per-layer metric of one iteration, by name (None if absent)."""
    m: dict[str, float | None] = {}
    m["cli.config.s"] = view.seconds("cli.config")
    m["cli.write.s"] = view.seconds("cli.write")
    m["cli.write.bytes"] = view.info_sum("cli.write", "bytes")
    m["cli.coeff_resolves"] = view.calls("riccati.solve", site="redblue.cli")
    m["model.sample.calls"] = view.calls("model.sample")
    m["model.sample.s"] = view.seconds("model.sample")

    m["odeint.calls"] = view.calls("odeint")
    m["odeint.steps"] = view.info_sum("odeint", "steps")
    m["odeint.s"] = view.seconds("odeint")
    us = ratio(m["odeint.s"], m["odeint.steps"])
    m["odeint.us_per_step"] = None if us is None else us * 1e6
    m["riccati.solve.calls"] = view.calls("riccati.solve")
    m["riccati.solve.s"] = view.seconds("riccati.solve")
    m["moments.solve.calls"] = view.calls("moments.solve")
    m["moments.solve.s"] = view.seconds("moments.solve")
    m["moments.elr.calls"] = view.calls("moments.elr")
    m["controls.policy.calls"] = view.calls("controls.policy")
    m["controls.policy.s"] = view.seconds("controls.policy")

    m["sde.mc.calls"] = view.calls("sde.mc")
    m["sde.mc.s"] = view.seconds("sde.mc")
    paths = [view.info_sum(n, "paths") for n in _ENSEMBLE_SPANS]
    noise = [view.info_sum(n, "noise_bytes") for n in _ENSEMBLE_SPANS]
    m["sde.paths"] = None if None in paths else sum(paths)
    m["sde.seed.calls"] = view.calls("sde.seed")
    m["sde.seed.s"] = view.self_seconds("sde.seed")
    m["sde.step.s"] = view.self_seconds("sde.step")
    m["sde.reduce.s"] = view.self_seconds("sde.reduce")
    m["sde.noise.s"] = view.self_seconds(*_ENSEMBLE_SPANS)
    m["sde.noise.bytes"] = None if None in noise else sum(noise)
    m["sde.sample_paths.s"] = view.seconds("sde.sample_paths")

    m["red.solve_stack.calls"] = view.calls("red.solve_stack")
    m["red.solve_stack.s"] = view.seconds("red.solve_stack")
    fpi = view.reports("red.fpi")
    fbs = view.reports("red.fbs")
    nn = view.reports("red.nn")
    m["red.fpi.iterations"] = _report_sum(fpi, lambda r: r["iterations"])
    m["red.fbs.iterations"] = _report_sum(fbs, lambda r: r["iterations"])
    m["red.fbs.omega_halvings"] = _report_sum(
        fbs, lambda r: _halvings(r["history"], r["iterations"])
    )
    m["red.fbs.adjoint.calls"] = view.calls("red.fbs.adjoint")
    m["red.fbs.adjoint.s"] = view.seconds("red.fbs.adjoint")
    solved = None if None in (fpi, fbs, nn) else fpi + fbs + nn
    converged = _report_sum(solved, lambda r: r["converged"])
    m["red.converged_frac"] = (
        None if converged is None else ratio(converged, len(solved))
    )
    m["red.nn.epochs"] = _report_sum(nn, lambda r: r["iterations"])
    m["red.euler.calls"] = view.calls("red.euler")
    m["red.euler.s"] = view.seconds("red.euler")

    m["stackelberg.rounds.s"] = view.seconds("stackelberg.rounds")
    m["stackelberg.baseline.s"] = view.seconds("stackelberg.baseline")
    if view.gone("stackelberg.solve_red", "stackelberg.rounds"):
        m["stackelberg.red_solves"] = None
        m["stackelberg.red_solves_used_ratio"] = None
    else:
        solves = sum(
            1 for s in view.spans
            if s.name == "stackelberg.solve_red"
            and s.parent is not None and s.parent.name == "stackelberg.rounds"
        )
        rounds = view.info_sum("stackelberg.rounds", "rounds")
        used = None if rounds is None else min(solves, max(rounds - 1, 0))
        m["stackelberg.red_solves"] = solves
        m["stackelberg.red_solves_used_ratio"] = ratio(used, solves)
    return m


def _report_sum(reports, fn):
    if reports is None or any("iterations" not in r for r in reports):
        return None
    return sum(fn(r) for r in reports)
