"""redblue benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc-ensemble --seed 1 --seconds 15 --trace 0

The workload's commands run through ``redblue.cli.main`` in this process,
from the sources in ``src/``.  One untimed warm-up iteration comes first;
then iterations repeat, each starting when the previous one ends, until
``--seconds`` have passed and at least five have run.  Every output is
checked (see workloads.py).

``--trace 0`` measures the end-to-end metrics with no hooks in place.
``wall_s`` and ``setup_s`` are medians of samples scaled to the nominal
speed of a fixed reference kernel run before and after each sample (see
reference.py), so the shared host's drift does not read as a change to
redblue; the raw seconds are in the report line.
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics of BENCHMARK.json; the spans are kept in memory and
written to ``.bench_build/trace-<workload>-seed<seed>.jsonl`` at the end.

Human-readable lines and a JSON report come first; the last line of
standard output is the result object.  Exit code 0 means the run finished
(``correct`` says whether every output passed its checks); 2 means the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))

from reference import NOMINAL_S, reference_seconds, repeats_for, scale  # noqa: E402
from workloads import WORKLOADS, Runner, setup_code  # noqa: E402

SETUP_REPEATS = 11
# At least five timed iterations, so one or two disturbed iterations cannot
# move the median of a workload whose iterations are long (nn-rounds).
MIN_SAMPLES = 5


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# statistics


def summarize(samples: list[float]) -> dict:
    """Sample count, median and quartiles; a higher percentile only when at
    least ten samples lie beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    out = {"n": n, "median": median, "q1": q1, "q3": q3}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(ordered, n=100)[pct - 1]
            break
    return out


def median_or_none(values):
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


# ---------------------------------------------------------------------------
# provenance


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(seed: int) -> dict:
    import numpy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        caches.append({
            "level": _read(f"{index}/level"),
            "type": _read(f"{index}/type"),
            "size": _read(f"{index}/size"),
        })
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "redblue").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# running


class Session:
    """Runs one workload's ops and keeps every result for the counts."""

    def __init__(self, workload, runner: Runner):
        self.workload = workload
        self.runner = runner
        self.results = []
        self.reference = {}

    def run_op(self, op):
        result = self.runner.run(op)
        if not result.problems:
            try:
                result.problems.extend(self.workload.check(result))
            except (KeyError, TypeError, ValueError) as exc:
                result.problems.append(f"output check could not read: {exc!r}")
        ref = self.reference.setdefault(op.label, result)
        if ref is not result:
            if (result.outputs, result.stdout) != (ref.outputs, ref.stdout):
                result.problems.append(f"outputs differ from the first run of {op.label}")
            result.outputs = {}  # keep memory flat across iterations
        self.results.append(result)
        return result

    def iteration(self) -> float:
        """Run every op once; the iteration's seconds inside cli.main."""
        return sum(self.run_op(op).seconds for op in self.workload.iteration_ops())

    def loop(self, budget: float, run_iteration=None, min_samples: int = 1) -> list:
        """Iterate for ``budget`` seconds, give or take half an iteration,
        and at least ``min_samples`` times; return each iteration's seconds."""
        run_iteration = run_iteration or self.iteration
        samples = []
        start = time.perf_counter()
        while True:
            samples.append(run_iteration())
            if (len(samples) >= min_samples
                    and time.perf_counter() - start + samples[-1] / 2.0 >= budget):
                return samples


def measure_setup(workload, runner: Runner) -> tuple[list[float], list[float]]:
    """Fresh interpreters that import redblue and build the RunConfig, each
    bracketed by reference runs; return (raw seconds, reference seconds)."""
    config = runner.config_path(workload.iteration_ops()[0])
    code = setup_code(SRC, config)
    samples, references = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
            )
        except subprocess.TimeoutExpired:
            raise BenchError("set-up interpreter did not finish in 120 s") from None
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        references.append(reference_seconds())
    return samples, references


def end_to_end(session: Session, seconds: float, report: dict) -> dict:
    workload = session.workload
    setup, setup_refs = measure_setup(workload, session.runner)
    workload.prepare()
    repeats = repeats_for(session.iteration())  # warm-up, also the reference outputs
    references = [reference_seconds(repeats)]

    def paired_iteration():
        wall = session.iteration()
        references.append(reference_seconds(repeats))
        return wall

    walls = session.loop(seconds, paired_iteration, MIN_SAMPLES)
    setup_scaled = scale(setup, setup_refs)
    walls_scaled = scale(walls, references)
    report["setup_s_raw"] = summarize(setup)
    report["setup_s"] = summarize(setup_scaled)
    report["wall_s_raw"] = summarize(walls)
    report["wall_s"] = summarize(walls_scaled)
    report["reference_s"] = summarize(setup_refs + references)
    report["reference_nominal_s"] = NOMINAL_S
    report["iterations"] = {"warm_up": 1, "measured": len(walls)}
    report["reference_repeats"] = repeats
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(walls_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    paths = workload.paths_per_iteration()
    if paths:
        report["paths_per_s"] = paths / metrics["wall_s"]
    if workload.threads2_op() is not None:
        session.run_op(workload.threads2_op())
    return metrics


def traced(session: Session, seconds: float, seed: int, report: dict) -> dict:
    from table import table_rows
    from tracing import LayerView, Tracer, ratio, layer_metrics

    workload = session.workload
    tracer = Tracer()
    workload.prepare()
    session.iteration()  # warm-up, also the reference outputs
    plain = session.loop(seconds / 2.0)

    per_iteration = []
    shares = []

    def traced_iteration():
        wall, spans, record_wall = tracer.record(session.iteration)
        view = LayerView(spans, tracer.absent_spans)
        per_iteration.append(layer_metrics(view))
        shares.append(view.layer_shares(record_wall))
        return wall

    walls = session.loop(seconds / 2.0, traced_iteration)
    names = per_iteration[0].keys()
    metrics = {n: median_or_none([m[n] for m in per_iteration]) for n in names}
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)

    # 0 on workloads without a threads=2 rerun
    metrics["sde.mc_t2.s"] = metrics["sde.mc_t2_over_t1"] = 0.0
    op = workload.threads2_op()
    if op is not None:
        _, spans, _ = tracer.record(lambda: session.run_op(op))
        t2 = LayerView(spans, tracer.absent_spans).seconds("sde.mc")
        metrics["sde.mc_t2.s"] = t2
        metrics["sde.mc_t2_over_t1"] = ratio(t2, metrics["sde.mc.s"])

    metrics.update(table_rows(tracer, seed))
    BUILD.mkdir(exist_ok=True)
    trace_file = BUILD / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_file)
    report["iterations"] = {"warm_up": 1, "untraced": len(plain), "traced": len(walls)}
    report["wall_s_untraced"] = summarize(plain)
    report["wall_s_traced"] = summarize(walls)
    report["layer_self_share"] = {
        k: statistics.median(s[k] for s in shares) for k in shares[0]
    }
    report["absent_hooks"] = tracer.absent_hooks
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics


def run(args, spec: dict) -> tuple[dict, dict]:
    """Run the workload; return (the result object, the full report)."""
    workload = WORKLOADS[args.workload](args.seed)
    work = BUILD / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"workload": workload.name, "why": why.get(workload.name),
              "provenance": provenance(args.seed), "seconds": args.seconds}
    try:
        session = Session(workload, Runner(work))
        if args.trace:
            metrics = traced(session, args.seconds, args.seed, report)
            declared = spec["per_layer"]
        else:
            metrics = end_to_end(session, args.seconds, report)
            declared = spec["end_to_end"]
        probe = workload.probe_op()
        if probe is not None:
            result = session.runner.run(probe)
            report["probe"] = {
                "command": probe.command,
                "config": "README example, unmodified",
                "exit_code": result.exit_code,
                "failed": result.failed,
                "stderr": result.stderr.strip(),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = session.results
    failed = [r for r in results if r.failed]
    probe_failed = int(report.get("probe", {}).get("failed", False))
    probe_tried = int("probe" in report)
    report["operations"] = {"attempted": len(results), "failed": len(failed)}
    report["failed_frac"] = (len(failed) + probe_failed) / (len(results) + probe_tried)
    report["problems"] = sorted({p for r in failed for p in r.problems})
    report["metrics"] = metrics
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
            for m in declared
        },
    }, report


def print_summary(result: dict, report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['provenance']['workload_seed']}"
          f"  correct {result['correct']}  failed {result['failed']}"
          f"/{result['attempted']}  failed_frac {report['failed_frac']:.4g}")
    if "probe" in report:
        p = report["probe"]
        print(f"  known-defect probe ({p['command']}, {p['config']}): "
              f"exit {p['exit_code']} {p['stderr']!r}, counted in failed_frac")
    for key in ("setup_s_raw", "setup_s", "wall_s_raw", "wall_s", "reference_s",
                "wall_s_untraced", "wall_s_traced"):
        if key in report:
            s = report[key]
            print(f"  {key:16s} median {s['median']:.4f} s  q1 {s['q1']:.4f}"
                  f"  q3 {s['q3']:.4f}  n {s['n']}")
    if "paths_per_s" in report:
        print(f"  paths_per_s      {report['paths_per_s']:.1f} 1/s")
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {value} {m['unit']}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "redblue" / "__init__.py").is_file():
        print(f"bench: no redblue sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import redblue.cli  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import redblue: {exc}", file=sys.stderr)
        return 2
    try:
        result, report = run(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_summary(result, report)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
