"""A fixed reference kernel, timed beside the workload to take the shared
host's speed drift out of the gated times.

The host this benchmark runs on shares its cores with other machines, and
their load makes the same code run 15-25% faster or slower from one minute
to the next.  Each timed sample is therefore bracketed by two runs of this
kernel (for long samples, two means of a few runs), which is the same work
every time and touches no ``redblue`` code, and the sample is scaled by
``NOMINAL_S`` over their mean:

    scaled = seconds * NOMINAL_S / mean(reference before, reference after)

A scaled time reads as the seconds the sample would have taken on a host
where this kernel takes ``NOMINAL_S``.  A change to redblue moves the
sample and not the kernel, so it shows in full; a host slowdown moves both
and cancels.  The kernel mixes pure-Python arithmetic, many small numpy
operations and passes over a 20k-element array, the mix of redblue's RK4
loops and Monte Carlo steps, because that mix tracked the workloads' drift
most closely.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median seconds on the machine where the benchmark was
# defined (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
NOMINAL_S = 0.18

_A = np.diag([-0.5, -0.4, -0.3, -0.2, -0.1, 0.1]) + 0.01
_DT = 0.01


def _python_part(n: int = 300_000) -> float:
    total = 0.0
    for i in range(n):
        total += (i * 0.5) % 7.0
    return total


def _numpy_part(n: int = 6_000) -> float:
    y = np.ones(6)
    a, h = _A, _DT
    for _ in range(n):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y.sum())


_X = np.linspace(-1.0, 1.0, 20_000)
_KICKS = np.sin(np.arange(10 * 20_000, dtype=float) * 0.37).reshape(10, 20_000)


def _array_part(sweeps: int = 40) -> float:
    x = _X.copy()
    total = np.zeros_like(x)
    for _ in range(sweeps):
        for kick in _KICKS:
            x = x - _DT * x + 0.1 * kick
            total += x * x
    return float(total.sum())


def reference_seconds(repeats: int = 1) -> float:
    """Mean seconds of ``repeats`` back-to-back runs of the kernel."""
    start = time.perf_counter()
    for _ in range(repeats):
        _python_part()
        _numpy_part()
        _array_part()
    return (time.perf_counter() - start) / repeats


def repeats_for(sample_seconds: float) -> int:
    """Kernel runs per reference for samples this long: one per two seconds
    of sample, so that on long samples the short kernel's own jitter does
    not outweigh the drift it is there to remove."""
    return max(1, round(sample_seconds / 2.0))


def scale(seconds: list[float], references: list[float]) -> list[float]:
    """Scale sample i by NOMINAL_S over the mean of the reference runs just
    before and just after it (``references`` has one more entry)."""
    if len(references) != len(seconds) + 1:
        raise ValueError("need one reference run before each sample and one after the last")
    return [
        s * NOMINAL_S / ((before + after) / 2.0)
        for s, before, after in zip(seconds, references, references[1:])
    ]
