"""Network-parameterized pattern optimizer.

A small feedforward net maps time to a pattern value; training minimizes the
Euler-discretized objective by gradient descent with adaptive moments.  The
parameter gradient factors as (objective sensitivity to the node vector,
from the discrete adjoint in euler.py) chained with (network Jacobian at the
nodes, from plain reverse accumulation here), so each half can be checked
against finite differences on its own.  ``nn_gradient`` returns the
objective and the chained gradient that every training epoch steps on.

Every weight and bias is a view into one flat parameter vector, so the
backward pass fills one flat gradient and Adam steps all parameters in one
pass of elementwise operations, which round as they would array by array.
The penalty's anchor is sampled once per training run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, require_count
from ..model import GridConfig, ModelParams
from ..moments import require_closure
from .euler import euler_objective_and_gradient
from .objective import (
    PENALTY_LOGARITHMIC,
    OptimizationReport,
    RedConfig,
    anchor_values,
    finish_report,
)

HIDDEN_WIDTH = 32
N_HIDDEN_LAYERS = 3
DEFAULT_EPOCHS = 500
# converged: the objective moved by at most tolerance (relative) over this
# many final epochs
CONVERGENCE_WINDOW = 50
LEARNING_RATE = 1e-3


# layer widths, input to output, and the number of weights and biases
_DIMS = [1] + [HIDDEN_WIDTH] * N_HIDDEN_LAYERS + [1]
_N_PARAMS = sum(n_out * (n_in + 1) for n_in, n_out in zip(_DIMS[:-1], _DIMS[1:]))


def _layers(theta: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat parameter vector, laid out
    layer by layer, each weight matrix followed by its bias."""
    weights = []
    biases = []
    offset = 0
    for fan_in, fan_out in zip(_DIMS[:-1], _DIMS[1:]):
        size = fan_out * fan_in
        weights.append(theta[offset : offset + size].reshape(fan_out, fan_in))
        offset += size
        biases.append(theta[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


@dataclass(eq=False)
class MlpNetwork:
    """Affine-tanh layers, width 32; exp output keeps the pattern positive.

    ``weights`` and ``biases`` are views into the one flat vector ``theta``,
    which the optimizer updates in place.
    """

    theta: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    positive_output: bool


def init_network(seed: int, positive_output: bool) -> MlpNetwork:
    """Seeded initialization; the output layer starts small so the initial
    pattern is near zero (or near one under the exp output)."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(_N_PARAMS)
    weights, biases = _layers(theta)
    for i, w in enumerate(weights):
        scale = 1.0 / np.sqrt(_DIMS[i])
        if i == len(weights) - 1:
            scale *= 0.1
        w[...] = rng.normal(0.0, scale, size=w.shape)
    return MlpNetwork(theta, weights, biases, positive_output)


def _forward_cache(net: MlpNetwork, t: np.ndarray):
    """Activations per layer for a batch of times (needed for backprop)."""
    a = np.asarray(t, dtype=float).reshape(1, -1)
    activations = [a]
    n_layers = len(net.weights)
    for i in range(n_layers - 1):
        z = net.weights[i] @ a + net.biases[i][:, None]
        a = np.tanh(z)
        activations.append(a)
    z_out = net.weights[-1] @ a + net.biases[-1][:, None]
    out = np.exp(z_out) if net.positive_output else z_out
    return out[0], activations, out


def nn_forward(net: MlpNetwork, t):
    """Pattern value(s) at time(s) t."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out, _, _ = _forward_cache(net, arr)
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def _backprop(net: MlpNetwork, activations, out, upstream: np.ndarray) -> np.ndarray:
    """Flat parameter gradient of sum_j upstream_j * f(t_j), laid out as
    ``net.theta``."""
    dz = np.asarray(upstream, dtype=float).reshape(1, -1)
    if net.positive_output:
        dz = dz * out
    grad = np.empty_like(net.theta)
    grad_w, grad_b = _layers(grad)
    for i in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[i]
        grad_w[i][...] = dz @ a_prev.T
        grad_b[i][...] = dz.sum(axis=1)
        if i > 0:
            da = net.weights[i].T @ dz
            dz = da * (1.0 - a_prev * a_prev)
    return grad


def nn_gradient(
    net: MlpNetwork,
    params: ModelParams,
    config: RedConfig,
    grid: GridConfig,
    anchor: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The Euler objective J_red of the net's pattern at the grid's nodes,
    and d J_red / d theta laid out as ``net.theta``; ``anchor`` holds the
    anchor's node values, from ``anchor_values``."""
    f, activations, out = _forward_cache(net, grid.times())
    objective, bar_f = euler_objective_and_gradient(f, params, config, grid, anchor)
    return objective, _backprop(net, activations, out, bar_f)


class _Adam:
    """First-order moment-adaptive updates of one flat parameter vector."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def update(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1**self.step
        correction2 = 1.0 - b2**self.step
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        theta -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


def nn_solve(
    params: ModelParams,
    config: RedConfig,
    grid: GridConfig,
    seed: int,
    n_epochs: int = DEFAULT_EPOCHS,
) -> OptimizationReport:
    # a bad seed, a velocity target and a log anchor that is not positive
    # fail here, not after training (the Euler objective reads no target)
    require_count("seed", seed, 0)
    require_closure(params, grid)
    anchor = anchor_values(config, grid)
    net = init_network(seed, config.penalty_kind == PENALTY_LOGARITHMIC)
    adam = _Adam(net.theta.size, LEARNING_RATE)
    history: list[float] = []
    # an overflow gives inf or nan with no numpy warning; it is checked once,
    # after training
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_epochs):
            objective, grad = nn_gradient(net, params, config, grid, anchor)
            history.append(objective)
            adam.update(net.theta, grad)
        f_final = nn_forward(net, grid.times())
    # an overflowed moment estimate zeroes every later step, which would
    # pass for convergence
    if not (
        np.all(np.isfinite(history))
        and np.all(np.isfinite(adam.m))
        and np.all(np.isfinite(adam.v))
    ):
        raise NumericError("network training overflowed")
    converged = (
        len(history) > CONVERGENCE_WINDOW
        and abs(history[-1] - history[-1 - CONVERGENCE_WINDOW])
        <= config.tolerance * abs(history[-1])
    )
    return finish_report(
        params, config, grid, f_final, anchor, history, n_epochs, converged
    )
