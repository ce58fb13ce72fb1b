"""Network-parameterized pattern optimizer.

A small feedforward net maps time to a pattern value; training minimizes the
Euler-discretized objective by gradient descent with adaptive moments.  The
parameter gradient factors as (objective sensitivity to the node vector,
from the discrete adjoint in euler.py) chained with (network Jacobian at the
nodes, from plain reverse accumulation here), so each half can be checked
against finite differences on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import GridConfig, ModelParams
from .euler import euler_objective_and_gradient
from .objective import (
    PENALTY_LOGARITHMIC,
    SOLVER_NN,
    OptimizationReport,
    RedConfig,
    finish_report,
)

HIDDEN_WIDTH = 32
N_HIDDEN_LAYERS = 3
DEFAULT_EPOCHS = 500
# converged: the objective moved by at most tolerance (relative) over this
# many final epochs
CONVERGENCE_WINDOW = 50
LEARNING_RATE = 1e-3


@dataclass(eq=False)
class MlpNetwork:
    """Affine-tanh layers, width 32; exp output keeps the pattern positive."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    positive_output: bool


def init_network(seed: int, positive_output: bool) -> MlpNetwork:
    """Seeded initialization; the output layer starts small so the initial
    pattern is near zero (or near one under the exp output)."""
    rng = np.random.default_rng(seed)
    dims = [1] + [HIDDEN_WIDTH] * N_HIDDEN_LAYERS + [1]
    weights = []
    biases = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        scale = 1.0 / np.sqrt(fan_in)
        if i == len(dims) - 2:
            scale *= 0.1
        weights.append(rng.normal(0.0, scale, size=(dims[i + 1], dims[i])))
        biases.append(np.zeros(dims[i + 1]))
    return MlpNetwork(weights, biases, positive_output)


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


def _backprop(net: MlpNetwork, activations, out, upstream: np.ndarray):
    """Parameter gradient of sum_j upstream_j * f(t_j)."""
    dz = np.asarray(upstream, dtype=float).reshape(1, -1)
    if net.positive_output:
        dz = dz * out
    grad_w = [np.empty_like(w) for w in net.weights]
    grad_b = [np.empty_like(b) for b in net.biases]
    for i in range(len(net.weights) - 1, -1, -1):
        a_prev = activations[i]
        grad_w[i] = dz @ a_prev.T
        grad_b[i] = dz.sum(axis=1)
        if i > 0:
            da = net.weights[i].T @ dz
            dz = da * (1.0 - a_prev * a_prev)
    return grad_w, grad_b


def nn_gradient(
    net: MlpNetwork, params: ModelParams, config: RedConfig, grid: GridConfig
):
    """d J_red / d theta as (weight gradients, bias gradients)."""
    times = grid.times()
    f, activations, out = _forward_cache(net, times)
    _, bar_f = euler_objective_and_gradient(f, params, config, grid)
    return _backprop(net, activations, out, bar_f)


class _Adam:
    """First-order moment-adaptive updates, one slot per parameter array."""

    def __init__(self, arrays, lr: float):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.step = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def update(self, arrays, grads) -> None:
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1**self.step
        correction2 = 1.0 - b2**self.step
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            a -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


def nn_solve(
    params: ModelParams,
    config: RedConfig,
    grid: GridConfig,
    seed: int,
    n_epochs: int = DEFAULT_EPOCHS,
) -> OptimizationReport:
    if config.solver != SOLVER_NN:
        raise ValueError(f"config selects solver {config.solver!r}, not nn")
    net = init_network(seed, config.penalty_kind == PENALTY_LOGARITHMIC)
    times = grid.times()
    arrays = net.weights + net.biases
    adam = _Adam(arrays, LEARNING_RATE)
    history: list[float] = []
    for _ in range(n_epochs):
        f, activations, out = _forward_cache(net, times)
        objective, bar_f = euler_objective_and_gradient(f, params, config, grid)
        history.append(objective)
        grad_w, grad_b = _backprop(net, activations, out, bar_f)
        adam.update(arrays, grad_w + grad_b)
    f_final, _, _ = _forward_cache(net, times)
    converged = (
        len(history) > CONVERGENCE_WINDOW
        and abs(history[-1] - history[-1 - CONVERGENCE_WINDOW])
        <= config.tolerance * abs(history[-1])
    )
    return finish_report(params, config, grid, f_final, history, n_epochs, converged)
