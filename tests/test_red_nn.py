import numpy as np
import pytest

from redblue import GridConfig, RedConfig
from redblue.red.euler import euler_objective_and_gradient
from redblue.red.nn import (
    CONVERGENCE_WINDOW,
    HIDDEN_WIDTH,
    _forward_cache,
    init_network,
    nn_forward,
    nn_gradient,
    nn_solve,
)
from conftest import make_params


def test_init_network_shapes_and_determinism():
    net = init_network(seed=3, positive_output=False)
    assert [w.shape for w in net.weights] == [
        (HIDDEN_WIDTH, 1),
        (HIDDEN_WIDTH, HIDDEN_WIDTH),
        (HIDDEN_WIDTH, HIDDEN_WIDTH),
        (1, HIDDEN_WIDTH),
    ]
    assert all(np.all(b == 0.0) for b in net.biases)
    again = init_network(seed=3, positive_output=False)
    for w1, w2 in zip(net.weights, again.weights):
        np.testing.assert_array_equal(w1, w2)


def test_zeroed_network_output():
    net = init_network(seed=0, positive_output=False)
    for w in net.weights:
        w[:] = 0.0
    assert nn_forward(net, 0.3) == 0.0
    pos = init_network(seed=0, positive_output=True)
    for w in pos.weights:
        w[:] = 0.0
    # the exp output maps a zero pre-activation to one
    assert nn_forward(pos, 0.3) == 1.0


def test_forward_scalar_matches_batch():
    net = init_network(seed=5, positive_output=True)
    times = np.array([0.0, 0.04, 0.1])
    batch = nn_forward(net, times)
    for t, expected in zip(times, batch):
        assert nn_forward(net, float(t)) == expected


def test_forward_is_smooth_in_time():
    net = init_network(seed=8, positive_output=False)
    t = np.linspace(0.0, 0.1, 1001)
    values = nn_forward(net, t)
    steps = np.abs(np.diff(values))
    assert np.max(steps) < 1e-2


def test_euler_gradient_matches_finite_differences():
    params = make_params(lam=0.07)
    grid = GridConfig(40, 0.1)
    config = RedConfig(lambda_reg=0.5, penalty_kind="quadratic")
    rng = np.random.default_rng(2)
    f = 1.0 + 0.3 * rng.standard_normal(41)
    _, grad = euler_objective_and_gradient(f, params, config, grid)
    step = 1e-6
    for k in (0, 7, 20, 33, 40):
        bumped = f.copy()
        bumped[k] += step
        up = euler_objective_and_gradient(bumped, params, config, grid)[0]
        bumped[k] -= 2.0 * step
        down = euler_objective_and_gradient(bumped, params, config, grid)[0]
        fd = (up - down) / (2.0 * step)
        assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_chained_gradient_matches_finite_differences():
    params = make_params(lam=0.07)
    grid = GridConfig(30, 0.1)
    config = RedConfig(lambda_reg=0.5, penalty_kind="logarithmic", solver="nn")
    net = init_network(seed=4, positive_output=True)
    grad_w, grad_b = nn_gradient(net, params, config, grid)
    times = grid.times()

    def objective():
        f, _, _ = _forward_cache(net, times)
        return euler_objective_and_gradient(f, params, config, grid)[0]

    rng = np.random.default_rng(9)
    step = 1e-6
    for _ in range(6):
        layer = int(rng.integers(0, len(net.weights)))
        i = int(rng.integers(0, net.weights[layer].shape[0]))
        j = int(rng.integers(0, net.weights[layer].shape[1]))
        original = net.weights[layer][i, j]
        net.weights[layer][i, j] = original + step
        up = objective()
        net.weights[layer][i, j] = original - step
        down = objective()
        net.weights[layer][i, j] = original
        fd = (up - down) / (2.0 * step)
        assert grad_w[layer][i, j] == pytest.approx(fd, rel=1e-4, abs=1e-12)
    # bias gradients chain through the same backward pass
    original = net.biases[1][3]
    net.biases[1][3] = original + step
    up = objective()
    net.biases[1][3] = original - step
    down = objective()
    net.biases[1][3] = original
    fd = (up - down) / (2.0 * step)
    assert grad_b[1][3] == pytest.approx(fd, rel=1e-4, abs=1e-12)


def test_nn_solve_report_structure():
    params = make_params(lam=make_params().lam_upper)
    grid = GridConfig(50, 0.1)
    config = RedConfig(lambda_reg=1.0, penalty_kind="quadratic", solver="nn")
    report = nn_solve(params, config, grid, seed=1, n_epochs=5)
    # too few epochs to judge convergence over CONVERGENCE_WINDOW
    assert not report.converged
    assert report.iterations == 5
    assert len(report.objective_history) == 6
    assert report.f_c.values.shape == (51,)


def test_nn_converged_needs_a_settled_objective():
    params = make_params(lam=make_params().lam_upper)
    grid = GridConfig(50, 0.1)
    config = RedConfig(
        lambda_reg=1.0, penalty_kind="quadratic", solver="nn", tolerance=1e-12
    )
    report = nn_solve(params, config, grid, seed=1, n_epochs=60)
    assert CONVERGENCE_WINDOW < 60
    assert not report.converged


def test_nn_solve_descends():
    params = make_params(lam=make_params().lam_upper)
    grid = GridConfig(100, 0.1)
    config = RedConfig(lambda_reg=1.0, penalty_kind="quadratic", solver="nn")
    report = nn_solve(params, config, grid, seed=1, n_epochs=60)
    history = report.objective_history
    assert history[-1] < history[0]


def test_nn_solve_requires_matching_solver():
    config = RedConfig(lambda_reg=1.0, solver="fpi")
    with pytest.raises(ValueError):
        nn_solve(make_params(), config, GridConfig(50, 0.1), seed=0)


def reference_training(seed, params, config, grid, n_epochs):
    """The per-array training loop the flat parameter vector replaced, kept
    as the reference: one weight and one bias array per layer, and Adam
    stepping each array with its own moment slots."""
    rng = np.random.default_rng(seed)
    dims = [1] + [HIDDEN_WIDTH] * 3 + [1]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        scale = 1.0 / np.sqrt(dims[i])
        if i == len(dims) - 2:
            scale *= 0.1
        weights.append(rng.normal(0.0, scale, size=(dims[i + 1], dims[i])))
        biases.append(np.zeros(dims[i + 1]))
    positive = config.penalty_kind == "logarithmic"

    def forward(t):
        a = t.reshape(1, -1)
        activations = [a]
        for i in range(len(weights) - 1):
            a = np.tanh(weights[i] @ a + biases[i][:, None])
            activations.append(a)
        z_out = weights[-1] @ a + biases[-1][:, None]
        out = np.exp(z_out) if positive else z_out
        return out[0], activations, out

    def backprop(activations, out, upstream):
        dz = upstream.reshape(1, -1)
        if positive:
            dz = dz * out
        grad_w = [np.empty_like(w) for w in weights]
        grad_b = [np.empty_like(b) for b in biases]
        for i in range(len(weights) - 1, -1, -1):
            a_prev = activations[i]
            grad_w[i] = dz @ a_prev.T
            grad_b[i] = dz.sum(axis=1)
            if i > 0:
                dz = (weights[i].T @ dz) * (1.0 - a_prev * a_prev)
        return grad_w + grad_b

    arrays = weights + biases
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
    times = grid.times()
    history = []
    for step in range(1, n_epochs + 1):
        f, activations, out = forward(times)
        objective, bar_f = euler_objective_and_gradient(f, params, config, grid)
        history.append(objective)
        correction1 = 1.0 - b1**step
        correction2 = 1.0 - b2**step
        for a, g, m_a, v_a in zip(arrays, backprop(activations, out, bar_f), m, v):
            m_a *= b1
            m_a += (1.0 - b1) * g
            v_a *= b2
            v_a += (1.0 - b2) * g * g
            a -= lr * (m_a / correction1) / (np.sqrt(v_a / correction2) + eps)
    return history, forward(times)[0]


@pytest.mark.parametrize("penalty_kind", ["quadratic", "logarithmic"])
def test_nn_solve_matches_the_per_array_loop_byte_for_byte(penalty_kind):
    params = make_params(lam=0.07)
    grid = GridConfig(30, 0.1)
    config = RedConfig(lambda_reg=0.5, penalty_kind=penalty_kind, solver="nn")
    report = nn_solve(params, config, grid, seed=11, n_epochs=20)
    history, f_final = reference_training(11, params, config, grid, 20)
    assert np.array(report.objective_history[:-1]).tobytes() == np.array(history).tobytes()
    assert report.f_c.values.tobytes() == f_final.tobytes()
