import numpy as np
import pytest
from hypothesis import settings

from redblue import Affine, Constant, GridConfig, ModelParams, NonFiniteStateError

# Property tests draw the same examples on every run, so the suite stays
# deterministic; the simulations they call are too slow for a deadline.
settings.register_profile("redblue", derandomize=True, deadline=None, database=None)
settings.load_profile("redblue")


def make_params(**overrides) -> ModelParams:
    """A valid mid-range parameter set; override fields per test."""
    base = dict(
        horizon=0.1,
        sigma_b=0.1,
        sigma_w=0.1,
        r_alpha=1.0,
        r_beta=10.0,
        r_v=1.0,
        t_v=1.0,
        vbar=Constant(0.0),
        vbar_final=0.0,
        lam=0.05,
        v0=1.0,
        y0=2.0,
    )
    base.update(overrides)
    return ModelParams(**base)


def tracking_params(lam: float) -> ModelParams:
    """Long-horizon tracking regime with a decaying velocity target."""
    return ModelParams(
        horizon=1.0,
        sigma_b=0.25,
        sigma_w=0.25,
        r_alpha=1.0,
        r_beta=10.0,
        r_v=1.0,
        t_v=1.0,
        vbar=Affine(2.0, -1.0),
        vbar_final=1.0,
        lam=lam,
        v0=2.0,
        y0=4.0,
    )


def short_params(lam: float = 0.1) -> ModelParams:
    """Short-horizon regime where the payoff dominates the interaction."""
    return make_params(lam=lam)


def random_params(rng: np.random.Generator, lam_mode: str = "any") -> ModelParams:
    """Random draw from the valid parameter region.

    lam_mode: "any" uniform on [0, bound]; "zero" forces 0;
    "full" forces the bound; "upper" uniform on (bound/2, bound].
    """
    r_beta = rng.uniform(2.0, 12.0)
    sigma_w = rng.uniform(0.08, 0.4)
    bound = r_beta * sigma_w**2
    if lam_mode == "zero":
        lam = 0.0
    elif lam_mode == "full":
        lam = bound
    elif lam_mode == "upper":
        lam = bound * rng.uniform(0.5001, 1.0)
    else:
        lam = bound * rng.uniform(0.0, 1.0)
    return ModelParams(
        horizon=rng.uniform(0.2, 1.2),
        sigma_b=rng.uniform(0.05, 0.4),
        sigma_w=sigma_w,
        r_alpha=rng.uniform(0.5, 4.0),
        r_beta=r_beta,
        r_v=rng.uniform(0.2, 3.0),
        t_v=rng.uniform(0.2, 3.0),
        vbar=Affine(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0)),
        vbar_final=rng.uniform(-1.0, 1.5),
        lam=lam,
        v0=rng.uniform(-2.0, 2.0),
        y0=rng.uniform(-2.0, 3.0),
    )


def states_or_node(solve, *args):
    """What ``solve`` returns, or the node its NonFiniteStateError names:
    the reason up to its first colon, "non-finite state at t=..."."""
    try:
        return solve(*args)
    except NonFiniteStateError as exc:
        return str(exc).split(":")[0]


def assert_within_column_max(got, want, bound):
    """Every entry of ``got`` is within ``bound`` times the max |value| of
    its column of ``want``."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= bound * scale)


@pytest.fixture
def short_grid() -> GridConfig:
    return GridConfig(200, 0.1)
