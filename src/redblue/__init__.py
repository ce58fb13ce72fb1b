"""Misdirection-aware linear-quadratic control and pattern optimization."""

from .controls import FeedbackPolicy
from .errors import InputError, NumericError, RedBlueError
from .model import (
    Affine,
    Constant,
    GridConfig,
    GridSampled,
    ModelParams,
    Pattern,
    Sinusoid,
    TimeFunction,
    ZERO_PATTERN,
)
from .moments import expected_log_lr, solve_moments
from .red import RedConfig, solve_red
from .riccati import solve_value_coeffs
from .sde import monte_carlo
from .stackelberg import baseline_summary, play_rounds

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "Constant",
    "FeedbackPolicy",
    "GridConfig",
    "GridSampled",
    "InputError",
    "ModelParams",
    "NumericError",
    "Pattern",
    "RedBlueError",
    "RedConfig",
    "Sinusoid",
    "TimeFunction",
    "ZERO_PATTERN",
    "baseline_summary",
    "expected_log_lr",
    "monte_carlo",
    "play_rounds",
    "solve_moments",
    "solve_red",
    "solve_value_coeffs",
]
