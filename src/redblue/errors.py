"""Exception types shared across the package, and its check of counts and seeds.

Every error raised on purpose by this package is one of two classes, and
the class alone decides the command line's exit code:

- ``InputError``: the input alone is refused (exit 1).  It is a
  ValueError.
- ``NumericError``: a run on an accepted input failed, for example a state
  that became NaN or infinite (exit 2).  It is an ArithmeticError.

Both derive from RedBlueError, so callers can catch the family with one
clause.
"""

from numbers import Integral


class RedBlueError(Exception):
    """Base class for all package errors."""


class InputError(RedBlueError, ValueError):
    """The input alone is refused: a parameter, grid, pattern or setting
    out of its domain."""


class NumericError(RedBlueError, ArithmeticError):
    """A run on an accepted input failed: a non-finite state or a
    degenerate update."""


def require_count(name: str, value, least: int) -> None:
    """Refuse ``value``, a count or a seed, unless it is an integer of at
    least ``least``."""
    if not isinstance(value, Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}")
