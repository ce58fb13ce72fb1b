"""Exception types shared across the package.

Every error raised on purpose by this package is one of two classes, and
the class alone decides the command line's exit code:

- ``InputError``: the input alone is refused (exit 1).  It is a
  ValueError.
- ``NumericError``: a run on an accepted input failed, for example a state
  that became NaN or infinite (exit 2).  It is an ArithmeticError.

Both derive from RedBlueError, so callers can catch the family with one
clause.
"""


class RedBlueError(Exception):
    """Base class for all package errors."""


class InputError(RedBlueError, ValueError):
    """The input alone is refused: a parameter, grid, pattern or setting
    out of its domain."""


class NumericError(RedBlueError, ArithmeticError):
    """A run on an accepted input failed: a non-finite state or a
    degenerate update."""
