"""Exception types shared across the package.

Every error raised on purpose by this package derives from RedBlueError so
callers can catch the whole family with one clause.
"""


class RedBlueError(Exception):
    """Base class for all package errors."""


class LambdaOutOfRangeError(RedBlueError):
    """Misdirection weight is negative or exceeds r_beta * sigma_W**2."""


class NonPositiveWeightError(RedBlueError):
    """A cost weight or noise intensity that must be positive is not."""


class NonPositiveHorizonError(RedBlueError):
    """Horizon T must be positive and finite."""


class OutOfDomainError(RedBlueError):
    """Time argument outside [0, T]."""


class NonFiniteStateError(RedBlueError):
    """An integrator state became NaN or infinite."""


class GridMismatchError(RedBlueError):
    """Two objects that must share a time grid do not."""


class NonPositiveFcError(RedBlueError):
    """Logarithmic penalty needs a strictly positive pattern."""


class DegenerateDenominatorError(RedBlueError):
    """Closed-form minimizer denominator is zero or has the wrong sign."""
