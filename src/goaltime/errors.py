"""Exception types shared across the package."""


class GoaltimeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GoaltimeError, ValueError):
    """An argument lies outside the mathematical domain of a function."""


class ConvergenceError(GoaltimeError, ArithmeticError):
    """A series or iteration failed to reach the requested accuracy."""


class InvalidShapeError(GoaltimeError, ValueError):
    """A gamma shape parameter violates the requirements of an estimator."""


class DegenerateWindowError(GoaltimeError, ValueError):
    """A truncation window carries (numerically) no probability mass."""


class DivergenceError(GoaltimeError, ArithmeticError):
    """A Kullback-Leibler integrand is unbounded on the integration window."""


class MonteCarloError(GoaltimeError, RuntimeError):
    """Too many Monte Carlo draws failed to evaluate."""


class GameLogError(GoaltimeError, ValueError):
    """A game-log or points file is malformed.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptySelectionError(GoaltimeError, ValueError):
    """A reduction selected no game records."""
