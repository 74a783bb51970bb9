"""Exception and warning types shared across the package."""

__all__ = [
    "AoArimaError", "LengthError", "ArityError", "DomainError", "DegenerateError",
    "SingularError", "RankError", "ConvergenceError", "StabilityError", "EmptyScanError",
    "ParseError", "NonStationaryWarning", "NonInvertibleWarning", "CriticalValueWarning",
]


class AoArimaError(Exception):
    """Base class for all errors raised by this package."""


class LengthError(AoArimaError):
    """A series is too short for the requested operation."""


class ArityError(AoArimaError):
    """An auxiliary argument has the wrong number of elements."""


class DomainError(AoArimaError):
    """An input value lies outside the mathematical domain of the operation."""


class DegenerateError(AoArimaError):
    """The input is degenerate (e.g. zero variance) and the statistic is undefined."""


class SingularError(AoArimaError):
    """A linear system required by the computation is numerically singular."""


class RankError(AoArimaError):
    """A regression design matrix is rank deficient (or underdetermined)."""


class ConvergenceError(AoArimaError):
    """The numerical optimizer failed to make progress."""


class StabilityError(AoArimaError):
    """Supplied coefficients describe a non-stationary or non-invertible process."""


class EmptyScanError(AoArimaError):
    """The outlier scan window contains too few positions."""


class ParseError(AoArimaError):
    """An input file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonStationaryWarning(UserWarning):
    """AR polynomial has a root on or inside the unit circle (within tolerance)."""


class NonInvertibleWarning(UserWarning):
    """MA polynomial has a root on or inside the unit circle (within tolerance)."""


class CriticalValueWarning(UserWarning):
    """A detection critical value lies outside the customary [2, 6] range."""
