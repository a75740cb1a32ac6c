"""Exception types shared across the package."""


class StarFemError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(StarFemError, ValueError):
    """An argument violates a documented precondition."""


class NumericalBreakdownError(StarFemError, ArithmeticError):
    """A pivot or Schur scalar lost positivity, or a solve failed its gate.

    ``stages`` holds the flat indices of the failing systems of a stacked
    solve, when they are known, and is empty otherwise.
    """

    def __init__(self, message: str, stages: tuple = ()):
        self.stages = tuple(stages)
        super().__init__(message)


class EmptyGroupError(StarFemError, ValueError):
    """An average was requested over a coefficient group with no edges."""


class UndefinedRateError(StarFemError, ArithmeticError):
    """Rate estimation hit a zero or degenerate error gap."""


class ConfigError(StarFemError, ValueError):
    """Config text failed to parse or validate.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
