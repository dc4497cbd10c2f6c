"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class QuadratureError(ArithmeticError):
    """Panel refinement stalled before reaching the requested accuracy."""


class TruncationBudgetError(RuntimeError):
    """Series truncation index exceeds the configured cap (x too close to 1)."""


class NotInCpsiError(ValueError):
    """Input has nonzero endpoint values; project it onto the weighted space first."""


class DegenerateOperatorError(ValueError):
    """Operator fails the contraction requirement needed for the geometric series."""
