"""Shared exception types."""

__all__ = ["NumericsError"]


class NumericsError(ArithmeticError):
    """A numerical routine failed to reach its accuracy/convergence target.

    Carries a human-readable diagnostic message (offending parameters,
    iteration counts, sample locations).
    """
