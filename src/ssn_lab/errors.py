"""Exception types shared across the package, and ``check_count``: the one
integer rule for every count, dimension, seed and label the package takes."""

import numbers
import operator


class ShapeError(ValueError):
    """An array does not match its declared shape contract."""


class ValidationError(ValueError):
    """Input values violate a precondition (non-finite entries, out-of-range
    labels, broken patch tiling, malformed files)."""


class SizeGuardError(ValueError):
    """A dense materialisation was refused because the instance is too large."""


class NumericalError(RuntimeError):
    """A linear-algebra step failed: the capacitance matrix of a low-rank
    Gaussian lost positive definiteness to rounding."""


class OverflowSignal(ArithmeticError):
    """A loss evaluation produced a non-finite quantity. The trainer consumes
    this to stop early and return the last finite checkpoint."""


class DivergenceError(RuntimeError):
    """Deterministic mean pre-training diverged; indicates a bad learning rate."""


def check_count(value, least: int, what: str) -> int:
    """``value`` as an ``int`` of at least ``least``. Python and numpy
    integers pass; bools, floats (``2.0`` too) and strings do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return operator.index(value)
