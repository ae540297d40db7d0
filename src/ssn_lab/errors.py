"""Exception types shared across the package."""


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
