"""Low-rank multivariate normal distributions over flattened logit maps.

The covariance is ``factor @ factor.T + diag(effective_diag)`` where the
effective diagonal is ``softplus(diag_raw) + DIAG_FLOOR``, strictly positive
for any finite parameters, so the covariance is always symmetric positive
definite. Elements are flattened pixel-major, class-minor: flat index
``i = pixel * num_classes + class``. Downstream code (patch stitching,
per-class scaling) relies on this convention.

The exact log-density is computed without materialising the covariance,
using the Woodbury identity and the matrix determinant lemma on the
rank-by-rank capacitance matrix ``I + factor.T @ D^-1 @ factor``. A dense
Cholesky route is provided as an independent oracle for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (NumericalError, ShapeError, SizeGuardError, ValidationError,
                     check_count)
from .rng import PortableRng

DIAG_FLOOR = 1e-5
DENSE_SIZE_GUARD = 4096
_LOG_2PI = float(np.log(2.0 * np.pi))
_BLOCK = 1 << 15  # elements per block of in-place sample reconstruction
_TINY = np.finfo(np.float64).tiny


def softplus(x):
    """log(1 + exp(x)), stable on both tails."""
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus for y > 0: log(exp(y) - 1)."""
    y = np.asarray(y, dtype=np.float64)
    small = np.log(np.expm1(np.minimum(y, 30.0)))
    large = y + np.log1p(-np.exp(-np.maximum(y, 30.0)))
    return np.where(y > 30.0, large, small)


def effective_diag(diag_raw):
    """Positive covariance diagonal softplus(diag_raw) + DIAG_FLOOR."""
    return softplus(diag_raw) + DIAG_FLOOR


def effective_diag_inv(effective):
    """The raw diagonal whose effective diagonal is ``effective``; values at
    or below DIAG_FLOOR map to the smallest raw value the floor allows."""
    return softplus_inv(np.maximum(effective - DIAG_FLOOR, _TINY))


def check_logits(logits, dim: int) -> np.ndarray:
    """``logits`` as a flat float64 array of ``dim`` finite entries."""
    x = np.asarray(logits, dtype=np.float64).reshape(-1)
    if x.size != dim:
        raise ShapeError(f"logits have {x.size} entries, expected {dim}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("logits contain non-finite entries")
    return x


class Params(NamedTuple):
    """The three tensors of a low-rank Gaussian over ``dim`` flat elements,
    or the gradient of a loss with respect to them. A ``LowRankGaussian``
    has the same fields, so it is passed wherever a ``Params`` is read."""

    mean: np.ndarray  # [dim], logit units
    factor: np.ndarray  # [dim, rank], logit units
    diag_raw: np.ndarray  # [dim], unconstrained reals

    @staticmethod
    def shapes(dim: int, rank: int) -> Params:
        """The shape of each tensor for ``dim`` elements and ``rank``."""
        return Params((dim,), (dim, rank), (dim,))


@dataclass(frozen=True)
class NoiseDraw:
    """Standard-normal variates behind ``n`` reparameterised samples, one row each.

    Recording these lets a loss evaluation and its gradient (or a
    finite-difference check) reuse exactly the same randomness. An instance
    returned by ``ssn_mc_loss`` also carries a private, one-shot record of
    that forward pass, which ``grad_ssn_mc_loss`` takes.
    """

    eps_factor: np.ndarray  # [n, rank]
    eps_diag: np.ndarray  # [n, dim]


@dataclass(frozen=True)
class LowRankGaussian:
    """Immutable normal distribution N(mean, factor factor^T + D) on logits.

    ``D = softplus(diag_raw) + DIAG_FLOOR`` elementwise. Instances validate
    their shapes and finiteness on construction and lock the underlying
    arrays, so they are safe to share across threads.
    """

    mean: np.ndarray  # [dim], logit units
    factor: np.ndarray  # [dim, rank], logit units
    diag_raw: np.ndarray  # [dim], unconstrained reals
    num_pixels: int
    num_classes: int
    rank: int

    def __post_init__(self):
        for name in ("num_pixels", "num_classes", "rank"):
            object.__setattr__(self, name, check_count(getattr(self, name), 1, name))
        for name, shape in Params.shapes(self.dim, self.rank)._asdict().items():
            value = getattr(self, name)
            value = np.array(value, dtype=np.float64, order="C", copy=True)
            if value.shape != shape:
                raise ShapeError(f"{name} has shape {value.shape}, expected {shape}")
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"{name} contains non-finite entries")
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.num_pixels * self.num_classes

    @property
    def effective_diag(self) -> np.ndarray:
        return effective_diag(self.diag_raw)

    def sample(self, n: int, seed: int):
        """Draw ``n`` reparameterised samples.

        Each sample is ``mean + factor @ eps_factor + sqrt(D) * eps_diag``.
        Per sample, the ``rank`` factor variates are drawn before the ``dim``
        diagonal variates; samples consume the stream in order. Returns the
        ``[n, dim]`` sample matrix and the noise behind it.
        """
        n = check_count(n, 1, "sample count")
        noise = draw_noise(n, self.rank, self.dim, seed)
        return reconstruct_samples(self, noise), noise

    def log_prob(self, logits) -> float:
        """Exact Gaussian log-density in O(dim * rank^2) time.

        Uses the Woodbury identity for the quadratic form and the matrix
        determinant lemma for the log-determinant, both through a Cholesky
        factorisation of the capacitance matrix ``I + P^T D^-1 P``. The
        covariance itself is never materialised.
        """
        from scipy.linalg import solve_triangular  # kept out of `import ssn_lab`

        x = check_logits(logits, self.dim)
        d = self.effective_diag
        factor_over_d = self.factor / d[:, None]
        capacitance = np.eye(self.rank) + self.factor.T @ factor_over_d
        chol = _capacitance_cholesky(capacitance)
        delta = x - self.mean
        weighted = delta / d
        projected = self.factor.T @ weighted
        solved = solve_triangular(chol, projected, lower=True)
        mahalanobis = float(delta @ weighted - solved @ solved)
        log_det = float(2.0 * np.sum(np.log(np.diag(chol))) + np.sum(np.log(d)))
        return -0.5 * (mahalanobis + log_det + self.dim * _LOG_2PI)

    def dense_covariance(self) -> np.ndarray:
        """Materialise the full covariance matrix (verification only).

        Refuses instances with more than DENSE_SIZE_GUARD elements to guard
        against accidental huge allocations.
        """
        if self.dim > DENSE_SIZE_GUARD:
            raise SizeGuardError(
                f"dense covariance refused: dim={self.dim} exceeds {DENSE_SIZE_GUARD}"
            )
        return self.factor @ self.factor.T + np.diag(self.effective_diag)

    def dense_log_prob(self, logits) -> float:
        """Oracle log-density via a full Cholesky of the dense covariance."""
        from scipy.linalg import solve_triangular

        x = check_logits(logits, self.dim)
        covariance = self.dense_covariance()
        chol = np.linalg.cholesky(covariance)
        solved = solve_triangular(chol, x - self.mean, lower=True)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        return float(-0.5 * (solved @ solved + log_det + self.dim * _LOG_2PI))


def draw_noise(n: int, rank: int, dim: int, seed: int) -> NoiseDraw:
    """Standard-normal noise for ``n`` samples: [n, rank] and [n, dim], both
    read-only, so a loss and its gradient see the same draws. The diagonal
    noise is a view of the drawn ``[n, rank + dim]`` block, not a copy: every
    use of it is elementwise, which gives the same bits on either layout."""
    return noise_rows(range(n), rank, dim, seed)


def noise_rows(rows: range, rank: int, dim: int, seed: int) -> NoiseDraw:
    """The contiguous ``rows`` of the noise ``draw_noise`` gives for ``seed``,
    drawn from its stream advanced past the rows before them."""
    rng = PortableRng(seed)
    if rows.start:
        rng.advance(rows.start * (rank + dim))
    block = rng.standard_normal((rows.stop - rows.start, rank + dim))
    block.setflags(write=False)
    eps_factor = np.ascontiguousarray(block[:, :rank])
    eps_factor.setflags(write=False)
    return NoiseDraw(eps_factor, block[:, rank:])


def reconstruct_samples(params: Params, noise: NoiseDraw) -> np.ndarray:
    """Sample reconstruction from raw, unvalidated arrays and recorded noise.

    Shared by sampling, the loss, its gradient and the finite-difference
    oracle so all of them see bit-identical logit samples. The sum is formed
    in place as ``(mean + eps_factor @ factor.T) + eps_diag * scale``, with
    the diagonal term added in row blocks of about ``_BLOCK`` elements, so no
    full-size temporary is made.
    """
    scale = np.sqrt(effective_diag(params.diag_raw))
    samples = noise.eps_factor @ params.factor.T
    samples += params.mean
    rows = max(1, _BLOCK // max(1, samples.shape[1]))
    for start in range(0, samples.shape[0], rows):
        samples[start : start + rows] += noise.eps_diag[start : start + rows] * scale
    return samples


def _capacitance_cholesky(capacitance: np.ndarray) -> np.ndarray:
    """Cholesky factor of ``I + factor.T @ D^-1 @ factor``. Its eigenvalues
    are at least 1, so it fails only once rounding has swamped the identity
    (diagonal entries near 1e16 and up), where no small jitter helps."""
    try:
        return np.linalg.cholesky(capacitance)
    except np.linalg.LinAlgError as err:
        eigenvalues = np.linalg.eigvalsh(capacitance)
        raise NumericalError(
            "capacitance matrix not positive definite: eigenvalue range "
            f"[{eigenvalues.min():.3e}, {eigenvalues.max():.3e}]"
        ) from err
