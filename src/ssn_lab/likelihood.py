"""Label likelihoods, the Monte-Carlo logsumexp loss, and its gradients.

A single logit channel (num_classes == 1) means a Bernoulli likelihood via
the sigmoid, with labels in {0, 1}; two or more channels mean a categorical
likelihood via the softmax over each pixel's class block. Losses are
reported in nats per label map. Masked-out pixels are excluded from the
likelihood sum entirely, and their parameter rows receive exactly zero
gradient.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .errors import OverflowSignal, ShapeError, ValidationError
from .lowrank import (
    DIAG_FLOOR,
    LowRankGaussian,
    NoiseDraw,
    draw_noise,
    reconstruct_samples,
    softplus,
)


def _locked_labels(labels, num_classes: int) -> np.ndarray:
    """Read-only int64 copy of ``labels``, checked to lie in
    ``[0, max(num_classes, 2))`` for a class count of at least 1."""
    labels = np.array(labels, dtype=np.int64, copy=True)
    if num_classes is None or num_classes < 1:
        raise ValidationError(f"num_classes must be >= 1, got {num_classes}")
    limit = max(num_classes, 2)
    if labels.size and (labels.min() < 0 or labels.max() >= limit):
        raise ValidationError(
            f"labels must lie in [0, {limit}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    labels.setflags(write=False)
    return labels


@dataclass(frozen=True)
class LabelMap:
    """Integer class assignment per pixel, with optional validity mask.

    ``num_classes == 1`` denotes a single-logit binary map whose labels are
    in {0, 1}; otherwise labels lie in {0, ..., num_classes - 1}. A mask
    entry of True means the pixel contributes to likelihoods and metrics.
    """

    labels: np.ndarray  # [num_pixels]
    num_classes: int
    mask: np.ndarray | None = None

    def __post_init__(self):
        labels = _locked_labels(self.labels, self.num_classes).reshape(-1)
        object.__setattr__(self, "labels", labels)
        if self.mask is not None:
            mask = np.array(self.mask, dtype=bool, copy=True).reshape(-1)
            if mask.shape != labels.shape:
                raise ShapeError(
                    f"mask length {mask.size} does not match {labels.size} pixels"
                )
            mask.setflags(write=False)
            object.__setattr__(self, "mask", mask)

    @property
    def num_pixels(self) -> int:
        return int(self.labels.size)

    @property
    def effective_classes(self) -> int:
        """Distinct label values: 2 for single-logit binary maps."""
        return max(self.num_classes, 2)

    def active_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.num_pixels, dtype=bool)
        return self.mask


@dataclass(frozen=True)
class LossValue:
    """Monte-Carlo loss with the parts needed to reproduce it exactly."""

    value: float
    per_sample_loglik: np.ndarray  # [num_samples]
    noise: NoiseDraw


class ParamGrads(NamedTuple):
    mean: np.ndarray
    factor: np.ndarray
    diag_raw: np.ndarray


def _check_logits(logits, labels: LabelMap) -> np.ndarray:
    expected = labels.num_pixels * labels.num_classes
    x = np.asarray(logits, dtype=np.float64).reshape(-1)
    if x.size != expected:
        raise ShapeError(f"logits have {x.size} entries, expected {expected}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("logits contain non-finite entries")
    return x


def _sum_last_axis(x: np.ndarray):
    """``x.sum(axis=-1)`` to the bit. Under 8 terms numpy adds them left to
    right onto +0.0: a fold over the last axis's slices does the same at a
    tenth of the cost, its trailing ``+ 0.0`` turning an all-``-0.0`` row's
    ``-0.0`` into numpy's ``+0.0``. From 8 terms on numpy sums in unrolled
    pairwise blocks, which a fold would not repeat."""
    if x.shape[-1] >= 8:
        return x.sum(axis=-1)
    return functools.reduce(np.add, np.moveaxis(x, -1, 0)) + 0.0


def _logsumexp(x: np.ndarray):
    """``scipy.special.logsumexp(x, axis=-1)`` to the bit, by its operations
    (Blanchard, Higham & Higham 2021): sum ``exp(x - max)`` over all but the
    ``m`` maxima, divide by ``m``, return ``log1p(s) + log(m) + max``. Over
    a short last axis, max and ``m`` fold over its slices, exact and far
    quicker than numpy's reduction. Also returns ``exp(x - max)``, exact
    where the max is finite."""
    with np.errstate(all="ignore"):
        if x.ndim == 1:
            top = x.max()
            ismax = x == top
            count = np.count_nonzero(ismax)
        else:
            top = functools.reduce(np.maximum, np.moveaxis(x, -1, 0))
            ismax = x == top[..., None]
            count = functools.reduce(np.add, np.moveaxis(ismax, -1, 0), 0)
        shifted = np.exp(x - top[..., None])
        np.putmask(shifted, ismax, 0.0)
        s = _sum_last_axis(shifted) / count
        shifted += ismax
        return np.log1p(s) + np.log(count) + top, shifted


def _label_terms(logit_rows: np.ndarray, labels: LabelMap):
    """Per-row label log-likelihood of a [n, num_pixels * num_classes]
    batch and, for two or more classes, each pixel's softmax numerator
    ``exp(eta - max)`` [n, num_pixels, num_classes] (None for one logit)."""
    n = logit_rows.shape[0]
    active = labels.active_mask()
    # A non-finite sample makes a nan or an inf - inf here; the forward
    # pass's finiteness check raises OverflowSignal for it, and numpy's
    # invalid-value warning would only come before it as noise.
    with np.errstate(invalid="ignore"):
        if labels.num_classes == 1:
            # The F-ordered [n, active] copy sums each row pixel by pixel, in
            # order; a C-contiguous one would sum pairwise, to other bits.
            eta = logit_rows[:, active]
            # log sigmoid(eta) = -softplus(-eta); label 0 flips the sign of eta
            sign = np.where(labels.labels[active] == 1, 1.0, -1.0)
            terms, numer = -np.logaddexp(0.0, -sign[None, :] * eta), None
        else:
            eta = logit_rows.reshape(n, labels.num_pixels, labels.num_classes)
            log_norm, numer = _logsumexp(eta)
            picked = np.take_along_axis(eta, labels.labels[None, :, None], axis=2)
            # Each row sums pairwise over a C-contiguous [n, active] copy; the
            # plain, F-ordered one would sum in order, to other bits.
            terms = np.ascontiguousarray((picked[:, :, 0] - log_norm)[:, active])
    if not active.any():
        warnings.warn("all pixels masked out; log-likelihood is an empty sum")
        return np.zeros(n), numer
    return terms.sum(axis=1), numer


def label_log_likelihood(logits, labels: LabelMap) -> float:
    """Sum over unmasked pixels of log p(label | logit block)."""
    x = _check_logits(logits, labels)
    return float(_label_terms(x[None, :], labels)[0][0])


def cross_entropy_loss(logits, labels: LabelMap) -> float:
    """Negative label log-likelihood: the deterministic baseline objective."""
    return -label_log_likelihood(logits, labels)


def _check_agreement(dist: LowRankGaussian, labels: LabelMap) -> None:
    if dist.num_pixels != labels.num_pixels or dist.num_classes != labels.num_classes:
        raise ShapeError(
            f"distribution is over {dist.num_pixels} pixels x {dist.num_classes} "
            f"classes, labels are {labels.num_pixels} x {labels.num_classes}"
        )


def _mc_forward(mean, factor, diag_raw, labels: LabelMap, eps_factor, eps_diag):
    """Loss value, per-sample log-likelihoods, their softmax weights and the
    one array the backward pass reads, for fixed noise: the logit samples
    for one logit, the softmax numerators [n, num_pixels, num_classes] for
    two or more classes. The one forward pass behind the loss, its gradient
    and the finite-difference oracle."""
    samples = reconstruct_samples(mean, factor, diag_raw, eps_factor, eps_diag)
    loglik, numer = _label_terms(samples, labels)
    if not np.all(np.isfinite(loglik)):
        raise OverflowSignal("non-finite per-sample log-likelihood")
    lse, weights = _logsumexp(loglik)
    weights /= weights.sum()
    value = float(-lse + np.log(loglik.size))
    return value, loglik, weights, samples if numer is None else numer


def _mc_backward(diag_raw, labels: LabelMap, eps_factor, eps_diag, weights, block):
    """Exact gradient from the forward pass's weights and ``block`` (see
    ``_mc_forward``). Normalises a softmax ``block`` in place."""
    # d loss / d sample: weighted (predicted probability - one-hot label),
    # exactly 0 on masked pixels.
    if labels.num_classes == 1:  # the sigmoid against label 1
        probs, classes = expit(block)[:, :, None], 1
    else:
        block /= _sum_last_axis(block)[..., None]
        probs, classes = block, np.arange(labels.num_classes)
    residual = probs - (labels.labels[:, None] == classes)
    residual[:, ~labels.active_mask()] = 0.0
    residual = (weights[:, None, None] * residual).reshape(weights.size, -1)
    grad_mean = residual.sum(axis=0)
    grad_factor = residual.T @ eps_factor
    d = softplus(diag_raw) + DIAG_FLOOR
    sqrt_d_deriv = 0.5 / np.sqrt(d) * expit(diag_raw)
    grad_diag_raw = (residual * eps_diag).sum(axis=0) * sqrt_d_deriv
    return ParamGrads(grad_mean, grad_factor, grad_diag_raw)


def ssn_mc_loss(
    dist: LowRankGaussian, labels: LabelMap, num_samples: int, rng_seed: int
) -> LossValue:
    """Monte-Carlo negative log-likelihood of one label map.

    Draws ``num_samples`` logit maps, scores the labels under each, and
    reduces with a logsumexp in ascending sample order:
    ``-logsumexp_m(loglik_m) + log(num_samples)``. The noise draws are
    returned so the gradient can be evaluated on identical samples; the
    first ``grad_ssn_mc_loss`` on them with this same ``dist`` and
    ``labels`` reuses this forward pass.
    """
    if num_samples < 1:
        raise ValidationError(f"num_samples must be >= 1, got {num_samples}")
    _check_agreement(dist, labels)
    eps_factor, eps_diag = draw_noise(num_samples, dist.rank, dist.dim, rng_seed)
    value, loglik, weights, block = _mc_forward(
        dist.mean, dist.factor, dist.diag_raw, labels, eps_factor, eps_diag
    )
    noise = NoiseDraw(eps_factor, eps_diag, int(rng_seed))
    # A plain attribute, not a field: out of repr, equality and replace().
    object.__setattr__(noise, "_forward", (dist, labels, weights, block))
    return LossValue(value=value, per_sample_loglik=loglik, noise=noise)


def loss_and_grads(
    mean, factor, diag_raw, labels: LabelMap, eps_factor, eps_diag
) -> tuple[float, ParamGrads]:
    """Loss and its exact gradient for fixed noise, on raw arrays.

    The unvalidated kernel behind ``grad_ssn_mc_loss`` and the toy trainer:
    callers guarantee consistent shapes and finite parameters.
    """
    value, _, weights, block = _mc_forward(
        mean, factor, diag_raw, labels, eps_factor, eps_diag
    )
    return value, _mc_backward(diag_raw, labels, eps_factor, eps_diag, weights, block)


def grad_ssn_mc_loss(
    dist: LowRankGaussian, labels: LabelMap, noise: NoiseDraw
) -> ParamGrads:
    """Reparameterisation gradient of the Monte-Carlo loss, holding the
    recorded noise fixed.

    Chain: with w the softmax of the per-sample log-likelihoods, the
    per-sample logit gradient is w_m * (probs - one_hot); the mean picks it
    up directly, the factor through an outer product with the factor noise,
    and diag_raw through d sqrt(D)/d diag_raw = sigmoid(diag_raw)/(2 sqrt(D)).

    The first call on noise from ``ssn_mc_loss`` with the very same
    ``dist`` and ``labels`` objects reuses that call's forward pass; any
    other call recomputes it, to the same bits.
    """
    _check_agreement(dist, labels)
    eps_factor, eps_diag = noise.eps_factor, noise.eps_diag
    n = eps_factor.shape[0]
    if n < 1 or eps_factor.shape != (n, dist.rank) or eps_diag.shape != (n, dist.dim):
        raise ShapeError(
            f"noise shaped {eps_factor.shape}/{eps_diag.shape} does not match "
            f"[n >= 1, rank {dist.rank}] / [n >= 1, dim {dist.dim}]"
        )
    # Popped, so the in-place backward runs at most once on the record.
    record = vars(noise).pop("_forward", None)
    if record is not None and record[0] is dist and record[1] is labels:
        return _mc_backward(dist.diag_raw, labels, eps_factor, eps_diag, *record[2:])
    _, grads = loss_and_grads(
        dist.mean, dist.factor, dist.diag_raw, labels, eps_factor, eps_diag
    )
    return grads


def finite_diff_grad(loss_fn, params: dict[str, np.ndarray], h: float = 1e-5):
    """Central finite differences of a pure scalar function, per coordinate.

    ``loss_fn`` receives the params dict and must be deterministic (fix any
    noise beforehand). Step 1e-5 balances truncation against round-off for
    smooth non-quadratic objectives in 64-bit arithmetic.
    """
    grads = {}
    work = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
    for name, value in work.items():
        grad = np.zeros_like(value)
        flat = value.reshape(-1)
        flat_grad = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            upper = loss_fn(work)
            flat[idx] = original - h
            lower = loss_fn(work)
            flat[idx] = original
            flat_grad[idx] = (upper - lower) / (2.0 * h)
        grads[name] = grad
    return grads


@dataclass(frozen=True)
class GradCheckResult:
    trials: int
    failures: int
    max_rel_error: float
    worst_trial: int


def gradient_check_suite(
    trials: int,
    seed: int,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-7,
    h: float = 1e-5,
) -> GradCheckResult:
    """Compare analytic gradients against central differences on random
    small instances (pixels <= 8, classes in {1, 3}, rank <= 3, samples <= 5).

    A coordinate passes when `|analytic - numeric|` is within
    ``max(abs_floor, rel_tol * max(|analytic|, |numeric|))``.
    """
    from .rng import PortableRng, mix_seed

    failures = 0
    max_rel = 0.0
    worst = -1
    for trial in range(trials):
        rng = PortableRng(mix_seed(seed, trial))
        num_pixels = int(rng.integers(1, 9))
        num_classes = 1 if int(rng.integers(0, 2)) == 0 else 3
        rank = int(rng.integers(1, 4))
        num_samples = int(rng.integers(1, 6))
        params = {
            "mean": rng.standard_normal(num_pixels * num_classes),
            "factor": rng.standard_normal((num_pixels * num_classes, rank)),
            "diag_raw": rng.standard_normal(num_pixels * num_classes),
        }
        labels_arr = np.asarray(
            rng.integers(0, max(num_classes, 2), size=num_pixels), dtype=np.int64
        )
        mask = None
        if int(rng.integers(0, 3)) == 0:
            mask = np.asarray(rng.integers(0, 2, size=num_pixels), dtype=bool)
            if not mask.any():
                mask[0] = True
        labels = LabelMap(labels=labels_arr, num_classes=num_classes, mask=mask)
        eps_factor, eps_diag = draw_noise(
            num_samples, rank, num_pixels * num_classes, mix_seed(seed, trial, 1)
        )
        fixed = {"labels": labels, "eps_factor": eps_factor, "eps_diag": eps_diag}
        _, analytic = loss_and_grads(**params, **fixed)
        numeric = finite_diff_grad(
            lambda p: _mc_forward(**p, **fixed)[0], params, h=h
        )
        trial_failed = False
        for name, a in zip(("mean", "factor", "diag_raw"), analytic):
            g = numeric[name]
            diff = np.abs(a - g)
            scale = np.maximum(np.abs(a), np.abs(g))
            rel = diff / np.maximum(scale, abs_floor)
            trial_max = float(rel.max()) if rel.size else 0.0
            if trial_max > max_rel:
                max_rel = trial_max
                worst = trial
            if np.any(diff > np.maximum(abs_floor, rel_tol * scale)):
                trial_failed = True
        if trial_failed:
            failures += 1
    return GradCheckResult(
        trials=trials, failures=failures, max_rel_error=max_rel, worst_trial=worst
    )
