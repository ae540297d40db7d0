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

import numpy as np
from scipy.special import expit

from .errors import OverflowSignal, ShapeError, ValidationError, check_count
from .lowrank import (
    _BLOCK,
    LowRankGaussian,
    NoiseDraw,
    Params,
    check_logits,
    draw_noise,
    empty_noise,
    sample_rows,
)
from .rng import PortableRng, mix_seed


def _check_labels(labels, num_classes) -> tuple[np.ndarray, int]:
    """``labels`` as int64 (itself if it is already) and ``num_classes`` as an
    int; raises unless the labels have an integer type and lie in
    ``[0, max(num_classes, 2))`` for a class count of at least 1."""
    num_classes = check_count(num_classes, 1, "num_classes")
    if num_classes > 2**63:  # int64 labels cannot reach further classes
        raise ValidationError(f"num_classes must be <= 2**63, got {num_classes}")
    labels = np.asarray(labels)
    # numpy types an empty list as float64; it holds no label to truncate.
    if labels.size and labels.dtype.kind not in "iu":
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    limit = max(num_classes, 2)
    if labels.size and (labels.min() < 0 or labels.max() >= limit):
        raise ValidationError(
            f"labels must lie in [0, {limit}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels.astype(np.int64, copy=False), num_classes


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
        labels, num_classes = _check_labels(np.array(self.labels), self.num_classes)
        labels.setflags(write=False)
        labels = labels.reshape(-1)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", num_classes)
        if self.mask is not None:
            mask = np.array(self.mask, copy=True).reshape(-1)
            if mask.size and mask.dtype != bool:  # no truncation to True/False
                raise ValidationError(f"mask must be boolean, got dtype {mask.dtype}")
            mask = mask.astype(bool, copy=False)
            if mask.shape != labels.shape:
                raise ShapeError(
                    f"mask length {mask.size} does not match {labels.size} pixels"
                )
            mask.setflags(write=False)
            object.__setattr__(self, "mask", mask)

    @property
    def num_pixels(self) -> int:
        return int(self.labels.size)

    def active_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.num_pixels, dtype=bool)
        return self.mask


def labels_from_logits(logit_rows, num_classes: int, threshold: float = 0.0):
    """The ``[n, pixels]`` int64 label matrix of ``[n, pixels * num_classes]``
    logit rows: a single logit is labelled 1 above ``threshold`` (a tie goes
    to background); two or more classes take the per-pixel argmax, the first
    class winning a tie."""
    num_classes = check_count(num_classes, 1, "num_classes")
    if num_classes == 1:
        return (logit_rows > threshold).astype(np.int64)
    n, dim = logit_rows.shape
    if dim % num_classes:
        raise ShapeError(f"{dim} logits per row do not split into {num_classes} classes")
    return np.argmax(logit_rows.reshape(n, dim // num_classes, num_classes), axis=2)


@dataclass(frozen=True)
class LossValue:
    """Monte-Carlo loss with the parts needed to reproduce it exactly."""

    value: float
    per_sample_loglik: np.ndarray  # [num_samples]
    noise: NoiseDraw


def _sum_last_axis(x: np.ndarray):
    """``x.sum(axis=-1)`` to the bit. Under 8 terms numpy adds them left to
    right onto +0.0: a fold over the last axis's slices does the same at a
    tenth of the cost, its trailing ``+ 0.0`` turning an all-``-0.0`` row's
    ``-0.0`` into numpy's ``+0.0``. From 8 terms on numpy sums in unrolled
    pairwise blocks, which a fold would not repeat."""
    if x.shape[-1] >= 8:
        return x.sum(axis=-1)
    return functools.reduce(np.add, np.moveaxis(x, -1, 0)) + 0.0


def _logsumexp(x: np.ndarray, overwrite: bool = False):
    """``scipy.special.logsumexp(x, axis=-1)`` to the bit, by its operations
    (Blanchard, Higham & Higham 2021): sum ``exp(x - max)`` over all but the
    ``m`` maxima, divide by ``m``, return ``log1p(s) + log(m) + max``. Over
    a short last axis, max and ``m`` fold over its slices, exact and far
    quicker than numpy's reduction. Also returns ``exp(x - max)``, exact
    where the max is finite, written into ``x`` itself if ``overwrite``.
    Two classes with finite maxima need no ``m``: the max's term is 1.0,
    and a tie's ``log1p(0) + log(2)`` is ``log1p(1.0)`` bit for bit."""
    with np.errstate(all="ignore"):
        if x.ndim == 1:
            top = x.max()
            ismax = x == top
            count = np.count_nonzero(ismax)
        else:
            top = functools.reduce(np.maximum, np.moveaxis(x, -1, 0))
            if x.shape[-1] == 2 and np.isfinite(top).all():
                shifted = x if overwrite else np.empty_like(x)
                for k in (0, 1):  # faster than a broadcast over the length-2 axis
                    np.subtract(x[..., k], top, out=shifted[..., k])
                np.exp(shifted, out=shifted)
                lse = np.minimum(shifted[..., 0], shifted[..., 1])
                # In place: a new array would cost as much in page faults.
                return np.add(np.log1p(lse, out=lse), top, out=lse), shifted
            ismax = x == top[..., None]
            count = functools.reduce(np.add, np.moveaxis(ismax, -1, 0), 0)
        shifted = np.subtract(x, top[..., None], out=x if overwrite else None)
        np.exp(shifted, out=shifted)
        np.putmask(shifted, ismax, 0.0)
        s = _sum_last_axis(shifted) / count
        shifted += ismax
        return np.log1p(s) + np.log(count) + top, shifted


def _label_terms(logit_rows: np.ndarray, labels: LabelMap):
    """``_row_terms`` of ``logit_rows``, warning if every pixel is masked."""
    _warn_if_all_masked(labels)
    return _row_terms(logit_rows, labels)


def _warn_if_all_masked(labels: LabelMap) -> None:
    if not labels.active_mask().any():
        warnings.warn("all pixels masked out; log-likelihood is an empty sum")


def _row_terms(logit_rows: np.ndarray, labels: LabelMap):
    """Per-row label log-likelihood of a [n, num_pixels * num_classes]
    batch, in row blocks of about ``_BLOCK`` elements, and, for two or more
    classes, each pixel's softmax numerator ``exp(eta - max)``
    [n, num_pixels, num_classes], written over ``logit_rows``. One logit
    leaves ``logit_rows`` as it is, and returns None for the numerators."""
    n, dim = logit_rows.shape
    active = labels.active_mask()
    # A non-finite sample makes a nan or an inf - inf here; the forward
    # pass's finiteness check raises OverflowSignal for it, and numpy's
    # invalid-value warning would only come before it as noise.
    loglik, step = np.empty(n), max(1, _BLOCK // max(1, dim))
    with np.errstate(invalid="ignore"):
        if labels.num_classes == 1:
            # log sigmoid(eta) = -softplus(-eta); label 0 flips the sign of eta
            flip = np.where(labels.labels[active] == 1, -1.0, 1.0)
            # The F-ordered [rows, active] copy sums each row pixel by pixel,
            # in order; a one-row block is C-contiguous too and would sum
            # pairwise, to other bits, so only a one-row batch has one.
            edges = [*range(0, max(n - 1, 1), max(2, step)), n]
            for start, stop in zip(edges, edges[1:]):
                eta = logit_rows[start:stop][:, active]
                eta *= flip
                terms = np.logaddexp(0.0, eta, out=eta).sum(axis=1)
                # Negating the sum is exact; + 0.0 turns its -0.0 into +0.0.
                loglik[start:stop] = np.negative(terms, out=terms) + 0.0
            numer = None
        else:
            numer = logit_rows.reshape(n, labels.num_pixels, labels.num_classes)
            picks = np.arange(labels.num_pixels) * labels.num_classes + labels.labels
            keep = np.flatnonzero(active)
            for start in range(0, n, step):
                rows = slice(start, start + step)
                terms = np.take(logit_rows[rows], picks, axis=1)
                terms -= _logsumexp(numer[rows], overwrite=True)[0]
                loglik[rows] = np.take(terms, keep, axis=1).sum(axis=1)
    return loglik, numer


def label_log_likelihood(logits, labels: LabelMap) -> float:
    """Sum over unmasked pixels of log p(label | logit block)."""
    x = check_logits(logits, labels.num_pixels * labels.num_classes)
    return float(_label_terms(x[None, :].copy(), labels)[0][0])


def cross_entropy_loss(logits, labels: LabelMap) -> float:
    """Negative label log-likelihood: the deterministic baseline objective."""
    return -label_log_likelihood(logits, labels)


def _check_pair(a, b) -> None:
    """Both objects must agree in pixels and classes."""
    if (a.num_pixels, a.num_classes) != (b.num_pixels, b.num_classes):
        raise ShapeError(
            f"{type(a).__name__} has {a.num_pixels} pixels x {a.num_classes} "
            f"classes, {type(b).__name__} has {b.num_pixels} x {b.num_classes}"
        )


def _mc_forward(params: Params, labels: LabelMap, noise: NoiseDraw, fill=None):
    """Loss value, per-sample log-likelihoods, their softmax weights, the
    one array the backward pass reads and the scale ``sqrt(D)``, for fixed
    noise, which ``fill`` (from ``empty_noise``) draws first if given. The
    array is the logit samples for one logit, the softmax numerators
    [n, num_pixels, num_classes] for two or more classes. Each row block of
    ``sample_rows`` is scored right after it is rebuilt, on the same thread.
    The one forward pass behind the loss, its gradient and the
    finite-difference oracle."""
    samples, scale, parts = sample_rows(
        params, noise, fill, lambda rows: _row_terms(rows, labels)[0]
    )
    loglik = np.concatenate(parts)
    _warn_if_all_masked(labels)
    if not np.all(np.isfinite(loglik)):
        raise OverflowSignal("non-finite per-sample log-likelihood")
    lse, weights = _logsumexp(loglik)
    weights /= weights.sum()
    value = float(-lse + np.log(loglik.size))
    if labels.num_classes > 1:
        samples = samples.reshape(loglik.size, labels.num_pixels, labels.num_classes)
    return value, loglik, weights, samples, scale


def _mc_backward(params: Params, labels: LabelMap, noise: NoiseDraw, weights, block,
                 scale):
    """Exact gradient from the forward pass's weights, ``block`` and ``scale``
    (see ``_mc_forward``); it overwrites ``block`` with the residual. Only samples of
    non-zero weight are read: at paper size their log-likelihoods differ by
    thousands of nats, and a median 17 of 20 weights are exactly 0 (effective
    sample size 1.00). Such a sample adds ``+-0.0`` to each sum, and numpy's
    sums over samples and the BLAS matrix product add in sample order onto
    ``+0.0``, so leaving it out changes no bit. A matrix-vector product
    (rank 1, or one logit) adds in groups, so there every sample is kept."""
    eps_factor, eps_diag = noise.eps_factor, noise.eps_diag
    keep = np.flatnonzero(weights)
    if keep.size < weights.size and min(eps_factor.shape[1], eps_diag.shape[1]) > 1:
        weights, block = weights[keep], block[keep]
        eps_factor, eps_diag = eps_factor[keep], eps_diag[keep]
    # d loss / d sample: weighted (predicted probability - one-hot label),
    # exactly 0 on masked pixels.
    residual = block.reshape(weights.size, labels.num_pixels, -1)
    if labels.num_classes == 1:  # the sigmoid against label 1
        expit(residual, out=residual)
        classes = 1
    else:
        residual /= _sum_last_axis(residual)[..., None]
        classes = np.arange(labels.num_classes)
    residual -= labels.labels[:, None] == classes
    residual[:, ~labels.active_mask()] = 0.0
    residual *= weights[:, None, None]
    residual = residual.reshape(weights.size, -1)
    grad_mean = residual.sum(axis=0)
    grad_factor = residual.T @ eps_factor
    sqrt_d_deriv = 0.5 / scale * expit(params.diag_raw)
    residual *= eps_diag
    grad_diag_raw = residual.sum(axis=0) * sqrt_d_deriv
    return Params(grad_mean, grad_factor, grad_diag_raw)


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
    num_samples = check_count(num_samples, 1, "num_samples")
    _check_pair(dist, labels)
    noise, fill = empty_noise(range(num_samples), dist.rank, dist.dim, rng_seed)
    value, loglik, *record = _mc_forward(dist, labels, noise, fill)
    # A plain attribute, not a field: out of repr, equality and replace().
    object.__setattr__(noise, "_forward", (dist, labels, *record))
    return LossValue(value=value, per_sample_loglik=loglik, noise=noise)


def loss_and_grads(
    params: Params, labels: LabelMap, noise: NoiseDraw
) -> tuple[float, Params]:
    """Loss and its exact gradient for fixed noise, on raw arrays.

    The unvalidated kernel behind ``grad_ssn_mc_loss`` and the toy trainer:
    callers guarantee consistent shapes and finite parameters.
    """
    value, _, *record = _mc_forward(params, labels, noise)
    return value, _mc_backward(params, labels, noise, *record)


def grad_ssn_mc_loss(
    dist: LowRankGaussian, labels: LabelMap, noise: NoiseDraw
) -> Params:
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
    _check_pair(dist, labels)
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
        return _mc_backward(dist, labels, noise, *record[2:])
    return loss_and_grads(dist, labels, noise)[1]


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


# Gradient-check tolerance: relative, with an absolute floor near zero.
_REL_TOL, _ABS_FLOOR = 1e-4, 1e-7


def gradient_check_suite(trials: int, seed: int) -> GradCheckResult:
    """Compare analytic gradients against central differences (step 1e-5)
    on random small instances (pixels <= 8, classes 1 to 3, rank <= 3,
    samples <= 5).

    A coordinate passes when `|analytic - numeric|` is within
    ``max(_ABS_FLOOR, _REL_TOL * max(|analytic|, |numeric|))``.
    """
    trials = check_count(trials, 1, "trials")
    failures = 0
    max_rel = 0.0
    worst = -1
    for trial in range(trials):
        rng = PortableRng(mix_seed(seed, trial))
        num_pixels = int(rng.integers(1, 9))
        num_classes = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 4))
        num_samples = int(rng.integers(1, 6))
        shapes = Params.shapes(num_pixels * num_classes, rank)
        params = Params(*(rng.standard_normal(shape) for shape in shapes))
        labels_arr = rng.integers(0, max(num_classes, 2), size=num_pixels)
        mask = None
        if int(rng.integers(0, 3)) == 0:
            mask = np.asarray(rng.integers(0, 2, size=num_pixels), dtype=bool)
            if not mask.any():
                mask[0] = True
        labels = LabelMap(labels=labels_arr, num_classes=num_classes, mask=mask)
        noise = draw_noise(
            num_samples, rank, num_pixels * num_classes, mix_seed(seed, trial, 1)
        )
        _, analytic = loss_and_grads(params, labels, noise)
        numeric = finite_diff_grad(
            lambda p: _mc_forward(Params(**p), labels, noise)[0], params._asdict()
        )
        a = np.concatenate([g.reshape(-1) for g in analytic])
        g = np.concatenate([numeric[name].reshape(-1) for name in Params._fields])
        diff = np.abs(a - g)
        scale = np.maximum(np.abs(a), np.abs(g))
        trial_max = float((diff / np.maximum(scale, _ABS_FLOOR)).max())
        if trial_max > max_rel:
            max_rel = trial_max
            worst = trial
        failures += int(np.any(diff > np.maximum(_ABS_FLOOR, _REL_TOL * scale)))
    return GradCheckResult(
        trials=trials, failures=failures, max_rel_error=max_rel, worst_trial=worst
    )
