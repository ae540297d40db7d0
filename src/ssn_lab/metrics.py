"""Distribution-level and prediction-level segmentation metrics.

Distances between label maps use 1 - IoU averaged over non-background
classes, with class 0 as background; classes absent from both maps are
excluded, and two maps with no foreground at all are at distance 0.
Expectations over empirical distributions are taken over all ordered pairs
including self-pairs, which is the plug-in estimator of the underlying
population expectations and makes the distance of a distribution to itself
exactly zero. Single-logit binary maps count as two classes
(background/foreground). Validity masks are metadata for training and are
ignored here; metrics compare full label maps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError, ValidationError, check_count
from .likelihood import LabelMap, _check_labels, _check_pair

_EXACT_F32_COUNT = 1 << 24  # float32 counts every integer up to here exactly


class SampleSet:
    """An ordered collection of label maps drawn from one distribution, held
    as one ``[n, num_pixels]`` label matrix of the smallest unsigned integer
    type that holds ``max(num_classes, 2) - 1``.

    Build it from label maps, ``SampleSet(samples=[...])``, or from an
    integer matrix, ``SampleSet(labels=matrix, num_classes=c)``, whose label
    range is checked in one vectorised pass. ``samples`` returns the given
    maps, or builds them from the matrix on first use.
    """

    def __init__(self, samples=None, *, labels=None, num_classes=None):
        if (samples is None) == (labels is None):
            raise ValidationError("give either samples or labels with num_classes")
        if samples is not None:
            samples = list(samples)
            if not samples:
                raise ValidationError("a sample set must contain at least one map")
            if len({(s.num_pixels, s.num_classes) for s in samples}) > 1:
                raise ShapeError("sample sets must have uniform shape and classes")
            labels = [sample.labels for sample in samples]  # each range-checked
            num_classes = samples[0].num_classes
        else:
            labels, num_classes = _check_labels(labels, num_classes)
        labels = np.array(labels, dtype=np.min_scalar_type(max(num_classes, 2) - 1))
        if labels.ndim != 2 or len(labels) == 0:
            raise ShapeError(f"labels must be [n >= 1, pixels], not {labels.shape}")
        self._labels = labels
        self._samples = samples
        self._distinct = None
        self.num_classes = num_classes

    def __len__(self) -> int:
        return self._labels.shape[0]

    @property
    def num_pixels(self) -> int:
        return self._labels.shape[1]

    @property
    def samples(self) -> list[LabelMap]:
        if self._samples is None:
            self._samples = [
                LabelMap(labels=row, num_classes=self.num_classes)
                for row in self._labels
            ]
        return self._samples

    def label_matrix(self) -> np.ndarray:
        """The labels as a new ``[n, num_pixels]`` int64 matrix."""
        return self._labels.astype(np.int64)

    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct label rows in lexicographic order, in the set's compact
        integer type, with their weights (shares of the set); computed once
        per set."""
        if self._distinct is None:
            rows, counts = _unique_rows(self._labels, self.num_classes)
            weights = counts / counts.sum()
            rows.setflags(write=False)
            weights.setflags(write=False)
            self._distinct = rows, weights
        return self._distinct

    @cached_property
    def foreground_classes(self) -> tuple[int, ...]:
        """The non-background classes in the set, ascending."""
        return tuple(int(cls) for cls in np.unique(self.distinct_rows()[0]) if cls)


def _unique_rows(rows: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_counts=True)`` for label rows in
    ``[0, max(num_classes, 2))``, without a sort over per-column fields.

    Each row is cast to the smallest big-endian unsigned type that holds the
    largest label and viewed as one opaque byte string. Such strings compare
    bytewise, which for big-endian unsigned digits is exactly the
    lexicographic order of the rows, so the distinct rows, their order and
    their counts all match.
    """
    if rows.shape[1] == 0:
        return rows[:1], np.array([rows.shape[0]])
    digit = np.min_scalar_type(max(num_classes, 2) - 1).newbyteorder(">")
    digits = np.ascontiguousarray(rows, dtype=digit)
    keys = digits.view(np.dtype((np.void, digits.itemsize * digits.shape[1])))[:, 0]
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return rows[first], counts


@dataclass(frozen=True)
class MetricReport:
    """Generalised energy distance and its three pairwise expectations.

    ``ged_squared == 2 * cross_term - gt_self_term - diversity`` by
    construction. The estimator is reported unclamped: slightly negative
    values near zero signal finite-sample noise and callers should see them.
    """

    ged_squared: float
    diversity: float
    cross_term: float
    gt_self_term: float


def pairwise_iou_distance(
    rows_a: np.ndarray, rows_b: np.ndarray, classes: list[int]
) -> np.ndarray:
    """Matrix of 1 - IoU distances between two stacks of label rows.

    ``classes`` are, ascending, the non-background classes present in either
    stack; a class in neither would add nothing. Per pair, IoU is averaged
    over the classes present in either map; pairs where every non-background
    class is absent from both maps get distance 0. Passing the same array
    twice computes each overlap once.
    """
    iou_sum = np.zeros((rows_a.shape[0], rows_b.shape[0]))
    present = np.zeros_like(iou_sum)
    for cls in classes:
        in_a = rows_a == cls
        in_b = in_a if rows_a is rows_b else rows_b == cls
        intersection = _overlap_counts(in_a, in_b)
        union = in_a.sum(axis=1)[:, None] + in_b.sum(axis=1)[None, :] - intersection
        defined = union > 0
        iou_sum += np.where(defined, intersection / np.where(defined, union, 1.0), 0.0)
        present += defined
    # no foreground anywhere -> identical empty maps -> distance 0
    mean_iou = np.where(present > 0, iou_sum / np.maximum(present, 1.0), 1.0)
    return 1.0 - mean_iou


def _overlap_counts(in_a: np.ndarray, in_b: np.ndarray) -> np.ndarray:
    """``in_a @ in_b.T`` of two boolean stacks, as exact float64 counts.

    The products run in float32, whose sums of zeros and ones stay exact up
    to 2**24, so the pixel axis is cut into chunks of at most that length and
    the chunk totals are added in float64. Given the same stack twice, numpy
    multiplies it by its own transpose through SYRK, at half the flops.
    """
    counts = np.zeros((in_a.shape[0], in_b.shape[0]))
    for start in range(0, in_a.shape[1], _EXACT_F32_COUNT):
        chunk = slice(start, start + _EXACT_F32_COUNT)
        ind_a = in_a[:, chunk].astype(np.float32)
        ind_b = ind_a if in_b is in_a else in_b[:, chunk].astype(np.float32)
        counts += ind_a @ ind_b.T
    return counts


def iou_distance(a: LabelMap, b: LabelMap) -> float:
    """1 - IoU between two label maps, background class excluded."""
    _check_pair(a, b)
    return _mean_distance(SampleSet(samples=[a]), SampleSet(samples=[b]))


def _mean_distance(a: SampleSet, b: SampleSet) -> float:
    """Distance averaged over all ordered pairs, one map from each set."""
    rows_a, weights_a = a.distinct_rows()
    rows_b, weights_b = b.distinct_rows()
    classes = sorted({*a.foreground_classes, *b.foreground_classes})
    return float(weights_a @ pairwise_iou_distance(rows_a, rows_b, classes) @ weights_b)


def ged_squared(gt: SampleSet, pred: SampleSet) -> MetricReport:
    """Squared generalised energy distance between two empirical
    distributions of label maps:
    ``2 E[d(y, y_hat)] - E[d(y, y')] - E[d(y_hat, y_hat')]``.

    Identical label maps are grouped first, so the all-pairs expectations
    cost O(distinct^2) rather than O(samples^2).
    """
    _check_pair(gt, pred)
    cross = _mean_distance(gt, pred)
    gt_self = _mean_distance(gt, gt)
    diversity = _mean_distance(pred, pred)
    return MetricReport(
        ged_squared=2.0 * cross - gt_self - diversity,
        diversity=diversity,
        cross_term=cross,
        gt_self_term=gt_self,
    )


def sample_diversity(pred: SampleSet) -> float:
    """Mean pairwise distance among a model's own samples (self-pairs
    included); zero for a deterministic predictor."""
    if len(pred) < 2:
        warnings.warn("sample diversity of a single sample is 0 by convention")
        return 0.0
    return _mean_distance(pred, pred)


def _dice(pred: np.ndarray, gt_rows: np.ndarray, cls: int):
    """Dice 2TP / (2TP + FN + FP) of class ``cls`` between one label row and
    each ground-truth row, 0 where the class is in neither, and where it is
    defined (in either)."""
    in_pred = pred == cls
    in_gt = gt_rows == cls
    denominator = np.count_nonzero(in_pred) + np.count_nonzero(in_gt, axis=1)
    true_positive = np.count_nonzero(in_gt & in_pred, axis=1)
    return 2.0 * true_positive / np.maximum(denominator, 1), denominator > 0


def dsc(pred: LabelMap, gt: LabelMap, cls: int) -> float | None:
    """Dice coefficient 2TP / (2TP + FN + FP) for one class.

    Returns None (undefined) when the class is absent from both maps; such
    entries are excluded from averages rather than scored as 1.
    """
    _check_pair(pred, gt)
    cls = check_count(cls, 0, "cls")
    score, defined = _dice(pred.labels, gt.labels[None, :], cls)
    return float(score[0]) if defined[0] else None


def dsc_nod(pred: LabelMap, gts: SampleSet) -> float | None:
    """Mean Dice against only those ground-truth maps with foreground.

    Per retained map, per-class Dice values are averaged over the
    non-background classes, skipping undefined ones. Returns None when every
    ground truth is empty.
    """
    _check_pair(pred, gts)
    rows = gts._labels[gts._labels.any(axis=1)]
    if not len(rows):
        return None
    total = defined_classes = 0.0
    classes = {*SampleSet(samples=[pred]).foreground_classes, *gts.foreground_classes}
    # Class by class from 0.0: numpy's order for a mean of under 8 values.
    for cls in sorted(classes):
        score, defined = _dice(pred.labels, rows, cls)
        total = total + score
        defined_classes = defined_classes + defined
    return float(np.mean(total / defined_classes))


def marginal_entropy(prob_samples: list[np.ndarray]) -> np.ndarray:
    """Per-pixel entropy of the sample-averaged class probabilities.

    Input tensors are [num_pixels, num_classes] probability rows, or
    [num_pixels] foreground probabilities for single-logit binary maps
    (expanded to two classes). The log base is the class count, so the
    output lies in [0, 1]; 0 * log 0 counts as 0.
    """
    if not prob_samples:
        raise ValidationError("need at least one probability tensor")
    stacked = np.stack([np.asarray(p, dtype=np.float64) for p in prob_samples])
    if stacked.ndim == 3 and stacked.shape[2] == 1:
        stacked = stacked[:, :, 0]
    if stacked.ndim == 2:  # [n, S] foreground probabilities
        stacked = np.stack([1.0 - stacked, stacked], axis=2)
    if stacked.ndim != 3:
        raise ShapeError("probability tensors must be [num_pixels, num_classes]")
    if not np.all(np.isfinite(stacked)):
        raise ValidationError("probabilities must be finite")
    if np.any(stacked < -1e-9) or np.any(stacked > 1.0 + 1e-9):
        raise ValidationError("probabilities must lie in [0, 1]")
    row_sums = stacked.sum(axis=2)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValidationError("probability rows must sum to 1 within 1e-6")
    mean_probs = stacked.mean(axis=0)
    num_classes = mean_probs.shape[1]
    safe = np.where(mean_probs > 0.0, mean_probs, 1.0)
    entropy = -(mean_probs * np.log(safe)).sum(axis=1) / np.log(num_classes)
    return entropy
