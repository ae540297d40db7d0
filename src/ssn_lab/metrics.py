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
from functools import cached_property, partial

import numpy as np

from . import rng
from .errors import ShapeError, ValidationError, check_count
from .likelihood import LabelMap, _check_labels, _check_pair

_EXACT_F32_COUNT = 1 << 24  # float32 counts every integer up to here exactly
_HELD_COUNTS = 1 << 21  # float64 overlap counts held per group of classes: 16 MiB
_LABEL_CHUNK = 1 << 16  # labels counted at a time: a 512 KiB int64 copy


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
        """The non-background classes in the set, ascending. Labels below
        2**16 are counted ``_LABEL_CHUNK`` at a time, with no sort and no
        int64 copy of the whole set; wider ones are sorted."""
        labels = self.distinct_rows()[0].reshape(-1)
        if self.num_classes > 1 << 16:
            present = np.unique(labels)
        else:
            seen = np.zeros(max(self.num_classes, 2), dtype=bool)
            for start in range(0, labels.size, _LABEL_CHUNK):
                counts = np.bincount(labels[start : start + _LABEL_CHUNK])
                seen[: counts.size] |= counts > 0
            present = np.flatnonzero(seen)
        return tuple(int(cls) for cls in present if cls)


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
    """Matrix of 1 - IoU distances between two stacks of label rows: the
    ``rows_a`` by ``rows_b`` block of ``_distance_matrix`` over the stacked
    rows ``[rows_a; rows_b]``, or that of ``rows_a`` alone when the same
    array is passed twice."""
    if rows_a is rows_b:
        return _distance_matrix(rows_a, classes)
    both = _distance_matrix(np.concatenate([rows_a, rows_b]), classes)
    return both[: len(rows_a), len(rows_a) :].copy()


def _distance_matrix(rows: np.ndarray, classes) -> np.ndarray:
    """The 1 - IoU distances between every two of the label ``rows``.

    ``classes`` are, ascending, the non-background classes present in the
    rows; a class in neither map of a pair adds +0.0 to its IoU sum and 0
    to its class count, which changes no bit. Per pair, IoU is averaged
    over the classes present in either map; pairs where every
    non-background class is absent from both maps get distance 0. Every
    entry is computed from its own two maps' counts alone, so a block of
    the matrix has the bytes of a pass over just those rows.
    """
    iou_sum = np.zeros((len(rows), len(rows)))
    present = np.zeros_like(iou_sum)
    for intersection in _class_overlaps(rows, classes):
        size = np.diagonal(intersection)
        union = size[:, None] + size[None, :] - intersection
        defined = union > 0
        iou_sum += np.where(defined, intersection / np.where(defined, union, 1.0), 0.0)
        present += defined
    # no foreground anywhere -> identical empty maps -> distance 0
    mean_iou = np.where(present > 0, iou_sum / np.maximum(present, 1.0), 1.0)
    return 1.0 - mean_iou


def _class_overlaps(rows: np.ndarray, classes):
    """Yield, per class of ``classes`` in order, the float64 ``[n, n]``
    overlap counts of the ``n`` label ``rows``: entry (i, j) counts the
    pixels where rows i and j both hold the class, so the diagonal holds
    each row's class size.

    A count is the product of the class indicator with its own transpose
    (SYRK, at half the flops) in float32, whose sums of zeros and ones stay
    exact up to 2**24, so the pixel axis is cut into chunks of at most that
    length and the chunk totals are added in float64. From ``_SPLIT_MIN``
    elements on, the two pixel halves are counted side by side and added:
    one ``_side_by_side`` call per group of classes whose counts fit in
    ``_HELD_COUNTS``. The counts are exact integers, so neither the split
    nor the CPUs change a bit.
    """
    n, pixels = rows.shape

    def count(batch, start: int, stop: int) -> list[np.ndarray]:
        totals = [np.zeros((n, n)) for _ in batch]
        for low in range(start, stop, _EXACT_F32_COUNT):
            part = rows[:, low : min(low + _EXACT_F32_COUNT, stop)]
            indicator = np.empty(part.shape, dtype=np.float32)
            for total, cls in zip(totals, batch):
                np.equal(part, cls, out=indicator, casting="unsafe")
                total += indicator @ indicator.T
        return totals

    group = max(1, _HELD_COUNTS // max(1, n * n))
    for first in range(0, len(classes), group):
        batch = classes[first : first + group]
        if rows.size < rng._SPLIT_MIN:
            counts = count(batch, 0, pixels)
        else:
            low, high = rng._side_by_side(partial(count, batch, 0, pixels // 2),
                                          partial(count, batch, pixels // 2, pixels))
            counts = [in_low + in_high for in_low, in_high in zip(low, high)]
        yield from counts


def _expected_distances(sets: list[SampleSet], pairs) -> list[float]:
    """Per ``(i, j)`` of ``pairs``, the distance averaged over all ordered
    pairs of maps, one from ``sets[i]`` and one from ``sets[j]``, from one
    overlap pass over the sets' stacked distinct rows."""
    distinct = [sample_set.distinct_rows() for sample_set in sets]
    sizes = [len(rows) for rows, _ in distinct]
    spans = [slice(sum(sizes[:k]), sum(sizes[: k + 1])) for k in range(len(sizes))]
    classes = sorted(set().union(*(s.foreground_classes for s in sets)))
    matrix = _distance_matrix(np.concatenate([rows for rows, _ in distinct]), classes)
    # Each block as a contiguous copy, the layout a pass of its own gave.
    return [float(distinct[i][1] @ matrix[spans[i], spans[j]].copy() @ distinct[j][1])
            for i, j in pairs]


def iou_distance(a: LabelMap, b: LabelMap) -> float:
    """1 - IoU between two label maps, background class excluded."""
    _check_pair(a, b)
    return _expected_distances([SampleSet(samples=[a]), SampleSet(samples=[b])],
                               [(0, 1)])[0]


def ged_squared(gt: SampleSet, pred: SampleSet) -> MetricReport:
    """Squared generalised energy distance between two empirical
    distributions of label maps:
    ``2 E[d(y, y_hat)] - E[d(y, y')] - E[d(y_hat, y_hat')]``.

    Identical label maps are grouped first, so the all-pairs expectations
    cost O(distinct^2) rather than O(samples^2), and all three come from one
    overlap count per class over the stacked rows ``[gt; pred]``.
    """
    _check_pair(gt, pred)
    cross, gt_self, diversity = _expected_distances([gt, pred], [(0, 1), (0, 0), (1, 1)])
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
    return _expected_distances([pred], [(0, 0)])[0]


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
    arrays = [np.asarray(p, dtype=np.float64) for p in prob_samples]
    if len({a.shape for a in arrays}) > 1:
        raise ShapeError("probability tensors must all have one shape")
    stacked = np.stack(arrays)
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
