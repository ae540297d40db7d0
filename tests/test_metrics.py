import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssn_lab import (
    LabelMap,
    PortableRng,
    SampleSet,
    ShapeError,
    ValidationError,
    dsc,
    dsc_nod,
    ged_squared,
    iou_distance,
    make_toy_dataset,
    marginal_entropy,
    sample_diversity,
)
from ssn_lab import metrics
from ssn_lab.metrics import _unique_rows, pairwise_iou_distance

BINARY_ENTROPY_QUARTER = 0.8112781244591328  # -(.25 log2 .25 + .75 log2 .75)


def binary_map(labels):
    return LabelMap(labels=np.asarray(labels, dtype=np.int64), num_classes=1)


def random_sample_set(seed, count, num_pixels=6, num_classes=1):
    rng = PortableRng(seed)
    maps = [
        LabelMap(
            labels=np.asarray(
                rng.integers(0, max(num_classes, 2), size=num_pixels),
                dtype=np.int64,
            ),
            num_classes=num_classes,
        )
        for _ in range(count)
    ]
    return SampleSet(samples=maps)


class TestIouDistance:
    def test_identical_nonempty_maps(self):
        a = binary_map([1, 1, 0, 0])
        assert iou_distance(a, a) == 0.0

    def test_both_empty_maps(self):
        a = binary_map([0, 0, 0])
        b = binary_map([0, 0, 0])
        assert iou_distance(a, b) == 0.0

    def test_toy_maps_half_distance(self):
        data = make_toy_dataset()
        assert iou_distance(data.maps[0], data.maps[1]) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_nested_binary_maps(self):
        a = binary_map([1] * 7 + [0] * 14)
        b = binary_map([1] * 14 + [0] * 7)
        assert iou_distance(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_multiclass_average_excludes_background(self):
        a = LabelMap(labels=np.array([0, 1, 2, 1]), num_classes=3)
        b = LabelMap(labels=np.array([0, 1, 1, 2]), num_classes=3)
        # class 1: IoU 1/3; class 2: IoU 0 -> d = 1 - 1/6
        assert iou_distance(a, b) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_class_absent_from_both_excluded(self):
        a = LabelMap(labels=np.array([1, 0]), num_classes=3)
        b = LabelMap(labels=np.array([1, 0]), num_classes=3)
        assert iou_distance(a, b) == 0.0

    def test_symmetry(self):
        rng = PortableRng(3)
        for _ in range(20):
            a = binary_map(np.asarray(rng.integers(0, 2, size=9)))
            b = binary_map(np.asarray(rng.integers(0, 2, size=9)))
            assert iou_distance(a, b) == iou_distance(b, a)

    def test_bounds(self):
        rng = PortableRng(4)
        for _ in range(30):
            a = binary_map(np.asarray(rng.integers(0, 2, size=5)))
            b = binary_map(np.asarray(rng.integers(0, 2, size=5)))
            assert 0.0 <= iou_distance(a, b) <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            iou_distance(binary_map([1, 0]), binary_map([1, 0, 0]))

    def test_class_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            iou_distance(binary_map([1, 0]), LabelMap(np.array([1, 0]), num_classes=2))


class TestGedSquared:
    def test_identical_single_maps(self):
        a = SampleSet(samples=[binary_map([1, 0, 1])])
        report = ged_squared(a, a)
        assert report.ged_squared == 0.0

    def test_hand_computed_two_disjoint_maps(self):
        first = binary_map([1, 1, 0, 0])
        second = binary_map([0, 0, 1, 1])
        gt = SampleSet(samples=[first, second])
        pred = SampleSet(samples=[first])
        report = ged_squared(gt, pred)
        assert report.cross_term == pytest.approx(0.5, abs=1e-15)
        assert report.gt_self_term == pytest.approx(0.5, abs=1e-15)
        assert report.diversity == 0.0
        assert report.ged_squared == pytest.approx(0.5, abs=1e-15)

    def test_identical_multisets_in_different_order_give_exact_zero(self):
        maps = [binary_map([1, 0, 0]), binary_map([0, 1, 1]), binary_map([1, 0, 0])]
        gt = SampleSet(samples=maps)
        pred = SampleSet(samples=maps[::-1])
        assert ged_squared(gt, pred).ged_squared == 0.0

    def test_report_identity_holds(self):
        gt = random_sample_set(10, 5)
        pred = random_sample_set(11, 7)
        report = ged_squared(gt, pred)
        assert report.ged_squared == pytest.approx(
            2.0 * report.cross_term - report.gt_self_term - report.diversity,
            abs=1e-12,
        )
        assert 0.0 <= report.cross_term <= 1.0
        assert 0.0 <= report.diversity <= 1.0
        assert -1.0 <= report.ged_squared <= 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_enumeration(self, seed):
        """Independent all-ordered-pairs loop, no grouping."""
        gt = random_sample_set(seed, int(2 + seed % 3))
        pred = random_sample_set(seed + 100, int(2 + (seed + 1) % 3))

        def mean_pairwise(set_a, set_b):
            values = [
                iou_distance(a, b)
                for a, b in itertools.product(set_a.samples, set_b.samples)
            ]
            return float(np.mean(values))

        expected = (
            2.0 * mean_pairwise(gt, pred)
            - mean_pairwise(gt, gt)
            - mean_pairwise(pred, pred)
        )
        assert ged_squared(gt, pred).ged_squared == pytest.approx(
            expected, abs=1e-12
        )

    def test_perfect_toy_model_distribution(self):
        data = make_toy_dataset()
        gt = SampleSet(samples=list(data.maps))
        # an exactly balanced large sample from the same two-atom distribution
        pred = SampleSet(samples=[data.maps[0]] * 500 + [data.maps[1]] * 500)
        report = ged_squared(gt, pred)
        assert report.ged_squared == pytest.approx(0.0, abs=1e-12)
        assert report.diversity == pytest.approx(0.25, abs=1e-12)


class TestSampleDiversity:
    def test_identical_samples_have_zero_diversity(self):
        pred = SampleSet(samples=[binary_map([1, 0, 1])] * 5)
        assert sample_diversity(pred) == 0.0

    def test_balanced_two_atom_distribution(self):
        data = make_toy_dataset()
        pred = SampleSet(samples=[data.maps[0], data.maps[1]])
        # ordered pairs incl. self: half the pairs at distance 0.5
        assert sample_diversity(pred) == pytest.approx(0.25, abs=1e-12)

    def test_single_sample_warns_and_returns_zero(self):
        pred = SampleSet(samples=[binary_map([1, 0])])
        with pytest.warns(UserWarning):
            assert sample_diversity(pred) == 0.0


class TestDsc:
    def test_perfect_match(self):
        a = binary_map([1, 1, 0])
        assert dsc(a, a, 1) == 1.0

    def test_absent_class_is_undefined_not_one(self):
        a = binary_map([0, 0, 0])
        assert dsc(a, a, 1) is None

    @pytest.mark.parametrize("cls", [-1, 1.0, True, "1"])
    def test_class_must_be_an_integer(self, cls):
        """``1.0`` and ``True`` once scored class 1; ``"1"`` and ``-1`` gave
        an undefined score."""
        a = binary_map([1, 1, 0])
        with pytest.raises(ValidationError, match="cls must be an integer >= 0"):
            dsc(a, a, cls)

    def test_hand_counted_overlap(self):
        pred = binary_map([1] * 7 + [0] * 14)
        gt = binary_map([1] * 14 + [0] * 7)
        assert dsc(pred, gt, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_symmetry(self):
        a = binary_map([1, 1, 0, 0, 1])
        b = binary_map([1, 0, 0, 1, 1])
        assert dsc(a, b, 1) == dsc(b, a, 1)


class TestDscNod:
    def test_all_ground_truths_empty_is_undefined(self):
        pred = binary_map([1, 0])
        gts = SampleSet(samples=[binary_map([0, 0]), binary_map([0, 0])])
        assert dsc_nod(pred, gts) is None

    def test_empty_ground_truths_excluded(self):
        x = binary_map([1, 1, 0])
        gts = SampleSet(samples=[binary_map([0, 0, 0]), x])
        assert dsc_nod(x, gts) == 1.0

    def test_duplicate_nonempty_ground_truths(self):
        x = binary_map([0, 1, 1])
        gts = SampleSet(samples=[x, x])
        assert dsc_nod(x, gts) == 1.0

    def test_declared_classes_past_the_labels_change_nothing(self):
        rng = np.random.default_rng(8)
        pred, rows = rng.integers(0, 3, size=12), rng.integers(0, 3, size=(5, 12))
        rows[:, 0] = 2  # class 2 in every ground truth, class 1 in the prediction
        pred[:2] = 1
        values = [
            dsc_nod(LabelMap(labels=pred, num_classes=c),
                    SampleSet(labels=rows, num_classes=c))
            for c in (3, 10**5)
        ]
        assert np.float64(values[0]).tobytes() == np.float64(values[1]).tobytes()


def reference_dsc(pred, gt, cls):
    """Dice of one class from Python integer counts, one pair of maps."""
    in_pred = pred.labels == cls
    in_gt = gt.labels == cls
    denominator = int(in_pred.sum()) + int(in_gt.sum())
    if denominator == 0:
        return None
    return 2.0 * int((in_pred & in_gt).sum()) / denominator


def reference_dsc_nod(pred, gts):
    """Dice averaged over defined classes, then over non-empty ground
    truths, one label map at a time."""
    scores = []
    for gt in gts.samples:
        if not np.any(gt.labels > 0):
            continue
        per_class = [
            reference_dsc(pred, gt, cls) for cls in range(1, max(gts.num_classes, 2))
        ]
        scores.append(float(np.mean([s for s in per_class if s is not None])))
    return float(np.mean(scores)) if scores else None


@st.composite
def dice_cases(draw):
    """A prediction and ground truths over 1-5 classes, some of the ground
    truths (all of them, at times) forced empty."""
    num_classes = draw(st.integers(1, 5))
    labels = st.integers(0, max(num_classes, 2) - 1)
    pixels = draw(st.integers(1, 12))
    rows = draw(arrays(np.int64, (draw(st.integers(1, 8)), pixels), elements=labels))
    rows[draw(arrays(bool, len(rows)))] = 0
    pred = draw(arrays(np.int64, pixels, elements=labels))
    return (
        LabelMap(labels=pred, num_classes=num_classes),
        SampleSet(labels=rows, num_classes=num_classes),
    )


class TestDiceOnLabelRows:
    """Dice over the label matrix keeps the bytes of the per-map loop."""

    @settings(max_examples=400, deadline=None)
    @given(dice_cases())
    def test_dsc_nod_matches_per_map_loop(self, case):
        pred, gts = case
        got, expected = dsc_nod(pred, gts), reference_dsc_nod(pred, gts)
        if expected is None:
            assert got is None
        else:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(dice_cases())
    def test_dsc_matches_per_pair_counts(self, case):
        pred, gts = case
        for gt in gts.samples:
            for cls in range(max(gts.num_classes, 2)):
                got, expected = dsc(pred, gt, cls), reference_dsc(pred, gt, cls)
                assert type(got) is type(expected)
                assert got == expected


class TestMarginalEntropy:
    def test_maximal_binary_entropy(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(marginal_entropy([rows]), 1.0, atol=1e-12)

    def test_one_hot_entropy_is_zero(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(marginal_entropy([rows]), 0.0, atol=1e-12)

    def test_quarter_three_quarter_binary(self):
        rows = np.array([[0.25, 0.75]])
        assert marginal_entropy([rows])[0] == pytest.approx(
            BINARY_ENTROPY_QUARTER, abs=1e-12
        )

    def test_averages_over_samples_before_entropy(self):
        # two confident but opposite samples average to maximal entropy
        first = np.array([[1.0, 0.0]])
        second = np.array([[0.0, 1.0]])
        assert marginal_entropy([first, second])[0] == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_vector_input_uses_two_classes(self):
        values = marginal_entropy([np.array([0.25, 0.5])])
        assert values[0] == pytest.approx(BINARY_ENTROPY_QUARTER, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)

    def test_three_class_base(self):
        rows = np.array([[1 / 3, 1 / 3, 1 / 3]])
        assert marginal_entropy([rows])[0] == pytest.approx(1.0, abs=1e-12)

    def test_unnormalised_rows_rejected(self):
        with pytest.raises(ValidationError):
            marginal_entropy([np.array([[0.5, 0.4]])])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, value):
        """A range check is false for nan, so finiteness is checked first."""
        with pytest.raises(ValidationError, match="finite"):
            marginal_entropy([np.full((3, 2), value)])
        with pytest.raises(ValidationError, match="finite"):
            marginal_entropy([np.array([0.5, value])])

    def test_bounds_on_random_inputs(self):
        rng = PortableRng(8)
        for _ in range(10):
            raw = np.abs(rng.standard_normal((4, 3))) + 1e-3
            rows = raw / raw.sum(axis=1, keepdims=True)
            values = marginal_entropy([rows])
            assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)


class TestSampleSet:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SampleSet(samples=[])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ShapeError):
            SampleSet(samples=[binary_map([1, 0]), binary_map([1, 0, 0])])

    @pytest.mark.parametrize("num_classes", [1, 3, 300])
    def test_matrix_and_maps_give_the_same_set(self, num_classes):
        maps = random_sample_set(3, 9, num_pixels=5, num_classes=num_classes)
        matrix = SampleSet(labels=maps.label_matrix(), num_classes=num_classes)
        assert matrix.label_matrix().dtype == np.int64
        assert np.array_equal(matrix.label_matrix(), maps.label_matrix())
        assert len(matrix) == 9 and matrix.num_pixels == 5
        assert [m.labels.tolist() for m in matrix.samples] == [
            m.labels.tolist() for m in maps.samples
        ]
        other = random_sample_set(4, 6, num_pixels=5, num_classes=num_classes)
        assert ged_squared(other, matrix) == ged_squared(other, maps)

    def test_foreground_classes_are_the_present_ones_computed_once(self):
        sample_set = SampleSet(labels=[[0, 7, 7], [3, 0, 7]], num_classes=2**63)
        classes = sample_set.foreground_classes
        assert classes == (3, 7) and all(type(cls) is int for cls in classes)
        assert sample_set.foreground_classes is classes

    @pytest.mark.parametrize("num_classes", [2**63 + 1, 2**64, int(1e30)])
    def test_class_count_past_int64_labels_rejected(self, num_classes):
        with pytest.raises(ValidationError, match="2\\*\\*63"):
            SampleSet(labels=[[0, 1]], num_classes=num_classes)

    def test_label_matrix_is_a_copy(self):
        sample_set = SampleSet(labels=np.zeros((2, 3), dtype=np.int64), num_classes=1)
        sample_set.label_matrix()[0, 0] = 1
        assert not sample_set.label_matrix().any()

    @pytest.mark.parametrize(
        "labels, num_classes",
        [([[0, -1]], 1), ([[0, 2]], 1), ([[3, 0]], 3), ([[0, 256]], 256),
         ([[0.5, 1.0]], 1)],
    )
    def test_out_of_range_label_rejected(self, labels, num_classes):
        with pytest.raises(ValidationError):
            SampleSet(labels=np.asarray(labels), num_classes=num_classes)

    @pytest.mark.parametrize(
        "build, bound_mb",
        [
            # toy evaluation's thresholded draw: 1.68 MB of int64 labels,
            # 0.21 MB once narrowed; an int64 copy first peaks at 1.89 MB
            (lambda: {"labels": np.ones((10_000, 21), dtype=np.int64),
                      "num_classes": 1}, 1.0),
            # 100 four-class 128x128 maps: 1.6 MB narrowed, 14.7 MB when the
            # maps are stacked as int64 first
            (lambda: {"samples": [
                LabelMap(labels=np.full(16_384, i % 4), num_classes=4)
                for i in range(100)]}, 4.0),
        ],
        ids=["labels", "samples"],
    )
    def test_narrows_in_one_copy(self, build, bound_mb):
        kwargs = build()
        tracemalloc.start()
        try:
            sample_set = SampleSet(**kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6
        expected = kwargs.get("labels")
        if expected is None:
            expected = [sample.labels for sample in kwargs["samples"]]
        assert np.array_equal(sample_set.label_matrix(), expected)

    def test_bad_matrix_arguments_rejected(self):
        with pytest.raises(ShapeError):
            SampleSet(labels=np.zeros(3, dtype=np.int64), num_classes=1)
        with pytest.raises(ShapeError):
            SampleSet(labels=np.zeros((0, 3), dtype=np.int64), num_classes=1)
        with pytest.raises(ValidationError):
            SampleSet(labels=np.zeros((1, 3), dtype=np.int64), num_classes=0)
        with pytest.raises(ValidationError):
            SampleSet(
                samples=[binary_map([1, 0])], labels=np.zeros((1, 2)), num_classes=1
            )


CLASS_COUNTS = [1, 2, 4, 255, 256, 300]


def assert_matches_np_unique(rows, num_classes):
    expected, expected_counts = np.unique(rows, axis=0, return_counts=True)
    got, counts = _unique_rows(rows, num_classes)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(counts, expected_counts)


@st.composite
def label_rows(draw):
    """Rows picked with repeats from a small pool, so duplicates are common."""
    num_classes = draw(st.sampled_from(CLASS_COUNTS))
    top = max(num_classes, 2) - 1
    # byte boundaries, where a wrong byte order would reorder rows
    edges = st.sampled_from(sorted({0, 1, top, min(top, 255), min(top, 256)}))
    pool = draw(
        arrays(
            np.int64,
            (draw(st.integers(1, 6)), draw(st.integers(0, 12))),
            elements=st.integers(0, top) | edges,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return pool[picks], num_classes


class TestUniqueRows:
    """The row dedup must reproduce np.unique(axis=0) exactly: the same
    rows in the same order with the same counts."""

    @settings(max_examples=300, deadline=None)
    @given(label_rows())
    def test_matches_np_unique(self, case):
        assert_matches_np_unique(*case)

    @pytest.mark.parametrize("num_classes", CLASS_COUNTS)
    def test_all_equal_rows(self, num_classes):
        rows = np.full((50, 9), max(num_classes, 2) - 1, dtype=np.int64)
        assert_matches_np_unique(rows, num_classes)

    @pytest.mark.parametrize("num_classes", CLASS_COUNTS)
    def test_all_distinct_rows(self, num_classes):
        limit = max(num_classes, 2)
        width = math.ceil(math.log(500) / math.log(limit))
        codes = np.random.default_rng(num_classes).permutation(limit**width)[:500]
        rows = codes[:, None] // limit ** np.arange(width)[::-1] % limit
        assert_matches_np_unique(rows, num_classes)
        assert _unique_rows(rows, num_classes)[0].shape == (500, width)


def float64_iou_distance(rows_a, rows_b, num_classes):
    """The distance matrix with float64 indicator products, no chunks."""
    iou_sum = np.zeros((rows_a.shape[0], rows_b.shape[0]))
    present = np.zeros_like(iou_sum)
    for cls in range(1, max(num_classes, 2)):
        in_a = rows_a == cls
        in_b = rows_b == cls
        intersection = in_a.astype(np.float64) @ in_b.T.astype(np.float64)
        union = in_a.sum(axis=1)[:, None] + in_b.sum(axis=1)[None, :] - intersection
        defined = union > 0
        iou_sum += np.where(defined, intersection / np.where(defined, union, 1.0), 0.0)
        present += defined
    mean_iou = np.where(present > 0, iou_sum / np.maximum(present, 1.0), 1.0)
    return 1.0 - mean_iou


def present_classes(rows_a, rows_b):
    """The non-background classes in either stack, ascending."""
    return sorted({*np.unique(rows_a).tolist(), *np.unique(rows_b).tolist()} - {0})


class TestPairwiseIouDistance:
    """Float32 overlap counts, chunked pixels, the self-pair product and the
    loop over present classes only must reproduce the float64 indicator
    products over every declared class byte for byte."""

    @staticmethod
    def label_rows(seed, count, pixels, num_classes):
        rng = np.random.default_rng(seed)
        # Skewed label shares, so some classes are rare or absent in a row.
        shares = rng.dirichlet(np.full(max(num_classes, 2), 0.4), size=count)
        cumulative = np.cumsum(shares, axis=1)[:, None, :]
        draws = rng.random((count, pixels))[:, :, None]
        return (draws > cumulative).sum(axis=2).astype(np.uint8)

    @pytest.mark.parametrize("chunk", [None, 1, 7, 64])
    @pytest.mark.parametrize("num_classes", [1, 2, 4])
    def test_equals_float64_reference(self, monkeypatch, chunk, num_classes):
        if chunk is not None:
            monkeypatch.setattr(metrics, "_EXACT_F32_COUNT", chunk)
        rows_a = self.label_rows(num_classes, 30, 130, num_classes)
        rows_b = self.label_rows(num_classes + 10, 17, 130, num_classes)
        for a, b in ((rows_a, rows_b), (rows_b, rows_a), (rows_a, rows_a)):
            got = pairwise_iou_distance(a, b, present_classes(a, b))
            assert got.tobytes() == float64_iou_distance(a, b, num_classes).tobytes()

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_self_pairs_match_a_copy(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(metrics, "_EXACT_F32_COUNT", chunk)
        rows = self.label_rows(3, 40, 97, 4)
        classes = present_classes(rows, rows)
        same = pairwise_iou_distance(rows, rows, classes)
        copy = pairwise_iou_distance(rows, rows.copy(), classes)
        assert same.tobytes() == copy.tobytes()
        assert np.array_equal(same, same.T) and not np.any(np.diag(same))

    def test_paper_size_counts_are_exact(self):
        rows_a = self.label_rows(5, 100, 128 * 128, 4)
        rows_b = self.label_rows(6, 4, 128 * 128, 4)
        for a, b in ((rows_b, rows_a), (rows_a, rows_a)):
            got = pairwise_iou_distance(a, b, present_classes(a, b))
            assert got.tobytes() == float64_iou_distance(a, b, 4).tobytes()

    def test_absent_classes_add_nothing(self):
        rows = self.label_rows(7, 20, 50, 3) * 2  # classes 0, 2 and 4 of 6
        got = pairwise_iou_distance(rows, rows[::-1], [2, 4])
        assert got.tobytes() == float64_iou_distance(rows, rows[::-1], 6).tobytes()

    def test_no_pixels(self):
        rows = np.zeros((3, 0), dtype=np.uint8)
        assert np.array_equal(pairwise_iou_distance(rows, rows, []), np.zeros((3, 3)))
