import hashlib
import threading
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit, logsumexp

from ssn_lab import (
    GradCheckResult,
    LabelMap,
    LowRankGaussian,
    NoiseDraw,
    OverflowSignal,
    Params,
    PortableRng,
    ShapeError,
    ValidationError,
    cross_entropy_loss,
    finite_diff_grad,
    grad_ssn_mc_loss,
    gradient_check_suite,
    label_log_likelihood,
    labels_from_logits,
    make_toy_dataset,
    mix_seed,
    ssn_mc_loss,
)
from ssn_lab.lowrank import draw_noise, effective_diag, sample_rows
from conftest import random_instance, random_labels


def toy_binary(labels, mask=None):
    return LabelMap(labels=np.asarray(labels), num_classes=1, mask=mask)


class TestLabelLogLikelihood:
    def test_bernoulli_at_zero_logit(self):
        assert label_log_likelihood([0.0], toy_binary([1])) == pytest.approx(
            np.log(0.5), abs=1e-12
        )

    @pytest.mark.parametrize("level", [-3.0, 0.0, 7.5])
    def test_uniform_softmax_is_uniform(self, level):
        labels = LabelMap(labels=np.array([2]), num_classes=3)
        value = label_log_likelihood(np.full(3, level), labels)
        assert value == pytest.approx(np.log(1.0 / 3.0), abs=1e-12)

    def test_confident_logits_close_to_zero_loss(self):
        value = label_log_likelihood(np.array([20.0, -20.0]), toy_binary([1, 0]))
        assert value == pytest.approx(-2.0 * np.log1p(np.exp(-20.0)), abs=1e-8)
        assert abs(value) < 1e-8

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError):
            LabelMap(labels=np.array([3]), num_classes=3)

    @pytest.mark.parametrize(
        "labels, num_classes",
        [([0, 1], "2"), ([0, 1], 2.0), ([0, 1], True), ([0.5, 1.0], 1),
         (np.array([0.0, 1.0]), 2), (np.array([True, False]), 1)],
    )
    def test_labels_and_class_count_must_be_integers(self, labels, num_classes):
        """Nothing is coerced: ``[0.5, 1.0]`` once held ``[0, 1]``, and
        ``num_classes="2"`` raised a raw ``TypeError``."""
        with pytest.raises(ValidationError) as caught:
            LabelMap(labels=labels, num_classes=num_classes)
        assert type(caught.value) is ValidationError

    def test_masked_pixels_skipped(self):
        full = label_log_likelihood([1.0, -4.0], toy_binary([1, 1]))
        masked = label_log_likelihood(
            [1.0, -4.0], toy_binary([1, 1], mask=[True, False])
        )
        assert masked == pytest.approx(-np.log1p(np.exp(-1.0)), abs=1e-12)
        assert masked > full

    @pytest.mark.parametrize("function", [label_log_likelihood, cross_entropy_loss])
    @pytest.mark.parametrize("num_classes", [1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, function, num_classes, value):
        """As ``LowRankGaussian.log_prob`` rejects them, instead of a nan or
        inf result."""
        labels = LabelMap(labels=np.array([1, 0]), num_classes=num_classes)
        logits = np.zeros(2 * num_classes)
        logits[0] = value
        with pytest.raises(ValidationError, match="non-finite"):
            function(logits, labels)

    def test_large_magnitude_logits_stay_finite(self):
        value = label_log_likelihood(np.array([-500.0, 500.0]), toy_binary([1, 0]))
        assert np.isfinite(value)


class TestCrossEntropy:
    def test_perfect_prediction_loss_vanishes(self):
        labels = LabelMap(labels=np.array([0, 2]), num_classes=3)
        logits = np.array([[30.0, 0.0, 0.0], [0.0, 0.0, 30.0]]).reshape(-1)
        assert cross_entropy_loss(logits, labels) == pytest.approx(0.0, abs=1e-10)

    def test_seven_maximum_entropy_pixels(self):
        # analytic optimum of the diagonal toy model's uncertain third
        labels = toy_binary([1, 0, 1, 0, 1, 0, 1])
        assert cross_entropy_loss(np.zeros(7), labels) == pytest.approx(
            7.0 * np.log(2.0), abs=1e-12
        )

    @pytest.mark.parametrize("mask", [[0.5, 2], [0, 1], ["", "x"]])
    def test_mask_must_be_boolean(self, mask):
        """``[0.5, 2]`` once held ``[True, True]``."""
        with pytest.raises(ValidationError, match="mask must be boolean"):
            toy_binary([1, 0], mask=mask)

    def test_fully_masked_is_zero_with_warning(self):
        labels = toy_binary([1, 0], mask=[False, False])
        with pytest.warns(UserWarning):
            assert cross_entropy_loss(np.array([3.0, -1.0]), labels) == 0.0


@st.composite
def logit_batches(draw):
    """Logit rows over 1-4 classes from a few values, so that ties between
    classes and with the threshold are common."""
    num_classes = draw(st.integers(1, 4))
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 6)) * num_classes)
    rows = draw(hnp.arrays(np.float64, shape, elements=values))
    return rows, num_classes, draw(st.sampled_from([0.0, 0.5, -1.0]))


class TestLabelsFromLogits:
    """One function labels logit samples for sampling, toy evaluation and
    the most likely prediction; it must give the bytes each gave itself."""

    @settings(max_examples=300, deadline=None)
    @given(logit_batches())
    def test_matches_the_expressions_it_replaces(self, case):
        rows, num_classes, threshold = case
        n, dim = rows.shape
        pixels = dim // num_classes
        got = labels_from_logits(rows, num_classes, threshold)
        assert got.dtype == np.int64
        if num_classes == 1:
            sampled = (rows > threshold).astype(np.int64)  # the sample command
            assert np.array_equal(got, sampled)
            assert np.array_equal(labels_from_logits(rows, 1), rows > 0.0)  # toy eval
            mode = (rows[0] > 0.0).astype(np.int64)  # most likely prediction
        else:
            sampled = np.argmax(rows.reshape(n, pixels, -1), axis=2)
            assert np.array_equal(got, sampled)
            mode = np.argmax(rows[0].reshape(pixels, num_classes), axis=1)
        assert np.array_equal(labels_from_logits(rows[:1], num_classes)[0], mode)

    @pytest.mark.parametrize("num_classes", [0, 2.0, True, "2"])
    def test_class_count_must_be_an_integer(self, num_classes):
        """``True`` once thresholded as one logit, ``0`` divided by zero."""
        with pytest.raises(ValidationError, match="num_classes must be an integer"):
            labels_from_logits(np.zeros((2, 4)), num_classes)

    def test_width_the_class_count_does_not_divide_is_a_shape_error(self):
        """A raw ``ValueError: cannot reshape`` once."""
        with pytest.raises(ShapeError, match="5 logits per row"):
            labels_from_logits(np.zeros((2, 5)), 3)

    def test_tie_at_the_threshold_is_background(self):
        rows = np.array([[0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)]])
        assert labels_from_logits(rows, 1, 0.5).tolist() == [[0, 1, 0]]
        assert labels_from_logits(np.array([[0.0, -0.0]]), 1).tolist() == [[0, 0]]

    @pytest.mark.parametrize("num_classes", [2, 3, 4])
    def test_tied_classes_go_to_the_first(self, num_classes):
        rows = np.zeros((1, 2 * num_classes))
        rows[0, num_classes + 1 :] = 1.0
        assert labels_from_logits(rows, num_classes).tolist() == [[0, 1]]


def degenerate_dist(mean, rank=1):
    mean = np.asarray(mean, dtype=np.float64)
    return LowRankGaussian(
        mean=mean,
        factor=np.zeros((mean.size, rank)),
        diag_raw=np.full(mean.size, -40.0),
        num_pixels=mean.size,
        num_classes=1,
        rank=rank,
    )


class TestMcLoss:
    def test_single_sample_equals_cross_entropy_at_that_sample(self):
        dist = random_instance(2, max_dim=6, max_rank=2)
        labels = random_labels(2, dist.num_pixels, 1)
        result = ssn_mc_loss(dist, labels, num_samples=1, rng_seed=5)
        noise = result.noise
        sample = sample_rows(dist, noise)[0][0]
        assert result.value == pytest.approx(
            cross_entropy_loss(sample, labels), abs=1e-12
        )

    @pytest.mark.parametrize("num_samples", [1, 7, 64])
    def test_degenerate_covariance_recovers_cross_entropy(self, num_samples):
        mean = np.array([4.0, -4.0, 3.0, 5.0])
        dist = degenerate_dist(mean)
        labels = toy_binary([1, 0, 1, 1])
        result = ssn_mc_loss(dist, labels, num_samples, rng_seed=8)
        assert result.value == pytest.approx(
            cross_entropy_loss(mean, labels), abs=1e-3
        )

    def test_two_equiprobable_maps_approach_ln2(self, toy_ideal_model):
        """A distribution generating the two toy maps equiprobably and
        (nearly) exactly has per-map loss at the ln 2 mixture floor."""
        model = toy_ideal_model(amplitude=1e4, mean_outer=30.0)
        data = make_toy_dataset()
        losses = [
            ssn_mc_loss(model, label_map, 20_000, rng_seed=k).value
            for k, label_map in enumerate(data.maps)
        ]
        assert np.mean(losses) == pytest.approx(np.log(2.0), abs=0.02)

    def test_loss_value_identity_recomputable(self):
        dist = random_instance(9, max_dim=8, max_rank=3)
        labels = random_labels(9, dist.num_pixels, 1)
        result = ssn_mc_loss(dist, labels, 13, rng_seed=3)
        from scipy.special import logsumexp

        recomputed = -logsumexp(result.per_sample_loglik) + np.log(13)
        assert result.value == pytest.approx(recomputed, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_loss_nonnegative_for_discrete_labels(self, seed):
        dist = random_instance(seed, max_dim=8, max_rank=3)
        labels = random_labels(seed, dist.num_pixels, 1, with_mask=seed % 2 == 0)
        result = ssn_mc_loss(dist, labels, 5, rng_seed=seed)
        assert result.value >= 0.0

    def test_extreme_parameters_remain_finite(self):
        dist = degenerate_dist(np.array([500.0, -500.0]))
        labels = toy_binary([0, 1])  # wrong on both, very unlikely
        result = ssn_mc_loss(dist, labels, 4, rng_seed=0)
        assert np.isfinite(result.value)
        assert result.value > 100.0

    def test_shape_disagreement_rejected(self):
        dist = random_instance(0)
        labels = toy_binary(np.zeros(dist.num_pixels + 1, dtype=int))
        with pytest.raises(ShapeError):
            ssn_mc_loss(dist, labels, 2, rng_seed=0)

    def test_class_disagreement_rejected(self):
        dist = random_instance(0)
        labels = LabelMap(np.zeros(dist.num_pixels, dtype=int), num_classes=2)
        with pytest.raises(ShapeError):
            ssn_mc_loss(dist, labels, 2, rng_seed=0)

    @pytest.mark.parametrize("num_samples", [0, True, 2.5, "2"])
    def test_sample_count_must_be_an_integer(self, num_samples):
        """``True`` once scored one sample, and ``2.5`` raised a raw
        ``TypeError``."""
        dist = random_instance(0)
        labels = random_labels(0, dist.num_pixels, dist.num_classes)
        with pytest.raises(ValidationError, match="num_samples must be an integer"):
            ssn_mc_loss(dist, labels, num_samples, rng_seed=0)

    def test_negative_seed_rejected(self):
        dist = random_instance(0)
        labels = random_labels(0, dist.num_pixels, dist.num_classes)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            ssn_mc_loss(dist, labels, 2, rng_seed=-1)


class TestGradients:
    def test_single_sample_degenerate_matches_cross_entropy_gradient(self):
        from scipy.special import expit

        mean = np.array([0.7, -1.2, 0.1])
        dist = degenerate_dist(mean)
        labels = toy_binary([1, 0, 0])
        result = ssn_mc_loss(dist, labels, 1, rng_seed=4)
        grads = grad_ssn_mc_loss(dist, labels, result.noise)
        expected = expit(mean) - labels.labels
        assert np.allclose(grads.mean, expected, atol=5e-3)

    def test_balanced_point_has_zero_average_mean_gradient(self):
        """With zero noise and mean zero, the two toy maps pull the
        balanced middle-third gradient in exactly opposite directions
        (outer thirds share labels across maps and keep a -+0.5 pull)."""
        data = make_toy_dataset()
        dist = degenerate_dist(np.zeros(21))
        noise = NoiseDraw(eps_factor=np.zeros((1, 1)), eps_diag=np.zeros((1, 21)))
        total = np.zeros(21)
        for label_map in data.maps:
            total += grad_ssn_mc_loss(dist, label_map, noise).mean
        average = total / 2.0
        assert np.abs(average[7:14]).max() <= 1e-10
        assert np.allclose(average[:7], -0.5, atol=1e-10)
        assert np.allclose(average[14:], 0.5, atol=1e-10)

    def test_masked_rows_receive_exactly_zero_gradient(self):
        dist = random_instance(4, max_dim=6, max_rank=2)
        mask = np.ones(dist.num_pixels, dtype=bool)
        mask[0] = False
        labels = LabelMap(
            labels=np.zeros(dist.num_pixels, dtype=np.int64),
            num_classes=1,
            mask=mask,
        )
        result = ssn_mc_loss(dist, labels, 6, rng_seed=1)
        grads = grad_ssn_mc_loss(dist, labels, result.noise)
        assert grads.mean[0] == 0.0
        assert grads.diag_raw[0] == 0.0
        assert np.all(grads.factor[0] == 0.0)

    def test_noise_mismatch_rejected(self):
        dist = random_instance(1, max_dim=4, max_rank=2)
        labels = random_labels(1, dist.num_pixels, 1)
        bad = NoiseDraw(np.zeros((1, dist.rank + 1)), np.zeros((1, dist.dim)))
        with pytest.raises(ShapeError):
            grad_ssn_mc_loss(dist, labels, bad)

    def test_empty_noise_rejected(self):
        dist = random_instance(1, max_dim=4, max_rank=2)
        labels = random_labels(1, dist.num_pixels, 1)
        empty = NoiseDraw(np.zeros((0, dist.rank)), np.zeros((0, dist.dim)))
        with pytest.raises(ShapeError):
            grad_ssn_mc_loss(dist, labels, empty)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_multiclass_gradient_against_finite_differences(self, seed):
        from ssn_lab.likelihood import _mc_forward
        from ssn_lab.lowrank import draw_noise

        rng_labels = random_labels(seed, 4, 3, with_mask=True)
        params = {
            "mean": np.linspace(-1, 1, 12),
            "factor": np.arange(24, dtype=np.float64).reshape(12, 2) / 10.0 - 1.0,
            "diag_raw": np.linspace(-0.5, 0.5, 12),
        }
        dist = LowRankGaussian(
            params["mean"], params["factor"], params["diag_raw"], 4, 3, 2
        )
        noise = draw_noise(3, 2, 12, seed)
        grads = grad_ssn_mc_loss(dist, rng_labels, noise)
        numeric = finite_diff_grad(
            lambda p: _mc_forward(Params(**p), labels=rng_labels, noise=noise)[0],
            params,
        )
        for name, analytic in zip(("mean", "factor", "diag_raw"), grads):
            assert np.allclose(analytic, numeric[name], rtol=1e-4, atol=1e-7)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLogsumexpKernel:
    """The in-house logsumexp does scipy's operations, so it must return
    scipy's bytes; scipy stays here as the reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-np.inf, -2.5, 0.0, 0.5, 3.0]),
                st.floats(-1e3, 1e3),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_vector_matches_scipy(self, values):
        from ssn_lab.likelihood import _logsumexp

        x = np.array(values)
        # scipy's own ``x - max`` overflows for spreads beyond the float
        # range; the helper ignores those flags too, inside itself.
        with np.errstate(over="ignore", invalid="ignore"):
            expected = logsumexp(x)
        assert same_bytes(_logsumexp(x)[0], expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 4, 8, 9]),
        st.integers(1, 5),
        st.integers(1, 300),
        st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
    )
    def test_class_blocks_match_scipy(self, seed, classes, n, pixels, scale):
        """C on both sides of numpy's 8-wide pairwise sum block, with ties
        and -inf entries forced into many pixels."""
        from ssn_lab.likelihood import _logsumexp

        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal((n, pixels, classes))
        tie = rng.random((n, pixels, classes)) < 0.3
        x[tie] = x[..., :1].repeat(classes, axis=2)[tie]
        x[rng.random((n, pixels, classes)) < 0.1] = -np.inf
        x[..., -1] = np.where(np.isinf(x).all(axis=2), 1.0, x[..., -1])
        lse, shifted = _logsumexp(x)
        assert same_bytes(lse, logsumexp(x, axis=2))
        assert same_bytes(shifted, np.exp(x - x.max(axis=2, keepdims=True)))
        buffer = x.copy()
        lse_in_place, numer = _logsumexp(buffer, overwrite=True)
        assert numer is buffer
        assert same_bytes(lse_in_place, lse) and same_bytes(numer, shifted)

    def test_log1p_of_one_is_log_of_two(self):
        # The two-class closed form returns log1p(1.0) + max for a tie,
        # where scipy returns log1p(0.0) + log(2.0) + max: the same bits
        # only while this holds in the platform's libm.
        assert np.log1p(1.0).tobytes() == np.log(2.0).tobytes()
        assert (np.log1p(0.0) + np.log(2.0)).tobytes() == np.log(2.0).tobytes()

    PAIR_KINDS = ("free", "tie", "ulp", "-inf", "+inf", "nan", "all-inf")

    @staticmethod
    def class_pair(kind, a, b, side):
        """Two class logits of one pixel: a free pair, a tie, a near-tie one
        ulp apart (``exp`` of the gap rounds to 1.0), or ``a`` next to a
        ``-inf``, ``+inf`` or ``nan``; ``side`` picks the order."""
        other = {
            "free": b, "tie": a, "ulp": np.nextafter(a, 0.0), "-inf": -np.inf,
            "+inf": np.inf, "nan": np.nan, "all-inf": -np.inf,
        }[kind]
        pair = [-np.inf if kind == "all-inf" else a, other]
        return pair[::-1] if side else pair

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(PAIR_KINDS),
                st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False,
                                                          allow_infinity=False)),
                st.floats(-1e3, 1e3),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([(1, -1, 2), (-1, 2), (2, -1, 2)]),
    )
    def test_two_classes_match_scipy(self, pairs, shape):
        """The closed form for two classes, and its fallback to the general
        path for a non-finite maximum (+inf, nan, all -inf): scipy's bytes
        and ``exp(x - max)``'s wherever the maximum is finite."""
        from ssn_lab.likelihood import _logsumexp

        if shape[0] == 2 and len(pairs) % 2:
            pairs = pairs + pairs[:1]
        x = np.array([self.class_pair(*pair) for pair in pairs]).reshape(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = logsumexp(x, axis=-1)
            numer = np.exp(x - x.max(axis=-1, keepdims=True))
        finite = np.isfinite(x.max(axis=-1))
        for overwrite in (False, True):
            buffer = x.copy()
            lse, shifted = _logsumexp(buffer, overwrite=overwrite)
            assert (shifted is buffer) == overwrite
            assert same_bytes(lse, expected)
            assert same_bytes(shifted[finite], numer[finite])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 16).flatmap(
            lambda classes: hnp.arrays(
                np.float64,
                st.tuples(st.integers(0, 3), st.integers(0, 40), st.just(classes)),
                elements=st.one_of(
                    st.sampled_from([-0.0, 0.0, np.inf, -np.inf]),
                    st.floats(allow_nan=False),
                ),
            )
        )
    )
    def test_class_slice_sum_matches_numpy(self, block):
        """The class-slice fold under 8 classes, numpy's sum from 8 on:
        numpy's bytes either way, signed zeros and infinities included."""
        from ssn_lab.likelihood import _sum_last_axis

        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bytes(_sum_last_axis(block), block.sum(axis=-1))


def batch_label_terms(logit_rows, labels):
    """The categorical label terms as one batch: the class-axis gather, the
    logsumexp over the whole batch, then each row summed over a C-contiguous
    copy of its active pixels. The reference for the row-block kernel."""
    from ssn_lab.likelihood import _logsumexp

    n = logit_rows.shape[0]
    active = labels.active_mask()
    eta = logit_rows.reshape(n, labels.num_pixels, labels.num_classes)
    picked = np.take_along_axis(eta, labels.labels[None, :, None], axis=2)
    with np.errstate(invalid="ignore"):
        log_norm, numer = _logsumexp(eta)
        terms = np.ascontiguousarray((picked[:, :, 0] - log_norm)[:, active])
    loglik = terms.sum(axis=1) if active.any() else np.zeros(n)
    return loglik, numer


@st.composite
def label_term_cases(draw):
    """Categorical logit batches with ties, infinities and nans among the
    classes, masks (all-masked ones too) and a block size that may split a
    call into many row blocks."""
    classes = draw(st.integers(2, 4))
    n, pixels = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    values = st.one_of(
        st.sampled_from([-1.0, 0.0, 0.5, 2.0, -np.inf, np.inf, np.nan]),
        st.floats(-50.0, 50.0),
    )
    rows = draw(hnp.arrays(np.float64, (n, pixels * classes), elements=values))
    labels = np.array(draw(st.lists(st.integers(0, classes - 1),
                                    min_size=pixels, max_size=pixels)))
    mask = draw(st.one_of(st.none(), hnp.arrays(bool, pixels)))
    block = draw(st.sampled_from([1, 5, 16, 64, 1 << 15]))
    return rows, LabelMap(labels=labels, num_classes=classes, mask=mask), block


class TestRowBlockLabelTerms:
    @settings(max_examples=300, deadline=None)
    @given(label_term_cases())
    def test_row_blocks_match_the_batch_formula(self, case):
        """The same bytes as one batch, the softmax numerators written over
        the caller's rows, and one all-masked warning per call, however many
        row blocks the call takes."""
        from ssn_lab import likelihood

        rows, labels, block = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want_loglik, want_numer = batch_label_terms(rows.copy(), labels)
        buffer = rows.copy()
        with mock.patch.object(likelihood, "_BLOCK", block), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loglik, numer = likelihood._label_terms(buffer, labels)
        assert same_bytes(loglik, want_loglik)
        assert same_bytes(numer, want_numer)
        assert same_bytes(buffer.reshape(want_numer.shape), want_numer)
        assert len(caught) == (0 if labels.active_mask().any() else 1)


def batch_bernoulli_terms(logit_rows, labels):
    """The single-logit label terms as one batch, each row summed over an
    F-ordered copy of its active pixels. The reference for the row blocks."""
    active = labels.active_mask()
    eta = logit_rows[:, active]
    sign = np.where(labels.labels[active] == 1, 1.0, -1.0)
    with np.errstate(invalid="ignore"):
        return (-np.logaddexp(0.0, -sign * eta)).sum(axis=1)


@st.composite
def bernoulli_term_cases(draw):
    """Single-logit batches over a few row blocks, with infinities, nans and
    logits far enough out that a term is exactly 0, masks (all-masked ones
    too) and a block size that may cut a call into many row blocks."""
    n, pixels = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    values = st.one_of(
        st.sampled_from([-800.0, -1.0, 0.0, 2.0, 800.0, -np.inf, np.inf, np.nan]),
        st.floats(-50.0, 50.0),
    )
    rows = draw(hnp.arrays(np.float64, (n, pixels), elements=values))
    labels = draw(hnp.arrays(np.int64, pixels, elements=st.integers(0, 1)))
    mask = draw(st.one_of(st.none(), hnp.arrays(bool, pixels)))
    block = draw(st.sampled_from([1, 5, 64, 1 << 15]))
    return rows, LabelMap(labels=labels, num_classes=1, mask=mask), block


class TestRowBlockBernoulliTerms:
    @settings(max_examples=300, deadline=None)
    @given(bernoulli_term_cases())
    def test_row_blocks_match_the_batch_formula(self, case):
        """The batch's bytes, nan signs and zero signs included, the caller's
        rows left as they are, and one all-masked warning per call, however
        many row blocks the call takes."""
        from ssn_lab import likelihood

        rows, labels, block = case
        want = batch_bernoulli_terms(rows, labels)
        buffer = rows.copy()
        with mock.patch.object(likelihood, "_BLOCK", block), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loglik, numer = likelihood._label_terms(buffer, labels)
        assert numer is None
        assert same_bytes(loglik, want)
        assert same_bytes(buffer, rows)
        assert len(caught) == (0 if labels.active_mask().any() else 1)

    @pytest.mark.parametrize("n", [1, 2, 1561, 3 * 1560 + 1, 5000])
    def test_default_blocks_match_the_batch_formula(self, n):
        """At the default block size, 1560 toy rows of 21 pixels, a call of a
        few blocks, one whose last block would hold a single row among them."""
        from ssn_lab.likelihood import _label_terms

        rows = 6.0 * PortableRng(n).standard_normal((n, 21))
        rows[::97, 3], rows[::89, 5], rows[::83, 8] = np.inf, -np.inf, np.nan
        labels = make_toy_dataset().maps[1]
        assert same_bytes(_label_terms(rows.copy(), labels)[0],
                          batch_bernoulli_terms(rows, labels))


class TestOverflowContract:
    """A non-finite logit sample on a scored pixel makes its log-likelihood
    non-finite, and the forward pass raises ``OverflowSignal``: the toy
    trainer turns that into ``overflow_early_stop``."""

    @staticmethod
    def kernel_args(num_classes, poison, mask=None):
        labels = LabelMap(
            labels=np.array([0, 1, 1, 0]), num_classes=num_classes, mask=mask
        )
        dim = 4 * num_classes
        mean = np.linspace(-1.0, 1.0, dim)
        for index, value in poison:
            mean[index] = value
        return dict(
            params=Params(
                mean=mean,
                factor=np.full((dim, 2), 0.1),
                diag_raw=np.zeros(dim),
            ),
            labels=labels,
            noise=draw_noise(3, 2, dim, 5),
        )

    # (num_classes, [(flat index, value)]): class blocks are pixel-major;
    # -inf sits on a labelled class, since -inf elsewhere is probability 0.
    CASES = {
        "categorical+inf": (3, [(4, np.inf)]),
        "categorical-inf": (3, [(4, -np.inf)]),
        "categorical-nan": (3, [(5, np.nan)]),
        "categorical-all-inf": (3, [(3, np.inf), (4, np.inf), (5, np.inf)]),
        "bernoulli+inf": (1, [(0, np.inf)]),
        "bernoulli-inf": (1, [(1, -np.inf)]),
        "bernoulli-nan": (1, [(2, np.nan)]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_non_finite_sample_raises(self, case):
        from ssn_lab.likelihood import _mc_forward, loss_and_grads

        args = self.kernel_args(*self.CASES[case])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the signal is all that surfaces
            with pytest.raises(OverflowSignal):
                _mc_forward(**args)
            with pytest.raises(OverflowSignal):
                loss_and_grads(**args)

    @pytest.mark.parametrize("num_classes", [1, 3])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_masked_pixel_is_ignored(self, num_classes, value):
        from ssn_lab.likelihood import loss_and_grads

        mask = np.array([True, False, True, True])
        args = self.kernel_args(num_classes, [(num_classes, value)], mask)
        with np.errstate(invalid="ignore"):
            loss, grads = loss_and_grads(**args)
        assert np.isfinite(loss)
        block = slice(num_classes, 2 * num_classes)
        for grad in grads:
            assert np.all(np.isfinite(grad))
            assert np.all(grad[block] == 0.0)


def paper_size_case(num_classes, seed, factor_scale=0.005):
    """The paper's size, 128x128 pixels at rank 10, with ~10% of the
    pixels masked out. At the default ``factor_scale`` the logit noise is
    small enough that several of the 20 samples carry weight in the
    gradient (effective sample size 5-11); from about 0.3 the per-sample
    log-likelihoods differ by thousands of nats and most weights are 0."""
    rng = PortableRng(mix_seed(seed, num_classes))
    pixels, rank = 128 * 128, 10
    dim = pixels * num_classes
    dist = LowRankGaussian(
        rng.standard_normal(dim),
        factor_scale * rng.standard_normal((dim, rank)),
        rng.standard_normal(dim) - 12.0,
        pixels,
        num_classes,
        rank,
    )
    labels = LabelMap(
        labels=rng.integers(0, max(num_classes, 2), size=pixels),
        num_classes=num_classes,
        mask=rng.uniform_open(pixels) >= 0.1,
    )
    return dist, labels


# SHA-256 of the exact bytes of the loss, the per-sample log-likelihoods and
# the three gradients at 20 samples, recorded before the categorical
# likelihood became a one-pass kernel. The Bernoulli case guards the
# summation layout of its masked rows.
GOLDEN_PAPER_DIGESTS = {
    (1, 3): {
        "value": "cdf08a513698c4e7f89a1dd142dc7ec34f97c6d6e1c543c9d415a909695aa3a3",
        "per_sample_loglik": "11a3e33054484119226ce4e6af3d5c29b760ce35353384bf7276cf206f09c0bf",
        "mean": "b5e91dfc3484c00862dc607dad203733a8340884b417c95bdcabe2456e29a600",
        "factor": "7d4d69f11d23cbe36124712ad7d2964bcff8f1e04af62e2aae20fba723d5ec13",
        "diag_raw": "60cac4b42e3f88a6892e6e6314ba5e5a9c5ceb831a5321204ca593e576900521",
    },
    (2, 1): {
        "value": "d167a2e11dcdc3a9e2bef7ff4b0533383c22c084c6dc27bb8d126e39fcd94343",
        "per_sample_loglik": "cc6dd49c3b6fc39af15665530936a8630a5491665975b95c084d24fb10d7e90c",
        "mean": "07c66adbc8dfb35af484a943268732db8f3a0712306d1510802c2c021a828805",
        "factor": "24f81a2e6e8d3a21932c74952ba0ecd7ad2507e2d374225a2ce482cb9a40c520",
        "diag_raw": "ebf403dc30ee805d9de9336111c0d232ac779107d4e3ee13c8a8498a8a98e053",
    },
    (4, 2): {
        "value": "38b054174761fed7813c6aead7b112efa4ec29797698dbc92575c0cb50f55ca6",
        "per_sample_loglik": "c3ece09ed97858896dd83c2edecf5de7ef6f0dd9a4b14baa8469495bf7c30a11",
        "mean": "d16b5bb0bc25bc3bb00eba79ed726f9f1f0f051251096c4b4417dfddaca57774",
        "factor": "877974bf7add9e778e9220771b19a3c2e131128a620c78bb9e0b6f8d9c73ad15",
        "diag_raw": "004936205a3e0896c27a54b080522d46072f05528fc8dce9b700996cc60da039",
    },
}


def paper_size_digests(dist, labels, seed):
    """SHA-256 of the loss, the per-sample log-likelihoods and the three
    gradients at 20 samples, and the count of exactly-zero sample weights."""
    from ssn_lab.likelihood import _mc_forward

    loss = ssn_mc_loss(dist, labels, 20, rng_seed=seed)
    noise = loss.noise
    weights = _mc_forward(dist, labels, noise)[2]
    grads = grad_ssn_mc_loss(dist, labels, noise)
    arrays = {
        "value": np.float64(loss.value),
        "per_sample_loglik": loss.per_sample_loglik,
        **grads._asdict(),
    }
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in arrays.items()
    }
    return digests, int(np.count_nonzero(weights == 0.0))


@pytest.mark.parametrize("num_classes,seed", sorted(GOLDEN_PAPER_DIGESTS))
def test_golden_paper_size_bits(num_classes, seed):
    dist, labels = paper_size_case(num_classes, seed)
    digests, zeros = paper_size_digests(dist, labels, seed)
    assert zeros == 0
    assert digests == GOLDEN_PAPER_DIGESTS[num_classes, seed]


# The same digests, keyed by (num_classes, seed, factor_scale), where the
# Monte-Carlo weights have collapsed onto a few samples, as they do in
# paper-size training: at least 10 of the 20 weights are exactly 0, and at
# (2, 1, 1.0) all but one. Recorded before the gradient skipped the
# zero-weight samples.
GOLDEN_COLLAPSED_DIGESTS = {
    (1, 2, 0.3): {
        "value": "82bbb55aff3db934e5f52c2170997f09e4707423fd74c8882b940a9ca2db6821",
        "per_sample_loglik": "63189471def25990f83e9b4889ccd78381de5bdc81b7797b6011e95fa5e01bb9",
        "mean": "4c8a40df97a807c4cb33e6f96621f1b29b80b5eb79bb487d80a38735d117ac89",
        "factor": "4780b844b07457b0bd4968ef509cbb32ade6897f83e82badf03cff0b399cf278",
        "diag_raw": "158a855a9971199233efc03898492884a3ad3ee7a51eb33eb086d038fce9a14d",
        "zero_weights": 13,
    },
    (2, 2, 0.3): {
        "value": "87e6f87007ae369eda60b8dbd301a7050aa9afd52a0aebd9e68de1a61e7fddf4",
        "per_sample_loglik": "bb6345c393c6441079a4c22bb75938e861cb745a53b0b3edcc1468d4f959782f",
        "mean": "740656f2e9b0042b864caf03bdd7e0e2cc08f245517ce1ff36d01bb89d23f59d",
        "factor": "46fc4012ec716fd8bce3dc897add0993e2ee5839e8890e2ecb35e6697de0a7b6",
        "diag_raw": "96becbaa9c7aa60c339a3b19112df879d58fe20dfaff92f294c61ecbca605643",
        "zero_weights": 13,
    },
    (4, 2, 0.3): {
        "value": "545d592560171913ad0334f8dbbac424f79a979be3ccfadff5b49298803a6ccb",
        "per_sample_loglik": "1c474c43deaba8edda85fb48f3d486af74d0d5e37e10b0e709b3be7ca8de56ab",
        "mean": "5af5ce22abcb261d92ce79ceedbf1e0bab0babdb8393da8aa3d21d368502b461",
        "factor": "80ccf98853fb9468f3ff1df95912a57d38a3708938a90b074de2ddecb7c3fb3a",
        "diag_raw": "62a092da07fa883e205f9fecc0a1f7757273f52fddd3c2c9e28090dc149f6207",
        "zero_weights": 13,
    },
    (2, 1, 1.0): {
        "value": "0cc7aee4c921ba7f2a29fd2ee46bd276f58e6580e7ae5a11590ade53db6b8cde",
        "per_sample_loglik": "1ca452e6e782e4d9e3e70b765c74877ecc3bbd266e6bc61ca6edb7da4dbbcdbc",
        "mean": "414549dfed1342d48ad625600217db5073b0ebc987beb4e7872a765a9d388389",
        "factor": "0325ec80535a0d174e99483fc37c6b0c732b00346bcde5fe75bf192f02fe0d95",
        "diag_raw": "f1d1686d71056f0975d4ca930b1ce149d0e8e6c0bd9ead46825019464c29acd8",
        "zero_weights": 19,
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_COLLAPSED_DIGESTS))
def test_golden_collapsed_weight_bits(case):
    num_classes, seed, factor_scale = case
    dist, labels = paper_size_case(num_classes, seed, factor_scale)
    digests, zeros = paper_size_digests(dist, labels, seed)
    assert {**digests, "zero_weights": zeros} == GOLDEN_COLLAPSED_DIGESTS[case]


def full_row_grads(diag_raw, labels, eps_factor, eps_diag, weights, block):
    """The gradient formed over every sample, zero weights included."""
    if labels.num_classes == 1:
        probs, classes = expit(block)[:, :, None], 1
    else:
        probs, classes = block / block.sum(axis=-1)[..., None], np.arange(
            labels.num_classes
        )
    residual = probs - (labels.labels[:, None] == classes)
    residual[:, ~labels.active_mask()] = 0.0
    residual = (weights[:, None, None] * residual).reshape(weights.size, -1)
    sqrt_d_deriv = 0.5 / np.sqrt(effective_diag(diag_raw)) * expit(diag_raw)
    return (
        residual.sum(axis=0),
        residual.T @ eps_factor,
        (residual * eps_diag).sum(axis=0) * sqrt_d_deriv,
    )


@st.composite
def zero_weight_cases(draw):
    """Kernel arguments and the samples forced to weight exactly 0: their
    diagonal noise pushes every scored pixel's labelled logit far below the
    others, so their log-likelihood trails by thousands of nats."""
    num_classes = draw(st.sampled_from([1, 2, 3]))
    pixels = draw(st.integers(1, 64))
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    forced = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    forced[draw(st.integers(0, n - 1))] = False
    rng = PortableRng(draw(st.integers(0, 2**32)))
    dim = pixels * num_classes
    labels = LabelMap(
        labels=rng.integers(0, max(num_classes, 2), size=pixels),
        num_classes=num_classes,
        mask=(rng.uniform_open(pixels) >= 0.3) if draw(st.booleans()) else None,
    )
    if not labels.active_mask().any():
        labels = LabelMap(labels.labels, num_classes)
    noise = draw_noise(n, rank, dim, int(rng.integers(0, 2**62)))
    eps_diag = noise.eps_diag.copy()
    if num_classes == 1:
        away = np.where(labels.labels == 1, -1e6, 1e6)
    else:
        onehot = labels.labels[:, None] == np.arange(num_classes)
        away = np.where(onehot, -1e6, 1e6).reshape(-1)
    eps_diag[forced] = away
    args = dict(
        params=Params(
            mean=rng.standard_normal(dim),
            factor=rng.standard_normal((dim, rank)),
            diag_raw=rng.standard_normal(dim),
        ),
        labels=labels,
        noise=NoiseDraw(noise.eps_factor, eps_diag),
    )
    return args, forced


class TestZeroWeightSamples:
    """The backward pass leaves out the samples whose Monte-Carlo weight is
    exactly 0; the gradient must keep the bytes of the sum over all of
    them, and no caller's array may be overwritten on the way."""

    @settings(max_examples=200, deadline=None)
    @given(zero_weight_cases())
    def test_gradient_equals_full_row_reference(self, case):
        from ssn_lab.likelihood import _mc_forward, loss_and_grads

        args, forced = case
        value, _, weights, block, _ = _mc_forward(**args)
        assert np.all(weights[forced] == 0.0)
        expected = full_row_grads(
            args["params"].diag_raw, args["labels"], args["noise"].eps_factor,
            args["noise"].eps_diag, weights, block,
        )
        loss, grads = loss_and_grads(**args)
        assert same_bytes(loss, value)
        for got, want in zip(grads, expected):
            assert same_bytes(got, want)

    def test_tiny_non_zero_weight_still_counts(self):
        """The heavy sample predicts both labels with probability exactly 1,
        so the whole gradient comes from a sample of weight about 1e-304."""
        from ssn_lab.likelihood import _mc_forward, loss_and_grads

        scale = np.sqrt(effective_diag(-60.0))
        args = dict(
            params=Params(
                mean=np.full(2, 40.0),
                factor=np.zeros((2, 2)),
                diag_raw=np.full(2, -60.0),
            ),
            labels=LabelMap(labels=np.array([1, 1]), num_classes=1),
            noise=NoiseDraw(
                eps_factor=np.zeros((2, 2)),
                eps_diag=np.array([[0.0, 0.0], [-740.0 / scale, 0.0]]),
            ),
        )
        value, _, weights, block, _ = _mc_forward(**args)
        assert 0.0 < weights[1] < 1e-300
        expected = full_row_grads(
            args["params"].diag_raw, args["labels"], args["noise"].eps_factor,
            args["noise"].eps_diag, weights, block,
        )
        _, grads = loss_and_grads(**args)
        assert grads.mean[0] < 0.0
        for got, want in zip(grads, expected):
            assert same_bytes(got, want)

    @pytest.mark.parametrize("num_classes", [1, 2, 3])
    def test_caller_logits_are_left_unchanged(self, num_classes):
        labels = random_labels(4, 9, num_classes, with_mask=True)
        logits = PortableRng(4).standard_normal(9 * num_classes)
        before = logits.copy()
        label_log_likelihood(logits, labels)
        cross_entropy_loss(logits, labels)
        assert same_bytes(logits, before)

    @pytest.mark.parametrize("num_classes,seed", [(1, 2), (2, 2), (4, 2)])
    def test_per_sample_loglik_survives_the_gradient(self, num_classes, seed):
        dist, labels = paper_size_case(num_classes, seed, 0.3)
        loss = ssn_mc_loss(dist, labels, 20, rng_seed=seed)
        before = loss.per_sample_loglik.copy()
        grad_ssn_mc_loss(dist, labels, loss.noise)
        assert same_bytes(loss.per_sample_loglik, before)


class TestForwardReuse:
    """``grad_ssn_mc_loss`` on the noise of ``ssn_mc_loss`` reuses that
    forward pass. The reference is the same noise rebuilt as a fresh
    ``NoiseDraw``, which carries no record and so recomputes it."""

    CASES = [(1, 3), (2, 1), (4, 2)]

    @staticmethod
    def forward_counter(monkeypatch):
        import ssn_lab.likelihood as likelihood

        calls = []
        forward = likelihood._mc_forward

        def counted(*args):
            calls.append(1)
            return forward(*args)

        monkeypatch.setattr(likelihood, "_mc_forward", counted)
        return calls

    @staticmethod
    def recomputed(dist, labels, noise):
        fresh = NoiseDraw(noise.eps_factor, noise.eps_diag)
        return grad_ssn_mc_loss(dist, labels, fresh)

    @staticmethod
    def same_grads(a, b):
        return all(same_bytes(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("num_classes,seed", CASES)
    def test_reused_and_repeated_gradients_match_recompute(
        self, monkeypatch, num_classes, seed
    ):
        dist, labels = paper_size_case(num_classes, seed)
        noise = ssn_mc_loss(dist, labels, 20, rng_seed=seed).noise
        expected = self.recomputed(dist, labels, noise)
        calls = self.forward_counter(monkeypatch)
        reused = grad_ssn_mc_loss(dist, labels, noise)
        assert len(calls) == 0
        again = grad_ssn_mc_loss(dist, labels, noise)
        assert len(calls) == 1
        assert self.same_grads(reused, expected)
        assert self.same_grads(again, expected)

    @pytest.mark.parametrize("num_classes,seed", CASES)
    def test_equal_but_distinct_inputs_recompute(
        self, monkeypatch, num_classes, seed
    ):
        dist, labels = paper_size_case(num_classes, seed)
        twin_dist = LowRankGaussian(
            dist.mean, dist.factor, dist.diag_raw,
            dist.num_pixels, dist.num_classes, dist.rank,
        )
        twin_labels = LabelMap(labels.labels, labels.num_classes, labels.mask)
        for other_dist, other_labels in ((twin_dist, labels), (dist, twin_labels)):
            noise = ssn_mc_loss(dist, labels, 20, rng_seed=seed).noise
            expected = self.recomputed(dist, labels, noise)
            calls = self.forward_counter(monkeypatch)
            got = grad_ssn_mc_loss(other_dist, other_labels, noise)
            monkeypatch.undo()
            assert len(calls) == 1
            assert self.same_grads(got, expected)

    def test_record_stays_out_of_repr_and_equality(self):
        dist = random_instance(2, max_dim=8, max_rank=2)
        labels = random_labels(2, dist.num_pixels, 1)
        noise = ssn_mc_loss(dist, labels, 3, rng_seed=2).noise
        fresh = NoiseDraw(noise.eps_factor, noise.eps_diag)
        assert noise == fresh
        assert repr(noise) == repr(fresh)

    def test_noise_is_read_only(self):
        dist = random_instance(3, max_dim=8, max_rank=2)
        labels = random_labels(3, dist.num_pixels, 1)
        loss = ssn_mc_loss(dist, labels, 3, rng_seed=3)
        _, sampled = dist.sample(3, seed=3)
        for noise in (loss.noise, sampled):
            with pytest.raises(ValueError):
                noise.eps_diag[0, 0] = 1.0
            with pytest.raises(ValueError):
                noise.eps_factor[0, 0] = 1.0


def row_half_case(num_samples, num_classes, masked):
    """A model of 6 pixels at rank 2 and its labels, seeded by the case."""
    rng = PortableRng(mix_seed(num_samples, num_classes, int(masked)))
    dim = 6 * num_classes
    dist = LowRankGaussian(rng.standard_normal(dim), rng.standard_normal((dim, 2)),
                           rng.standard_normal(dim), 6, num_classes, 2)
    return dist, random_labels(num_samples, 6, num_classes, with_mask=masked)


def row_half_outputs(dist, labels, num_samples):
    """Every byte ``sample``, ``ssn_mc_loss`` and ``grad_ssn_mc_loss`` give,
    the gradient both from the forward's record and recomputed."""
    samples, noise = dist.sample(num_samples, seed=9)
    loss = ssn_mc_loss(dist, labels, num_samples, rng_seed=9)
    fresh = NoiseDraw(loss.noise.eps_factor, loss.noise.eps_diag)
    arrays = [samples, noise.eps_factor, noise.eps_diag, np.float64(loss.value),
              loss.per_sample_loglik, loss.noise.eps_factor, loss.noise.eps_diag,
              *grad_ssn_mc_loss(dist, labels, loss.noise),
              *grad_ssn_mc_loss(dist, labels, fresh)]
    return [np.ascontiguousarray(array).tobytes() for array in arrays]


class TestRowHalves:
    """From ``_SPLIT_MIN`` variates and 4 samples on, each core draws,
    rebuilds and scores one row half; the bytes must be the serial path's.
    ``_SPLIT_MIN`` is made 1 here, so every call of 4 or more rows splits."""

    @pytest.fixture
    def split(self, monkeypatch):
        """Two CPUs and a split from 1 variate on; returns the scored blocks,
        each as (rows, whether the calling thread scored it)."""
        from ssn_lab import likelihood, rng

        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(rng, "_SPLIT_MIN", 1)
        blocks, score = [], likelihood._row_terms

        def recording_score(logit_rows, labels):
            main = threading.current_thread() is threading.main_thread()
            blocks.append((logit_rows.shape[0], main))
            return score(logit_rows, labels)

        monkeypatch.setattr(likelihood, "_row_terms", recording_score)
        return blocks

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("num_classes", [1, 2, 4])
    @pytest.mark.parametrize("num_samples", [3, 4, 5, 20])
    def test_halves_give_the_serial_bytes(self, request, num_samples, num_classes,
                                          masked):
        dist, labels = row_half_case(num_samples, num_classes, masked)
        want = row_half_outputs(dist, labels, num_samples)
        blocks = request.getfixturevalue("split")
        threads = threading.active_count()
        assert row_half_outputs(dist, labels, num_samples) == want
        assert threading.active_count() == threads
        half = num_samples // 2
        scored = ([(num_samples, True)] if num_samples < 4
                  else sorted([(half, True), (num_samples - half, False)]))
        # One forward for the loss, one for the recomputed gradient.
        assert sorted(blocks) == sorted(scored * 2)

    def test_all_masked_warns_once_on_the_calling_thread(self, split, monkeypatch):
        from ssn_lab import likelihood

        dist, _ = row_half_case(20, 2, False)
        labels = LabelMap(labels=np.zeros(6, np.int64), num_classes=2,
                          mask=np.zeros(6, bool))
        warned = []

        def recording_warn(message, *args, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            warned.append((message, main))

        monkeypatch.setattr(likelihood.warnings, "warn", recording_warn)
        loss = ssn_mc_loss(dist, labels, 20, rng_seed=1)
        assert loss.value == 0.0
        assert warned == [("all pixels masked out; log-likelihood is an empty sum",
                           True)]
        assert len(split) == 2

    @pytest.mark.parametrize("row", [0, 9, 10, 19])
    def test_non_finite_sample_in_either_half_raises(self, split, row):
        from ssn_lab.likelihood import loss_and_grads

        dist, labels = row_half_case(20, 2, False)
        noise = draw_noise(20, 2, dist.dim, 4)
        eps_diag = noise.eps_diag.copy()
        eps_diag[row, 3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the signal is all that surfaces
            with pytest.raises(OverflowSignal):
                loss_and_grads(dist, labels, NoiseDraw(noise.eps_factor, eps_diag))
        assert len(split) == 2

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    @pytest.mark.parametrize("failing, raised",
                             [({2, 3}, "2 rows"), ({3}, "3 rows"), ({2}, "2 rows")])
    def test_low_half_failure_is_raised_first(self, split, monkeypatch, cpus,
                                              failing, raised):
        """Five samples split as 2 + 3 rows: the low half's failure is raised
        whenever it fails, as in a serial run, and the pool is gone after."""
        from ssn_lab import likelihood, rng

        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: cpus)
        score = likelihood._row_terms

        def failing_score(logit_rows, labels):
            if logit_rows.shape[0] in failing:
                raise OverflowSignal(f"{logit_rows.shape[0]} rows")
            return score(logit_rows, labels)

        monkeypatch.setattr(likelihood, "_row_terms", failing_score)
        dist, labels = row_half_case(5, 2, False)
        threads = threading.active_count()
        with pytest.raises(OverflowSignal, match=raised):
            ssn_mc_loss(dist, labels, 5, rng_seed=2)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_one_pool_per_call(self, split, monkeypatch, cpus):
        """Each split call has one one-thread pool, shut down before it
        returns; with one CPU none, and no thread starts."""
        from concurrent.futures import ThreadPoolExecutor

        from ssn_lab import rng

        monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: cpus)
        dist, labels = row_half_case(20, 2, True)
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
        threads = threading.active_count()
        loss = ssn_mc_loss(dist, labels, 20, rng_seed=3)
        assert pools == ([1] if len(cpus) > 1 else [])
        assert threading.active_count() == threads
        grad_ssn_mc_loss(dist, labels, loss.noise)  # reuses the forward
        dist.sample(20, seed=3)
        assert pools == ([1, 1] if len(cpus) > 1 else [])
        assert threading.active_count() == threads


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        grads = finite_diff_grad(
            lambda p: float(p["x"] ** 2), {"x": np.array(3.0)}, h=1e-5
        )
        assert grads["x"] == pytest.approx(6.0, abs=1e-6)

    def test_large_step_still_exact_on_quadratic(self):
        # central differences are exact for quadratics at any step; the
        # small default step matters only for higher-order objectives
        grads = finite_diff_grad(
            lambda p: float(p["x"] ** 2), {"x": np.array(3.0)}, h=0.1
        )
        assert grads["x"] == pytest.approx(6.0, abs=1e-10)

    def test_gradient_check_suite_passes(self):
        result = gradient_check_suite(trials=20, seed=7)
        assert result.failures == 0
        assert result.max_rel_error < 1e-4

    @pytest.mark.parametrize(
        "rel_tol, abs_floor, failures",
        [(1e-4, 1e-7, 0), (1e-8, 1e-10, 1), (1e-9, 1e-12, 13)],
    )
    def test_gradient_check_suite_result_is_pinned(
        self, monkeypatch, rel_tol, abs_floor, failures
    ):
        """The result of 20 trials at seed 7, recorded when each parameter
        was compared on its own; the tighter tolerances make trials fail."""
        import ssn_lab.likelihood as likelihood

        monkeypatch.setattr(likelihood, "_REL_TOL", rel_tol)
        monkeypatch.setattr(likelihood, "_ABS_FLOOR", abs_floor)
        assert gradient_check_suite(trials=20, seed=7) == GradCheckResult(
            trials=20, failures=failures, max_rel_error=2.811922452076065e-08,
            worst_trial=9,
        )

    @pytest.mark.parametrize("trials", [0, -1, 2.5])
    def test_gradient_check_suite_trial_count_validated(self, trials):
        """``trials=-1`` once returned a passing result of -1 trials."""
        with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
            gradient_check_suite(trials, 1)

    def test_gradient_check_suite_draws_one_to_three_classes(self, monkeypatch):
        import ssn_lab.likelihood as likelihood

        seen = []
        kernel = likelihood.loss_and_grads

        def recording(params, labels, noise):
            seen.append(labels.num_classes)
            return kernel(params, labels, noise)

        monkeypatch.setattr(likelihood, "loss_and_grads", recording)
        assert gradient_check_suite(trials=20, seed=1).failures == 0
        assert set(seen) == {1, 2, 3}


@pytest.mark.parametrize("factor_scale", [0.005, 0.3])
def test_paper_size_two_class_directional_derivative(factor_scale):
    """<grad, v> against a central difference (step 1e-5) along a seeded unit
    direction, at the paper's size and two classes. At factor scale 0.3 most
    Monte-Carlo weights are exactly 0, so the backward pass drops their rows."""
    dist, labels = paper_size_case(2, 1, factor_scale)
    rng = PortableRng(mix_seed(1, 0xD1))
    names = ("mean", "factor", "diag_raw")
    direction = {name: rng.standard_normal(getattr(dist, name).shape) for name in names}
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    noise_seed, step = 5, 1e-5

    def loss_at(offset):
        moved = {n: getattr(dist, n) + (offset / norm) * direction[n] for n in names}
        return ssn_mc_loss(replace(dist, **moved), labels, 20, noise_seed).value

    loss = ssn_mc_loss(dist, labels, 20, noise_seed)
    loglik = loss.per_sample_loglik
    zero_weights = np.count_nonzero(np.exp(loglik - loglik.max()) == 0.0)
    assert (zero_weights >= 10) if factor_scale == 0.3 else (zero_weights == 0)
    grads = grad_ssn_mc_loss(dist, labels, loss.noise)
    analytic = sum(float(np.sum(g * direction[n])) for n, g in zip(names, grads)) / norm
    numeric = (loss_at(step) - loss_at(-step)) / (2.0 * step)
    tolerance = max(1e-7, 1e-4 * max(abs(analytic), abs(numeric)))
    assert abs(analytic - numeric) <= tolerance
