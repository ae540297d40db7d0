import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from ssn_lab import (
    LabelMap,
    LowRankGaussian,
    NoiseDraw,
    OverflowSignal,
    PortableRng,
    ShapeError,
    ValidationError,
    cross_entropy_loss,
    finite_diff_grad,
    grad_ssn_mc_loss,
    gradient_check_suite,
    label_log_likelihood,
    make_toy_dataset,
    mix_seed,
    ssn_mc_loss,
)
from ssn_lab.lowrank import draw_noise, reconstruct_samples
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

    def test_fully_masked_is_zero_with_warning(self):
        labels = toy_binary([1, 0], mask=[False, False])
        with pytest.warns(UserWarning):
            assert cross_entropy_loss(np.array([3.0, -1.0]), labels) == 0.0


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
        sample = reconstruct_samples(
            dist.mean, dist.factor, dist.diag_raw, noise.eps_factor, noise.eps_diag
        )[0]
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
        noise = NoiseDraw(
            eps_factor=np.zeros((1, 1)), eps_diag=np.zeros((1, 21)), seed=0
        )
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
        bad = NoiseDraw(
            np.zeros((1, dist.rank + 1)), np.zeros((1, dist.dim)), seed=0
        )
        with pytest.raises(ShapeError):
            grad_ssn_mc_loss(dist, labels, bad)

    def test_empty_noise_rejected(self):
        dist = random_instance(1, max_dim=4, max_rank=2)
        labels = random_labels(1, dist.num_pixels, 1)
        empty = NoiseDraw(np.zeros((0, dist.rank)), np.zeros((0, dist.dim)), seed=0)
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
        eps_factor, eps_diag = draw_noise(3, 2, 12, seed)
        grads = grad_ssn_mc_loss(
            dist, rng_labels, NoiseDraw(eps_factor, eps_diag, seed=seed)
        )
        numeric = finite_diff_grad(
            lambda p: _mc_forward(
                **p, labels=rng_labels, eps_factor=eps_factor, eps_diag=eps_diag
            )[0],
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
        eps_factor, eps_diag = draw_noise(3, 2, dim, 5)
        return dict(
            mean=mean,
            factor=np.full((dim, 2), 0.1),
            diag_raw=np.zeros(dim),
            labels=labels,
            eps_factor=eps_factor,
            eps_diag=eps_diag,
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


def paper_size_case(num_classes, seed):
    """The paper's size, 128x128 pixels at rank 10, with ~10% of the
    pixels masked out. Logit noise is small enough that several of the 20
    samples carry weight in the gradient (effective sample size 5-11)."""
    rng = PortableRng(mix_seed(seed, num_classes))
    pixels, rank = 128 * 128, 10
    dim = pixels * num_classes
    dist = LowRankGaussian(
        rng.standard_normal(dim),
        0.005 * rng.standard_normal((dim, rank)),
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


@pytest.mark.parametrize("num_classes,seed", sorted(GOLDEN_PAPER_DIGESTS))
def test_golden_paper_size_bits(num_classes, seed):
    dist, labels = paper_size_case(num_classes, seed)
    loss = ssn_mc_loss(dist, labels, 20, rng_seed=seed)
    grads = grad_ssn_mc_loss(dist, labels, loss.noise)
    arrays = {
        "value": np.float64(loss.value),
        "per_sample_loglik": loss.per_sample_loglik,
        **grads._asdict(),
    }
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in arrays.items()
    }
    assert digests == GOLDEN_PAPER_DIGESTS[num_classes, seed]


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
        fresh = NoiseDraw(noise.eps_factor, noise.eps_diag, noise.seed)
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
        fresh = NoiseDraw(noise.eps_factor, noise.eps_diag, noise.seed)
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
