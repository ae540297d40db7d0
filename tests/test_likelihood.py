import numpy as np
import pytest

from ssn_lab import (
    LabelMap,
    LowRankGaussian,
    NoiseDraw,
    ShapeError,
    ValidationError,
    cross_entropy_loss,
    finite_diff_grad,
    grad_ssn_mc_loss,
    gradient_check_suite,
    label_log_likelihood,
    make_toy_dataset,
    ssn_mc_loss,
)
from ssn_lab.lowrank import reconstruct_samples
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
