import warnings

import numpy as np
import pytest

from ssn_lab import (
    DIAG_FLOOR,
    LowRankGaussian,
    NumericalError,
    ShapeError,
    SizeGuardError,
    ValidationError,
    softplus,
    softplus_inv,
)
from ssn_lab.lowrank import _cholesky_with_jitter
from conftest import random_instance

STD_NORMAL_LOGPDF_AT_0 = -0.9189385332046727  # -0.5 * ln(2 pi)


def diag_raw_for(variance):
    """Raw diagonal whose effective variance is exactly `variance`."""
    return softplus_inv(variance - DIAG_FLOOR)


class TestConstruction:
    def test_floor_applies_for_large_negative_raw(self):
        dist = LowRankGaussian(
            mean=np.zeros(2),
            factor=np.zeros((2, 1)),
            diag_raw=np.full(2, -40.0),
            num_pixels=2,
            num_classes=1,
            rank=1,
        )
        assert np.allclose(dist.effective_diag, DIAG_FLOOR, rtol=1e-10)

    def test_toy_configuration_valid(self):
        dist = LowRankGaussian(
            mean=np.linspace(-1, 1, 21),
            factor=np.full((21, 2), 0.3),
            diag_raw=np.zeros(21),
            num_pixels=21,
            num_classes=1,
            rank=2,
        )
        assert dist.dim == 21

    def test_factor_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            LowRankGaussian(
                mean=np.zeros(4),
                factor=np.zeros((4, 3)),  # declared rank 2
                diag_raw=np.zeros(4),
                num_pixels=4,
                num_classes=1,
                rank=2,
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            LowRankGaussian(
                mean=np.array([0.0, np.nan]),
                factor=np.zeros((2, 1)),
                diag_raw=np.zeros(2),
                num_pixels=2,
                num_classes=1,
                rank=1,
            )

    def test_arrays_are_immutable(self):
        dist = random_instance(0)
        with pytest.raises(ValueError):
            dist.mean[0] = 1.0

    def test_softplus_inverse_roundtrip(self):
        values = np.array([1e-6, 1e-3, 0.5, 1.0, 10.0, 50.0, 500.0])
        assert np.allclose(softplus(softplus_inv(values)), values, rtol=1e-12)


class TestSampling:
    def test_degenerate_covariance_samples_stick_to_mean(self):
        # floored diagonal only: deviations are sqrt(1e-5)-scale noise
        mean = np.array([3.0, -2.0])
        dist = LowRankGaussian(
            mean=mean,
            factor=np.zeros((2, 1)),
            diag_raw=np.full(2, -40.0),
            num_pixels=2,
            num_classes=1,
            rank=1,
        )
        samples, _ = dist.sample(3, seed=123)
        assert np.abs(samples - mean[None, :]).max() <= 6.0 * np.sqrt(DIAG_FLOOR)

    def test_empirical_mean_within_standard_error(self):
        n = 100_000
        dist = LowRankGaussian(
            mean=np.zeros(3),
            factor=np.zeros((3, 1)),
            diag_raw=diag_raw_for(1.0) * np.ones(3),
            num_pixels=3,
            num_classes=1,
            rank=1,
        )
        samples, _ = dist.sample(n, seed=7)
        assert np.abs(samples.mean(axis=0)).max() <= 3.0 / np.sqrt(n)
        assert np.abs(samples.std(axis=0) - 1.0).max() <= 0.02

    def test_rank_one_factor_induces_near_perfect_correlation(self):
        dist = LowRankGaussian(
            mean=np.zeros(2),
            factor=np.ones((2, 1)),
            diag_raw=np.full(2, -40.0),
            num_pixels=2,
            num_classes=1,
            rank=1,
        )
        samples, _ = dist.sample(100_000, seed=11)
        corr = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert corr >= 0.99

    def test_same_seed_reproduces_samples_bitwise(self):
        dist = random_instance(5)
        first, noise_a = dist.sample(17, seed=99)
        second, noise_b = dist.sample(17, seed=99)
        assert np.array_equal(first, second)
        assert np.array_equal(noise_a.eps_factor, noise_b.eps_factor)
        assert np.array_equal(noise_a.eps_diag, noise_b.eps_diag)

    def test_noise_draw_records_seed_and_shapes(self):
        dist = random_instance(6)
        samples, noise = dist.sample(4, seed=42)
        assert samples.shape == (4, dist.dim)
        assert noise.seed == 42
        assert noise.eps_factor.shape == (4, dist.rank)
        assert noise.eps_diag.shape == (4, dist.dim)

    def test_sample_count_validated(self):
        with pytest.raises(ValidationError):
            random_instance(1).sample(0, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampling_moments_match_covariance(self, seed):
        """Empirical covariance entries within 5 standard errors."""
        dist = random_instance(seed, max_dim=4, max_rank=2)
        n = 200_000
        samples, _ = dist.sample(n, seed=seed + 100)
        sigma = dist.dense_covariance()
        centred = samples - dist.mean[None, :]
        empirical = centred.T @ centred / n
        variances = np.diag(sigma)
        # var of a covariance-entry estimate for Gaussians
        entry_se = np.sqrt(
            (np.outer(variances, variances) + sigma**2) / n
        )
        assert np.all(np.abs(empirical - sigma) <= 5.0 * entry_se)
        mean_se = np.sqrt(variances / n)
        assert np.all(np.abs(samples.mean(axis=0) - dist.mean) <= 4.0 * mean_se)

    def test_factor_share_of_variance_matches_trace_ratio(self):
        dist = LowRankGaussian(
            mean=np.zeros(6),
            factor=np.array([[1.0, 0.2]] * 6),
            diag_raw=diag_raw_for(0.5) * np.ones(6),
            num_pixels=6,
            num_classes=1,
            rank=2,
        )
        n = 200_000
        _, noise = dist.sample(n, seed=3)
        factor_part = noise.eps_factor @ dist.factor.T
        explained = factor_part.var(axis=0).sum()
        total_expected = dist.marginal_variance().sum()
        expected_ratio = (dist.factor**2).sum() / total_expected
        assert abs(explained / total_expected - expected_ratio) <= 0.02


class TestMarginalVariance:
    def test_zero_factor_returns_diagonal(self):
        dist = LowRankGaussian(
            mean=np.zeros(3),
            factor=np.zeros((3, 2)),
            diag_raw=np.array([-1.0, 0.0, 2.0]),
            num_pixels=3,
            num_classes=1,
            rank=2,
        )
        assert np.allclose(dist.marginal_variance(), dist.effective_diag, atol=0)

    def test_hand_value(self):
        dist = LowRankGaussian(
            mean=np.zeros(1),
            factor=np.array([[1.0, 2.0]]),
            diag_raw=diag_raw_for(0.5) * np.ones(1),
            num_pixels=1,
            num_classes=1,
            rank=2,
        )
        assert np.allclose(dist.marginal_variance(), [5.5], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_diagonal(self, seed):
        dist = random_instance(seed)
        dense = dist.dense_covariance()
        assert np.allclose(dist.marginal_variance(), np.diag(dense), rtol=1e-12)


class TestLogProb:
    def test_standard_normal_density_at_zero(self):
        dist = LowRankGaussian(
            mean=np.zeros(1),
            factor=np.zeros((1, 1)),
            diag_raw=diag_raw_for(1.0) * np.ones(1),
            num_pixels=1,
            num_classes=1,
            rank=1,
        )
        assert dist.log_prob([0.0]) == pytest.approx(STD_NORMAL_LOGPDF_AT_0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_oracle(self, seed):
        dist = random_instance(seed)
        x = dist.mean + 0.5 * np.arange(dist.dim) / max(dist.dim - 1, 1)
        efficient = dist.log_prob(x)
        dense = dist.dense_log_prob(x)
        assert efficient == pytest.approx(dense, rel=1e-6)

    def test_density_maximal_at_mean(self):
        dist = random_instance(3)
        at_mean = dist.log_prob(dist.mean)
        sigma = dist.dense_covariance()
        sign, log_det = np.linalg.slogdet(2.0 * np.pi * sigma)
        assert sign > 0
        assert at_mean == pytest.approx(-0.5 * log_det, rel=1e-10)
        perturbation = np.ones(dist.dim) * 0.3
        assert at_mean > dist.log_prob(dist.mean + perturbation)

    def test_rejects_bad_input(self):
        dist = random_instance(0)
        with pytest.raises(ShapeError):
            dist.log_prob(np.zeros(dist.dim + 1))
        with pytest.raises(ValidationError):
            dist.log_prob(np.full(dist.dim, np.inf))


class TestCapacitanceCholesky:
    def test_jitter_retry_factorises_near_singular_matrix(self):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(matrix)
        with pytest.warns(RuntimeWarning, match=r"jitter 1e-10 added"):
            chol = _cholesky_with_jitter(matrix)
        assert np.all(np.isfinite(chol))
        assert np.allclose(chol @ chol.T, matrix, rtol=0, atol=1e-9)

    def test_well_conditioned_log_prob_is_silent(self):
        dist = random_instance(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist.log_prob(dist.mean + 0.1)

    def test_indefinite_matrix_reports_eigenvalue_range(self):
        with pytest.raises(
            NumericalError, match=r"eigenvalue range \[-1\.000e\+00, 1\.000e\+00\]"
        ):
            _cholesky_with_jitter(np.diag([1.0, -1.0]))


class TestDenseOracle:
    def test_zero_factor_gives_diagonal_covariance(self):
        dist = LowRankGaussian(
            mean=np.zeros(4),
            factor=np.zeros((4, 2)),
            diag_raw=np.zeros(4),
            num_pixels=4,
            num_classes=1,
            rank=2,
        )
        assert np.allclose(
            dist.dense_covariance(), np.diag(dist.effective_diag), atol=0
        )

    def test_size_guard(self):
        dist = LowRankGaussian(
            mean=np.zeros(4097),
            factor=np.zeros((4097, 1)),
            diag_raw=np.zeros(4097),
            num_pixels=4097,
            num_classes=1,
            rank=1,
        )
        with pytest.raises(SizeGuardError):
            dist.dense_covariance()

    @pytest.mark.parametrize("seed", range(100))
    def test_covariance_cholesky_succeeds(self, seed):
        """Positive definiteness holds for arbitrary finite parameters."""
        dist = random_instance(seed, max_dim=24, max_rank=6)
        np.linalg.cholesky(dist.dense_covariance())  # must not raise
