import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssn_lab import (
    DIAG_FLOOR,
    LowRankGaussian,
    NumericalError,
    Params,
    PortableRng,
    ShapeError,
    SizeGuardError,
    ValidationError,
    softplus,
    softplus_inv,
)
from ssn_lab import formats, lowrank
from ssn_lab.lowrank import (
    DENSE_SIZE_GUARD,
    _capacitance_cholesky,
    draw_noise,
    effective_diag,
    effective_diag_inv,
    noise_rows,
    reconstruct_samples,
)
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

    @pytest.mark.parametrize("later_too", [False, True], ids=["alone", "first"])
    @pytest.mark.parametrize("name", ["mean", "factor", "diag_raw"])
    def test_mis_shaped_tensor_is_named(self, name, later_too):
        """The error names the mis-shaped tensor and its shape; with the
        tensors after it mis-shaped too, the first in the order mean, factor,
        diag_raw is the one named."""
        names = ["mean", "factor", "diag_raw"]
        bad = {"mean": (5,), "factor": (4, 3), "diag_raw": (6,)}
        wrong = names[names.index(name) :] if later_too else [name]
        shapes = {n: bad[n] if n in wrong else ((4, 2) if n == "factor" else (4,))
                  for n in names}
        with pytest.raises(ShapeError) as caught:
            LowRankGaussian(**{n: np.zeros(shape) for n, shape in shapes.items()},
                            num_pixels=4, num_classes=1, rank=2)
        message = str(caught.value)
        assert f"{name} has shape {bad[name]}" in message
        assert all(other not in message for other in names if other != name)

    @pytest.mark.parametrize("name", ["num_pixels", "num_classes", "rank"])
    def test_dimensions_are_integers(self, name, tmp_path):
        """A dimension of 2.0 is rejected like other non-integers: it once
        saved as ``2.0`` and reloaded as ``2``, so save -> load -> save
        changed bytes. A numpy integer is stored as an int, where it once
        made ``save_distribution`` fail on JSON."""
        dims = {"num_pixels": 2, "num_classes": 2, "rank": 2}
        tensors = {"mean": np.zeros(4), "factor": np.ones((4, 2)),
                   "diag_raw": np.zeros(4)}
        for value in (2.0, 2.5, True, "2", 0):
            with pytest.raises(ValidationError, match=f"{name} must be an integer"):
                LowRankGaussian(**tensors, **{**dims, name: value})
        dist = LowRankGaussian(**tensors, **{**dims, name: np.int64(2)})
        assert type(getattr(dist, name)) is int
        first, second = tmp_path / "a.ssnt", tmp_path / "b.ssnt"
        formats.save_distribution(first, dist)
        formats.save_distribution(second, formats.load_distribution(first))
        assert first.read_bytes() == second.read_bytes()

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


class TestEffectiveDiagInverse:
    def test_round_trips_above_the_floor(self):
        target = np.array([2e-5, 1e-3, 0.5, 1.0, 7.0, 40.0, 1e6])
        raw = effective_diag_inv(target)
        assert np.allclose(effective_diag(raw), target, rtol=1e-12, atol=0.0)

    def test_floor_and_below_give_the_floor(self):
        raw = effective_diag_inv(np.array([DIAG_FLOOR, 0.0, -1.0]))
        assert np.all(np.isfinite(raw))
        assert np.array_equal(effective_diag(raw), np.full(3, DIAG_FLOOR))


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

    def test_noise_is_the_stream_in_row_order_and_read_only(self):
        noise = draw_noise(3, 2, 5, seed=4)
        eps_factor, eps_diag = noise.eps_factor, noise.eps_diag
        block = PortableRng(4).standard_normal((3, 7))
        assert np.array_equal(eps_factor, block[:, :2])
        assert np.array_equal(eps_diag, block[:, 2:])
        for array in (eps_factor, eps_diag, eps_diag.base):
            with pytest.raises(ValueError):
                array[...] = 0.0

    @pytest.mark.parametrize("block", [None, 1, 20, 41, 10_000])
    @pytest.mark.parametrize("n, dim", [(1, 1), (7, 10), (33, 21), (5, 130)])
    def test_reconstruction_equals_one_expression(self, monkeypatch, block, n, dim):
        """Built in place and in row blocks, each sample still equals
        ``mean + eps_factor @ factor.T + eps_diag * scale`` bit for bit."""
        if block is not None:
            monkeypatch.setattr(lowrank, "_BLOCK", block)
        rng = PortableRng(n * dim)
        mean = rng.standard_normal(dim)
        factor = rng.standard_normal((dim, 3))
        diag_raw = rng.standard_normal(dim)
        noise = draw_noise(n, 3, dim, seed=dim)
        eps_factor, eps_diag = noise.eps_factor, noise.eps_diag
        got = reconstruct_samples(Params(mean, factor, diag_raw), noise)
        scale = np.sqrt(effective_diag(diag_raw))
        want = mean[None, :] + eps_factor @ factor.T + eps_diag * scale
        assert got.shape == (n, dim) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "n, rank, dim",
        [(10_000, 2, 21), (10_001, 2, 21), (4, 2, 21), (5, 2, 21), (20, 10, 32_768)],
        ids=["toy-even", "toy-odd", "toy-4", "toy-5", "paper-size"],
    )
    def test_row_blocks_equal_the_whole_draw(self, n, rank, dim):
        """Rows ``[a, b)`` with ``b - a >= 2``, drawn from the seed's stream
        advanced past the rows before them and reconstructed alone, are the
        same rows of one whole draw to the bit: the product's row blocks of
        two or more match the whole product, so toy evaluation may draw its
        two row halves apart."""
        rng = PortableRng(n + dim)
        params = Params(rng.standard_normal(dim), rng.standard_normal((dim, rank)),
                        rng.standard_normal(dim))
        whole_noise = draw_noise(n, rank, dim, seed=7)
        whole = reconstruct_samples(params, whole_noise)
        half, third = n // 2, n // 3
        blocks = {(0, half), (half, n), (0, 2), (n - 2, n), (1, 3), (2, 5),
                  (third, min(n, third + 33)), (1, n - 1)}
        for a, b in sorted(block for block in blocks if block[1] <= n):
            assert b - a >= 2
            noise = noise_rows(range(a, b), rank, dim, seed=7)
            assert noise.eps_factor.tobytes() == whole_noise.eps_factor[a:b].tobytes()
            assert noise.eps_diag.tobytes() == whole_noise.eps_diag[a:b].tobytes()
            got = reconstruct_samples(params, noise)
            assert got.tobytes() == whole[a:b].tobytes(), (a, b)

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            PortableRng(-1)
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            random_instance(0).sample(2, -1)

    def test_noise_draw_shapes(self):
        dist = random_instance(6)
        samples, noise = dist.sample(4, seed=42)
        assert samples.shape == (4, dist.dim)
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
        total_expected = (dist.factor**2).sum() + dist.effective_diag.sum()
        expected_ratio = (dist.factor**2).sum() / total_expected
        assert abs(explained / total_expected - expected_ratio) <= 0.02


class TestMarginalVariance:
    """The per-element variance: the diagonal of the dense covariance, or the
    factor's row norms plus the effective diagonal."""

    def test_zero_factor_returns_diagonal(self):
        dist = LowRankGaussian(
            mean=np.zeros(3),
            factor=np.zeros((3, 2)),
            diag_raw=np.array([-1.0, 0.0, 2.0]),
            num_pixels=3,
            num_classes=1,
            rank=2,
        )
        assert np.array_equal(np.diag(dist.dense_covariance()), dist.effective_diag)

    def test_hand_value(self):
        dist = LowRankGaussian(
            mean=np.zeros(1),
            factor=np.array([[1.0, 2.0]]),
            diag_raw=diag_raw_for(0.5) * np.ones(1),
            num_pixels=1,
            num_classes=1,
            rank=2,
        )
        assert np.allclose(np.diag(dist.dense_covariance()), [5.5], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_diagonal(self, seed):
        dist = random_instance(seed)
        row_norms = (dist.factor**2).sum(axis=1)
        assert np.allclose(
            row_norms + dist.effective_diag, np.diag(dist.dense_covariance()),
            rtol=1e-12,
        )


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 48),
        st.integers(2, 6),
        st.floats(-1.0, 3.0),
        st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2]),
        st.floats(-700.0, -50.0),
    )
    def test_matches_dense_oracle_on_ill_conditioned_factors(
        self, seed, dim, rank, log_scale, spread, diag_raw
    ):
        """Near-collinear factor columns over a diagonal at DIAG_FLOOR.

        Tolerance: both routes are Cholesky-based, and a backward-stable
        Cholesky of an n x n matrix of condition number kappa changes a
        quadratic form or a log-determinant by about n * u * kappa times its
        size (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
        With D = DIAG_FLOOR * I, the covariance and the capacitance matrix
        both have kappa <= 1 + |F|_2^2 / DIAG_FLOOR; the quadratic forms are
        at most q = (x - mean)^T D^-1 (x - mean), and the log-determinants
        add up dim + rank such terms of order one.
        """
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        column = scale * rng.standard_normal((dim, 1))
        factor = column + spread * scale * rng.standard_normal((dim, rank))
        dist = LowRankGaussian(
            mean=rng.standard_normal(dim),
            factor=factor,
            diag_raw=np.full(dim, diag_raw),
            num_pixels=dim,
            num_classes=1,
            rank=rank,
        )
        assert dist.dim <= DENSE_SIZE_GUARD
        assert np.all(dist.effective_diag == DIAG_FLOOR)
        x = dist.mean + rng.standard_normal(dim)
        efficient = dist.log_prob(x)
        dense = dist.dense_log_prob(x)
        u = np.finfo(np.float64).eps / 2
        kappa = 1.0 + np.linalg.norm(factor, 2) ** 2 / DIAG_FLOOR
        q = float((x - dist.mean) @ (x - dist.mean)) / DIAG_FLOOR
        tolerance = u * (dim + rank) * kappa * (2.0 * q + dim + rank)
        assert abs(efficient - dense) <= tolerance

    def test_rejects_bad_input(self):
        dist = random_instance(0)
        with pytest.raises(ShapeError):
            dist.log_prob(np.zeros(dist.dim + 1))
        with pytest.raises(ValidationError):
            dist.log_prob(np.full(dist.dim, np.inf))
        with pytest.raises(ShapeError):
            dist.dense_log_prob(np.zeros(dist.dim + 1))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValidationError, match="non-finite"):
                dist.dense_log_prob(np.full(dist.dim, bad))

    def test_collinear_factor_at_huge_scale_raises_numerical_error(self):
        """Two identical columns at scale 1e9 over D = DIAG_FLOOR give a
        capacitance whose entries near 4e23 swamp its identity, so it is
        exactly singular in floating point."""
        column = np.full((4, 1), 1e9)
        dist = LowRankGaussian(
            mean=np.zeros(4),
            factor=np.hstack([column, column]),
            diag_raw=np.full(4, -100.0),
            num_pixels=4,
            num_classes=1,
            rank=2,
        )
        assert np.all(dist.effective_diag == DIAG_FLOOR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="eigenvalue range"):
                dist.log_prob(dist.mean + 1.0)


class TestCapacitanceCholesky:
    def test_well_conditioned_log_prob_is_silent(self):
        dist = random_instance(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist.log_prob(dist.mean + 0.1)

    def test_indefinite_matrix_reports_eigenvalue_range(self):
        with pytest.raises(
            NumericalError, match=r"eigenvalue range \[-1\.000e\+00, 1\.000e\+00\]"
        ):
            _capacitance_cholesky(np.diag([1.0, -1.0]))


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
