import numpy as np
import pytest

import ssn_lab.toy
from ssn_lab import (
    LowRankGaussian,
    OverflowSignal,
    TrainConfig,
    ValidationError,
    evaluate_toy,
    make_toy_dataset,
    rank_sweep,
    summarize_sweep,
    train_toy,
)

QUICK = dict(pretrain_iterations=300, iterations=300, mc_samples=50)

# quadrature value of the exact per-map NLL for the rank-1 construction
# with middle factor amplitude 8 and outer means +-8 (see conftest builder)
IDEAL_AMP8_NLL = 0.968222


class TestDataset:
    def test_first_third_on_in_both_maps(self):
        data = make_toy_dataset()
        assert np.all(data.maps[0].labels[:7] == 1)
        assert np.all(data.maps[1].labels[:7] == 1)

    def test_middle_third_differs(self):
        data = make_toy_dataset()
        assert np.all(data.maps[0].labels[7:14] == 0)
        assert np.all(data.maps[1].labels[7:14] == 1)

    def test_outer_thirds_identical(self):
        data = make_toy_dataset()
        assert np.array_equal(data.maps[0].labels[:7], data.maps[1].labels[:7])
        assert np.array_equal(data.maps[0].labels[14:], data.maps[1].labels[14:])
        assert np.all(data.maps[0].labels[14:] == 0)

    def test_equiprobable_binary_maps(self):
        data = make_toy_dataset()
        assert data.probabilities == (0.5, 0.5)
        assert data.length == 21
        assert all(m.num_classes == 1 for m in data.maps)


class TestTraining:
    def test_pretraining_shapes_the_mean_by_thirds(self):
        config = TrainConfig(seed=3, iterations=1, mc_samples=50)
        report = train_toy(config, covariance_mode="lowrank")
        mean = report.checkpoint.mean
        assert np.all(mean[:7] >= 2.0)
        assert np.all(np.abs(mean[7:14]) <= 0.3)
        assert np.all(mean[14:] <= -2.0)

    def test_pretraining_loss_nonincreasing_over_windows(self):
        config = TrainConfig(seed=1, iterations=1, mc_samples=50)
        report = train_toy(config, covariance_mode="lowrank")
        pretrain = report.loss_trace[: report.phase_boundary]
        assert pretrain.size == config.pretrain_iterations
        assert np.all(pretrain[100:] <= pretrain[:-100] + 1e-12)

    def test_identical_configs_reproduce_reports_bitwise(self):
        config = TrainConfig(seed=11, **QUICK)
        first = train_toy(config, covariance_mode="lowrank")
        second = train_toy(config, covariance_mode="lowrank")
        assert np.array_equal(first.loss_trace, second.loss_trace)
        assert np.array_equal(first.checkpoint.mean, second.checkpoint.mean)
        assert np.array_equal(first.checkpoint.factor, second.checkpoint.factor)
        assert np.array_equal(first.checkpoint.diag_raw, second.checkpoint.diag_raw)
        assert first.final_nll_per_map == second.final_nll_per_map
        assert first.stop_reason == second.stop_reason

    def test_diagonal_mode_pins_factor_to_zero(self):
        config = TrainConfig(seed=5, **QUICK)
        report = train_toy(config, covariance_mode="diagonal")
        assert np.all(report.checkpoint.factor == 0.0)

    def test_overflow_early_stop_returns_prior_finite_checkpoint(self):
        config = TrainConfig(seed=2, learning_rate=1e5, **QUICK)
        report = train_toy(config, covariance_mode="lowrank")
        assert report.stop_reason == "overflow_early_stop"
        for arr in (
            report.checkpoint.mean,
            report.checkpoint.factor,
            report.checkpoint.diag_raw,
        ):
            assert np.all(np.isfinite(arr))
            assert np.abs(arr).max() <= config.overflow_threshold

    @pytest.mark.parametrize("stop_at", [0, 3])
    @pytest.mark.parametrize("trip", ["signal", "nan_loss", "huge_loss", "parameter"])
    def test_stop_keeps_previous_iteration(self, monkeypatch, trip, stop_at):
        """Each stop quantity, tripped at joint iteration ``stop_at`` (from
        0), keeps the parameters that iteration started from: the ones it
        passed to ``loss_and_grads``. A loss stop logs no loss for that
        iteration; the parameter stop logs it, since the loss is recorded
        before the update is bounds-checked."""
        config = TrainConfig(seed=6, pretrain_iterations=20, iterations=8, mc_samples=20)
        real = ssn_lab.toy.loss_and_grads
        calls = []

        def tripping(mean, factor, diag_raw, *rest):
            calls.append((mean.copy(), factor.copy(), diag_raw.copy()))
            loss, grads = real(mean, factor, diag_raw, *rest)
            if len(calls) <= stop_at:
                return loss, grads
            if trip == "signal":
                raise OverflowSignal("forced")
            if trip == "nan_loss":
                return float("nan"), grads
            if trip == "huge_loss":
                return 2.0 * config.overflow_threshold, grads
            return loss, grads._replace(mean=np.full_like(grads.mean, -1e30))

        monkeypatch.setattr(ssn_lab.toy, "loss_and_grads", tripping)
        report = train_toy(config, covariance_mode="lowrank")
        assert report.stop_reason == "overflow_early_stop"
        assert len(calls) == stop_at + 1
        logged = stop_at + 1 if trip == "parameter" else stop_at
        assert report.loss_trace.size == config.pretrain_iterations + logged
        checkpoint = report.checkpoint
        for kept, started in zip(
            (checkpoint.mean, checkpoint.factor, checkpoint.diag_raw), calls[-1]
        ):
            assert np.array_equal(kept, started)

    def test_phase_boundary_matches_pretraining_length(self):
        config = TrainConfig(seed=4, **QUICK)
        report = train_toy(config, covariance_mode="lowrank")
        assert report.phase_boundary == config.pretrain_iterations
        assert report.loss_trace.size == config.pretrain_iterations + config.iterations
        assert np.all(np.isfinite(report.loss_trace))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            train_toy(TrainConfig(**QUICK), covariance_mode="full")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rank=0),
            dict(mc_samples=0),
            dict(learning_rate=0.0),
            dict(overflow_threshold=-1.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(pretrain_learning_rate=float("nan")),
            dict(overflow_threshold=float("inf")),
            dict(overflow_threshold=float("nan")),
            dict(seed=-1),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)


class TestEvaluation:
    def test_ideal_model_histogram_is_balanced(self, toy_ideal_model):
        evaluation = evaluate_toy(
            toy_ideal_model(8.0), n_samples=10_000, n_lik_samples=100, seed=3
        )
        assert evaluation.histogram["map1"] == pytest.approx(0.5, abs=0.02)
        assert evaluation.histogram["map2"] == pytest.approx(0.5, abs=0.02)
        assert evaluation.histogram["other"] <= 0.01
        assert evaluation.diversity == pytest.approx(0.25, abs=0.02)
        assert evaluation.covariance.shape == (21, 21)

    def test_ideal_model_nll_matches_quadrature_oracle(self, toy_ideal_model):
        evaluation = evaluate_toy(
            toy_ideal_model(8.0), n_samples=100, n_lik_samples=10_000, seed=0
        )
        assert evaluation.nll_per_map == pytest.approx(IDEAL_AMP8_NLL, abs=0.02)

    def test_sharp_ideal_model_sits_just_above_ln2(self, toy_ideal_model):
        """With a near-exact two-map generator the per-map NLL lands in the
        narrow band above the ln 2 mixture floor."""
        evaluation = evaluate_toy(
            toy_ideal_model(50.0), n_samples=100, n_lik_samples=10_000, seed=0
        )
        assert 0.69 <= evaluation.nll_per_map <= 0.75

    def test_deterministic_model_has_zero_diversity(self):
        data = make_toy_dataset()
        mean = np.where(data.maps[0].labels == 1, 6.0, -6.0)
        model = LowRankGaussian(
            mean=mean,
            factor=np.zeros((21, 1)),
            diag_raw=np.full(21, -40.0),
            num_pixels=21,
            num_classes=1,
            rank=1,
        )
        evaluation = evaluate_toy(model, n_samples=2_000, n_lik_samples=100, seed=1)
        assert evaluation.diversity == 0.0
        assert evaluation.histogram["map1"] == 1.0
        assert evaluation.num_distinct_maps == 1


class TestRankSweep:
    def test_grid_runs_and_echoes_ranks(self):
        config = TrainConfig(**QUICK)
        rows = rank_sweep([1, 2], [1], config=config)
        assert len(rows) == 2
        assert [row["rank"] for row in rows] == [1, 2]
        assert all(row["status"] == "ok" for row in rows)
        assert all(np.isfinite(row["nll"]) for row in rows)
        summary = summarize_sweep(rows)
        assert [entry["rank"] for entry in summary] == [1, 2]

    def test_cell_failures_recorded_not_fatal(self):
        config = TrainConfig(**QUICK)
        rows = rank_sweep([0, 1], [1], config=config)
        failed = [row for row in rows if row["rank"] == 0]
        assert len(failed) == 1
        assert failed[0]["status"].startswith("error:")
        assert np.isnan(failed[0]["nll"])
        assert [row["status"] for row in rows if row["rank"] == 1] == ["ok"]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            rank_sweep([], [1])
        with pytest.raises(ValidationError):
            rank_sweep([1], [])

    def test_parallel_jobs_match_serial(self):
        config = TrainConfig(pretrain_iterations=100, iterations=100, mc_samples=20)
        serial = rank_sweep([1, 2], [1, 2], config=config, jobs=1)
        parallel = rank_sweep([1, 2], [1, 2], config=config, jobs=2)
        assert serial == parallel
