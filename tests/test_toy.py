import math
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import logsumexp

import ssn_lab.rng
import ssn_lab.toy
from ssn_lab import (
    DIAG_FLOOR,
    LowRankGaussian,
    OverflowSignal,
    SampleSet,
    ToyEvalReport,
    TrainConfig,
    ValidationError,
    evaluate_toy,
    formats,
    ged_squared,
    labels_from_logits,
    make_toy_dataset,
    mix_seed,
    rank_sweep,
    ssn_mc_loss,
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

        def tripping(params, *rest):
            calls.append(tuple(array.copy() for array in params))
            loss, grads = real(params, *rest)
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

    @pytest.mark.parametrize("name", ["mean", "factor", "diag_raw"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_update_stops_without_warning(self, monkeypatch, name, value):
        """A gradient of nan, +inf or -inf makes the updated parameter nan,
        -inf or +inf; the bounds check stops on it, and numpy stays quiet."""
        config = TrainConfig(seed=6, pretrain_iterations=20, iterations=4, mc_samples=20)
        real = ssn_lab.toy.loss_and_grads

        def poisoned(*args):
            loss, grads = real(*args)
            bad = np.full_like(getattr(grads, name), value)
            return loss, grads._replace(**{name: bad})

        monkeypatch.setattr(ssn_lab.toy, "loss_and_grads", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = train_toy(config, covariance_mode="lowrank")
        assert report.stop_reason == "overflow_early_stop"
        assert report.loss_trace.size == config.pretrain_iterations + 1

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
            dict(seed=2**64),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, least",
        [("rank", 1), ("mc_samples", 1), ("iterations", 0),
         ("pretrain_iterations", 0), ("seed", 0)],
    )
    def test_counts_are_integers_in_range(self, field, least):
        """Each count rejects a value below its least, a non-integral value,
        a float holding an integer, a string and a bool; a numpy integer
        gives the same config as the Python one."""
        for value in (least - 1, least + 0.5, float(least + 1), "2", True):
            with pytest.raises(ValidationError, match=field):
                TrainConfig(**{field: value})
        config = TrainConfig(**{field: np.int64(least + 2)})
        assert config == TrainConfig(**{field: least + 2})
        assert type(getattr(config, field)) is int


class TestEvaluation:
    def test_ideal_model_histogram_is_balanced(self, toy_ideal_model):
        evaluation = evaluate_toy(
            toy_ideal_model(8.0), n_samples=10_000, n_lik_samples=100, seed=3
        )
        assert evaluation.histogram["map1"] == pytest.approx(0.5, abs=0.02)
        assert evaluation.histogram["map2"] == pytest.approx(0.5, abs=0.02)
        assert evaluation.histogram["other"] <= 0.01
        assert evaluation.diversity == pytest.approx(0.25, abs=0.02)

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


# `toy-train --seed 1` at protocol defaults: rank 2, singular values 21.17
# and 0.0056, sqrt(D) about 0.00447.
PROTOCOL_MODEL = Path(__file__).resolve().parent / "data" / "toy_rank2_seed1.ssnt"

# One M = 10 000 estimate of a map's NLL scatters around the exact value
# with a standard deviation of about 0.012: over 60 seeds on the protocol
# model, the mean of MC minus quadrature had standard errors of 0.0015 and
# 0.0016 per map, times sqrt(60). (The diagonal model below measured 0.009.)
# A mean over the fixed seeds is held to four of its standard errors.
MC_SD = 0.0016 * math.sqrt(60)
ORACLE_SEEDS = range(8)


def _normal_nodes(n):
    """Gauss-Hermite nodes and weights for E[f(Z)], Z standard normal."""
    x, w = hermgauss(n)
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def exact_toy_nll(model, label_map, grid=1001, z2_nodes=8, pixel_nodes=20):
    """-log p(labels) of a single-logit model of rank <= 2, by quadrature.

    With factor = U S V^T, z' = V^T z is standard normal, and the logits are
    mean + U S z' + sqrt(D) eps. Given z' the pixels are independent, each
    an E[sigmoid(+-eta)] over its own diagonal noise (Gauss-Hermite). z'_1,
    along the largest singular value, where the integrand is close to a
    step, is integrated on a uniform grid over [-9, 9] against the normal
    density, and z'_2 by Gauss-Hermite, in log space. A zero factor leaves
    the product of the per-pixel terms. Finer grids (up to 4001 x 20 x 60)
    move the value by under 1e-13."""
    u, s, _ = np.linalg.svd(model.factor, full_matrices=False)
    assert s.size <= 2
    loadings = np.zeros((model.dim, 2))
    loadings[:, : s.size] = u * s
    z1 = np.linspace(-9.0, 9.0, grid)
    log_w1 = -0.5 * z1**2 - 0.5 * math.log(2.0 * math.pi) + math.log(z1[1] - z1[0])
    z2, w2 = _normal_nodes(z2_nodes)
    loc = model.mean + z1[:, None, None] * loadings[:, 0] + z2[:, None] * loadings[:, 1]
    x, w = _normal_nodes(pixel_nodes)
    sign = np.where(label_map.labels == 1, 1.0, -1.0)[:, None]
    scale = np.sqrt(np.logaddexp(0.0, model.diag_raw) + DIAG_FLOOR)[:, None]
    log_sigmoid = -np.logaddexp(0.0, -sign * (loc[..., None] + scale * x))
    pixel = logsumexp(log_sigmoid + np.log(w), axis=-1)
    return float(-logsumexp(pixel.sum(axis=-1) + log_w1[:, None] + np.log(w2)))


class TestExactNllOracle:
    """``ssn_mc_loss`` at M = 10 000 against the toy likelihood computed by
    quadrature, per map, on a trained rank-2 model and on a diagonal one."""

    @staticmethod
    def assert_mc_matches(model, label_map, exact):
        estimates = [ssn_mc_loss(model, label_map, 10_000, seed).value
                     for seed in ORACLE_SEEDS]
        bound = 4 * MC_SD / math.sqrt(len(ORACLE_SEEDS))
        assert abs(np.mean(estimates) - exact) <= bound

    @pytest.mark.parametrize(
        "k, exact", [(0, 0.9764706511923), (1, 0.9974774064025)], ids=["map1", "map2"]
    )
    def test_protocol_rank_two_model(self, k, exact):
        model = formats.load_distribution(PROTOCOL_MODEL)
        label_map = make_toy_dataset().maps[k]
        assert exact_toy_nll(model, label_map) == pytest.approx(exact, abs=1e-12)
        self.assert_mc_matches(model, label_map, exact)

    @pytest.mark.parametrize("k", [0, 1], ids=["map1", "map2"])
    def test_diagonal_model(self, k):
        """A zero factor and sqrt(D) about 0.56, so the diagonal noise moves
        each outer pixel's likelihood."""
        mean = np.concatenate([np.full(7, 2.0), np.zeros(7), np.full(7, -2.0)])
        model = LowRankGaussian(mean, np.zeros((21, 1)), np.full(21, -1.0), 21, 1, 1)
        label_map = make_toy_dataset().maps[k]
        self.assert_mc_matches(model, label_map, exact_toy_nll(model, label_map))


def serial_evaluation(model, n_samples, n_lik_samples, seed):
    """``evaluate_toy``'s three passes one after another through the public
    functions: the NLL of map 1, that of map 2, then the thresholded draw."""
    data = make_toy_dataset()
    with np.errstate(over="ignore"):
        nll_by_map = tuple(
            ssn_mc_loss(model, m, n_lik_samples, mix_seed(seed, 0xE7A1, k)).value
            for k, m in enumerate(data.maps)
        )
    samples, _ = model.sample(n_samples, mix_seed(seed, 0x5A3B))
    pred = SampleSet(labels=labels_from_logits(samples, 1), num_classes=1)
    rows, weights = pred.distinct_rows()
    map1, map2 = (
        float(weights[np.all(rows == m.labels, axis=1)].sum()) for m in data.maps
    )
    report = ged_squared(SampleSet(samples=data.maps), pred)
    return ToyEvalReport(
        nll_per_map=float(np.mean(nll_by_map)),
        nll_by_map=nll_by_map,
        histogram={"map1": map1, "map2": map2, "other": 1.0 - map1 - map2},
        num_distinct_maps=len(rows),
        diversity=report.diversity,
        ged_squared=report.ged_squared,
    )


def spread_model():
    """A rank-2 toy model whose samples spread over many distinct maps."""
    rng = np.random.default_rng(4)
    mean = np.concatenate([np.full(7, 2.0), np.zeros(7), np.full(7, -2.0)])
    factor = 0.3 * rng.standard_normal((21, 2))
    factor[7:14, 0] += 2.5
    return LowRankGaussian(mean + 0.5 * rng.standard_normal(21), factor,
                           np.full(21, -1.0), 21, 1, 2)


# None keeps the process's own affinity.
AFFINITIES = {"host": None, "one-cpu": {0}, "two-cpus": {0, 1}}


@pytest.fixture(params=sorted(AFFINITIES))
def affinity(request, monkeypatch):
    cpus = AFFINITIES[request.param]
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    return request.param


class TestEvaluationPasses:
    """The two likelihood passes and the draw run side by side with a second
    CPU, and the report must be the serial one's to the bit."""

    @pytest.mark.parametrize("n_samples, n_lik_samples, seed",
                             [(3000, 3000, 11), (10_000, 10_000, 5), (1, 1, 0),
                              (2, 50, 1), (3, 50, 2), (4, 50, 3), (5, 50, 4),
                              (10_001, 500, 6)])
    def test_report_equals_serial_passes(self, affinity, n_samples, n_lik_samples,
                                         seed):
        model = spread_model()
        want = serial_evaluation(model, n_samples, n_lik_samples, seed)
        threads = threading.active_count()
        got = evaluate_toy(model, n_samples=n_samples, n_lik_samples=n_lik_samples,
                           seed=seed)
        assert threading.active_count() == threads
        assert repr(got) == repr(want) and got == want

    @pytest.mark.parametrize(
        "failing, raised",
        [({"map 1", "map 2", "draw"}, "map 1"), ({"map 2", "draw"}, "map 2"),
         ({"draw"}, "draw")],
    )
    def test_first_failure_in_serial_order_surfaces(self, affinity, monkeypatch,
                                                    failing, raised):
        """The exception raised is the one the serial order meets first. When
        map 1 fails, the draw, still queued behind a slow map 2, never
        starts; the pool is gone whatever fails."""
        names = {mix_seed(3, 0xE7A1, k): f"map {k + 1}" for k in range(2)}
        started, loss = [], ssn_lab.toy.ssn_mc_loss

        def failing_loss(model, label_map, num_samples, seed):
            started.append(names[seed])
            if names[seed] == "map 2":
                time.sleep(0.2)  # keeps the draw queued behind map 2
            if names[seed] in failing:
                raise OverflowSignal(names[seed])
            return loss(model, label_map, num_samples, seed)

        def failing_draw(*args):
            started.append("draw")
            raise OverflowSignal("draw")

        monkeypatch.setattr(ssn_lab.toy, "ssn_mc_loss", failing_loss)
        monkeypatch.setattr(ssn_lab.toy, "_thresholded_draw", failing_draw)
        threads = threading.active_count()
        with pytest.raises(OverflowSignal, match=raised):
            evaluate_toy(spread_model(), n_samples=10, n_lik_samples=10, seed=3)
        assert threading.active_count() == threads
        assert raised != "map 1" or "draw" not in started

    def test_one_pool_per_evaluation(self, affinity, monkeypatch):
        """With a second CPU the four passes share one one-thread pool,
        shut down before the call returns; with one CPU there is none."""
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(ssn_lab.rng, "ThreadPoolExecutor", RecordingPool)
        threads = threading.active_count()
        evaluate_toy(spread_model(), n_samples=100, n_lik_samples=100, seed=1)
        assert threading.active_count() == threads
        assert pools == ([] if len(os.sched_getaffinity(0)) < 2 else [1])

    def test_one_pool_when_the_draw_halves_split_again(self, monkeypatch):
        """From 45 592 samples each row half of the draw is past the split;
        inside the evaluation's passes it draws serially, so one pool serves
        the whole call, and the report is the one-CPU one to the bit."""
        model = spread_model()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = evaluate_toy(model, n_samples=50_000, n_lik_samples=100, seed=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(threading.current_thread().name)
                super().__init__(max_workers)

        monkeypatch.setattr(ssn_lab.rng, "ThreadPoolExecutor", RecordingPool)
        threads = threading.active_count()
        got = evaluate_toy(model, n_samples=50_000, n_lik_samples=100, seed=2)
        assert threading.active_count() == threads
        assert pools == ["MainThread"]
        assert repr(got) == repr(want) and got == want

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5])
    def test_sample_count_validated(self, n_samples):
        with pytest.raises(ValidationError,
                           match="sample count must be an integer >= 1"):
            evaluate_toy(spread_model(), n_samples=n_samples, n_lik_samples=10)

    @pytest.mark.parametrize("delay", [0.0, 0.2], ids=["prompt", "late"])
    def test_overflowing_model_raises_quietly(self, affinity, capfd, monkeypatch,
                                              delay):
        """Every pass overflows: the caller gets OverflowSignal, and no thread
        gives a numpy warning or prints anything, also when map 1 fails late
        enough for the draw to have started."""
        first_map, loss = mix_seed(2, 0xE7A1, 0), ssn_lab.toy.ssn_mc_loss

        def delayed_loss(model, label_map, num_samples, seed):
            if seed == first_map:
                time.sleep(delay)
            return loss(model, label_map, num_samples, seed)

        monkeypatch.setattr(ssn_lab.toy, "ssn_mc_loss", delayed_loss)
        model = LowRankGaussian(
            np.zeros(21), np.full((21, 1), 1e308), np.zeros(21), 21, 1, 1
        )
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowSignal):
                evaluate_toy(model, n_samples=500, n_lik_samples=500, seed=2)
        assert threading.active_count() == threads
        assert [str(w.message) for w in caught] == []
        assert capfd.readouterr().err == ""


class TestRankSweep:
    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True])
    def test_job_count_validated(self, jobs):
        """``jobs=0`` once ran the sweep without complaint."""
        with pytest.raises(ValidationError, match="jobs must be an integer >= 1"):
            rank_sweep([1], [1], config=TrainConfig(**QUICK), jobs=jobs)

    def test_pool_is_no_larger_than_the_grid(self, monkeypatch):
        """The pool forks all its workers on the first submit, so ``jobs``
        past the cell count once forked that many processes. The recorder
        starts none: it runs the cells in order."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(ssn_lab.toy, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(ssn_lab.toy, "_run_sweep_cell", lambda cell: cell[:2])
        rows = rank_sweep([1, 2], [5, 6, 7], config=TrainConfig(**QUICK), jobs=100_000)
        assert rows == [(1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7)]
        rank_sweep([1], [5, 6, 7], config=TrainConfig(**QUICK), jobs=2)
        assert sizes == [6, 2]

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
        assert set(failed[0]) == {
            "rank", "seed", "nll", "diversity", "ged2", "stop_reason", "status"
        }
        assert failed[0]["status"].startswith("error: ")
        assert (failed[0]["seed"], failed[0]["stop_reason"]) == (1, "")
        assert all(np.isnan(failed[0][key]) for key in ("nll", "diversity", "ged2"))
        assert [row["status"] for row in rows if row["rank"] == 1] == ["ok"]

    def test_bad_rank_and_seed_are_named(self):
        """A negative rank fails its cell as a rank, before it is mixed into
        the cell's seed; a seed outside [0, 2**64) fails as a seed, where it
        once aliased its low 64 bits."""
        config = TrainConfig(pretrain_iterations=5, iterations=5, mc_samples=5)
        rows = rank_sweep([-1], [1], config=config) + rank_sweep([1], [-1, 2**64],
                                                                 config=config)
        assert [row["status"] for row in rows] == [
            "error: rank must be an integer >= 1, got -1",
            "error: seed must be an integer >= 0, got -1",
            f"error: seed must be < 2**64, got {2**64}",
        ]

    def test_cell_scores_each_map_once_at_full_size(self, monkeypatch):
        """A cell's NLL is its evaluation's: one 10 000-sample pass per map
        and no other."""
        sizes = []
        loss = ssn_lab.toy.ssn_mc_loss

        def counted(dist, labels, num_samples, seed):
            sizes.append(num_samples)
            return loss(dist, labels, num_samples, seed)

        monkeypatch.setattr(ssn_lab.toy, "ssn_mc_loss", counted)
        row = ssn_lab.toy._run_sweep_cell((1, 1, TrainConfig(**QUICK)))
        assert row["status"] == "ok"
        assert sizes == [10_000, 10_000]

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
