"""The 21-pixel two-map toy experiment: dataset, two-phase trainer,
evaluation, and the rank sweep harness.

The dataset is one constant input with two equiprobable binary label maps
on a 21-pixel line: both maps have the first third on and the last third
off; the middle third is off in the first map and on in the second. The
exact generative optimum pushes the middle-third covariance to infinity, so
training guards against parameter blow-up: the mean is pre-trained alone
first, and joint training checkpoints every iteration and stops at the
first non-finite or out-of-bounds quantity, returning the last finite
model.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import DivergenceError, OverflowSignal, ValidationError
from .likelihood import (
    LabelMap,
    cross_entropy_loss,
    loss_and_grads,
    ssn_mc_loss,
)
from .lowrank import LowRankGaussian, draw_noise, softplus_inv
from .metrics import SampleSet, ged_squared
from .rng import PortableRng, mix_seed

TOY_LENGTH = 21
_THIRD = TOY_LENGTH // 3

# Initialisation: zero mean; small factor so the covariance cannot outrun
# the mean early in joint training; raw diagonal near the floor, since the
# toy's structure lives entirely in the factor and residual per-pixel noise
# only blurs thresholded samples.
_FACTOR_INIT_SCALE = 0.01
_DIAG_RAW_INIT = float(softplus_inv(1e-5))
_FINAL_NLL_SAMPLES = 10_000


@dataclass(frozen=True)
class ToyDataset:
    """Two equiprobable 21-pixel binary label maps."""

    length: int
    maps: tuple[LabelMap, LabelMap]
    probabilities: tuple[float, float]


def make_toy_dataset() -> ToyDataset:
    """Build the canonical dataset: (1x7, 0x7, 0x7) and (1x7, 1x7, 0x7)."""
    first = np.zeros(TOY_LENGTH, dtype=np.int64)
    first[:_THIRD] = 1
    second = first.copy()
    second[_THIRD : 2 * _THIRD] = 1
    return ToyDataset(
        length=TOY_LENGTH,
        maps=(
            LabelMap(labels=first, num_classes=1),
            LabelMap(labels=second, num_classes=1),
        ),
        probabilities=(0.5, 0.5),
    )


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol: mean pre-training, then joint gradient descent on
    the Monte-Carlo loss with one label map drawn per iteration."""

    rank: int = 2
    mc_samples: int = 200
    iterations: int = 10_000
    pretrain_iterations: int = 2_000
    learning_rate: float = 0.05
    pretrain_learning_rate: float = 0.05
    seed: int = 1
    overflow_threshold: float = 1e4

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if self.mc_samples < 1:
            raise ValidationError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name in ("learning_rate", "pretrain_learning_rate", "overflow_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one training run; the checkpoint is always finite."""

    loss_trace: np.ndarray
    phase_boundary: int
    stop_reason: str  # "completed" or "overflow_early_stop"
    checkpoint: LowRankGaussian
    final_nll_per_map: float


def _pretrain_mean(
    mean: np.ndarray, data: ToyDataset, config: TrainConfig, trace: list[float]
) -> np.ndarray:
    """Full-batch gradient descent of the mean under the average
    cross-entropy over both maps (single-logit Bernoulli)."""
    targets = [m.labels.astype(np.float64) for m in data.maps]
    for _ in range(config.pretrain_iterations):
        loss = 0.5 * sum(cross_entropy_loss(mean, m) for m in data.maps)
        trace.append(loss)
        probs = expit(mean)
        grad = 0.5 * ((probs - targets[0]) + (probs - targets[1]))
        mean = mean - config.pretrain_learning_rate * grad
        if not np.all(np.isfinite(mean)):
            raise DivergenceError(
                "mean pre-training produced non-finite values; lower the "
                "pre-training learning rate"
            )
    return mean


def _within_bounds(threshold: float, *arrays: np.ndarray) -> bool:
    return all(
        np.all(np.isfinite(a)) and np.max(np.abs(a), initial=0.0) <= threshold
        for a in arrays
    )


def train_toy(config: TrainConfig, covariance_mode: str = "lowrank") -> TrainReport:
    """Train a diagonal or low-rank model on the toy dataset.

    Phase 1 fits the mean alone by full-batch cross-entropy descent. Phase 2
    descends the Monte-Carlo loss jointly, drawing one of the two maps
    uniformly with fresh noise each iteration. In diagonal mode the factor
    is pinned to zero and excluded from updates. Training stops early,
    keeping the previous iteration's parameters, as soon as a loss or
    parameter becomes non-finite or exceeds the overflow threshold.
    """
    if covariance_mode not in ("diagonal", "lowrank"):
        raise ValidationError(
            f"covariance_mode must be 'diagonal' or 'lowrank', got {covariance_mode!r}"
        )
    data = make_toy_dataset()
    num_pixels = data.length
    rng = PortableRng(config.seed)

    mean = np.zeros(num_pixels)
    if covariance_mode == "lowrank":
        factor = _FACTOR_INIT_SCALE * rng.standard_normal((num_pixels, config.rank))
    else:
        factor = np.zeros((num_pixels, config.rank))
    diag_raw = np.full(num_pixels, _DIAG_RAW_INIT)

    trace: list[float] = []
    mean = _pretrain_mean(mean, data, config, trace)
    phase_boundary = len(trace)

    stop_reason = "completed"
    threshold = config.overflow_threshold
    for _ in range(config.iterations):
        map_index = int(rng.integers(0, 2))
        noise_seed = rng.draw_seed()
        eps_factor, eps_diag = draw_noise(
            config.mc_samples, config.rank, num_pixels, noise_seed
        )
        try:
            loss, grads = loss_and_grads(
                mean, factor, diag_raw, data.maps[map_index], eps_factor, eps_diag
            )
        except OverflowSignal:
            stop_reason = "overflow_early_stop"
            break
        if not np.isfinite(loss) or abs(loss) > threshold:
            stop_reason = "overflow_early_stop"
            break
        trace.append(loss)
        new_mean = mean - config.learning_rate * grads.mean
        new_diag_raw = diag_raw - config.learning_rate * grads.diag_raw
        if covariance_mode == "lowrank":
            new_factor = factor - config.learning_rate * grads.factor
        else:
            new_factor = factor
        if not _within_bounds(threshold, new_mean, new_factor, new_diag_raw):
            stop_reason = "overflow_early_stop"
            break
        mean, factor, diag_raw = new_mean, new_factor, new_diag_raw

    checkpoint = LowRankGaussian(mean, factor, diag_raw, num_pixels, 1, config.rank)
    final_nll = float(np.mean(_nll_by_map(checkpoint, _FINAL_NLL_SAMPLES, config.seed)))
    return TrainReport(
        loss_trace=np.asarray(trace),
        phase_boundary=phase_boundary,
        stop_reason=stop_reason,
        checkpoint=checkpoint,
        final_nll_per_map=final_nll,
    )


def _nll_by_map(model: LowRankGaussian, num_samples: int, seed: int) -> tuple:
    """Monte-Carlo negative log-likelihood of each of the two maps."""
    return tuple(
        ssn_mc_loss(model, label_map, num_samples, mix_seed(seed, 0xE7A1, k)).value
        for k, label_map in enumerate(make_toy_dataset().maps)
    )


@dataclass(frozen=True)
class ToyEvalReport:
    """Distribution-level evaluation of a trained toy model."""

    nll_per_map: float
    nll_by_map: tuple[float, float]
    histogram: dict[str, float]  # fractions for "map1", "map2", "other"
    num_distinct_maps: int
    diversity: float
    ged_squared: float
    covariance: np.ndarray  # dense pixel covariance for plotting


def evaluate_toy(
    model: LowRankGaussian,
    n_samples: int = 10_000,
    n_lik_samples: int = 10_000,
    seed: int = 0,
) -> ToyEvalReport:
    """Estimate the NLL per map, the histogram of thresholded samples over
    distinct maps, sample diversity, and the distance to the true two-map
    distribution."""
    data = make_toy_dataset()
    nll_by_map = _nll_by_map(model, n_lik_samples, seed)
    samples, _ = model.sample(n_samples, mix_seed(seed, 0x5A3B))
    thresholded = samples > 0.0
    pred = SampleSet(labels=thresholded, num_classes=1)
    matches_first = np.all(thresholded == data.maps[0].labels[None, :], axis=1)
    matches_second = np.all(thresholded == data.maps[1].labels[None, :], axis=1)
    histogram = {
        "map1": float(matches_first.mean()),
        "map2": float(matches_second.mean()),
        "other": float(1.0 - matches_first.mean() - matches_second.mean()),
    }
    report = ged_squared(SampleSet(samples=data.maps), pred)
    return ToyEvalReport(
        nll_per_map=float(np.mean(nll_by_map)),
        nll_by_map=nll_by_map,
        histogram=histogram,
        num_distinct_maps=len(pred.distinct_rows()[0]),
        diversity=report.diversity,
        ged_squared=report.ged_squared,
        covariance=model.dense_covariance(),
    )


def _run_sweep_cell(args: tuple[int, int, TrainConfig]) -> dict:
    rank, seed, config = args
    try:
        cell = replace(config, rank=rank, seed=mix_seed(rank, seed))
        report = train_toy(cell, covariance_mode="lowrank")
        evaluation = evaluate_toy(report.checkpoint, seed=cell.seed)
        return {
            "rank": rank,
            "seed": seed,
            "nll": evaluation.nll_per_map,
            "diversity": evaluation.diversity,
            "ged2": evaluation.ged_squared,
            "stop_reason": report.stop_reason,
            "status": "ok",
        }
    except Exception as err:  # cell failures are recorded, not fatal
        return {
            "rank": rank,
            "seed": seed,
            "nll": float("nan"),
            "diversity": float("nan"),
            "ged2": float("nan"),
            "stop_reason": "",
            "status": f"error: {err}",
        }


def rank_sweep(
    ranks: list[int],
    seeds: list[int],
    config: TrainConfig | None = None,
    jobs: int = 1,
) -> list[dict]:
    """Train and evaluate a low-rank model per (rank, seed) cell.

    Each cell derives an independent stream from the mixed (rank, seed)
    pair, so results do not depend on execution order and cells may run in
    parallel. Failures are recorded in the cell's status column.
    """
    if not ranks or not seeds:
        raise ValidationError("ranks and seeds must be non-empty")
    base = config if config is not None else TrainConfig()
    cells = [(rank, seed, base) for rank in ranks for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_sweep_cell, cells))
    return [_run_sweep_cell(cell) for cell in cells]


def summarize_sweep(rows: list[dict]) -> list[dict]:
    """Per-rank mean and standard error of NLL, diversity and GED^2."""
    summary = []
    for rank in sorted({row["rank"] for row in rows}):
        cells = [row for row in rows if row["rank"] == rank and row["status"] == "ok"]
        entry: dict = {"rank": rank, "runs": len(cells)}
        for key in ("nll", "diversity", "ged2"):
            values = np.asarray([cell[key] for cell in cells], dtype=np.float64)
            if values.size:
                entry[f"{key}_mean"] = float(values.mean())
                entry[f"{key}_stderr"] = float(
                    values.std(ddof=1) / np.sqrt(values.size) if values.size > 1 else 0.0
                )
            else:
                entry[f"{key}_mean"] = float("nan")
                entry[f"{key}_stderr"] = float("nan")
        summary.append(entry)
    return summary
