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
from functools import partial

import numpy as np
from scipy.special import expit

from .errors import DivergenceError, OverflowSignal, ValidationError, check_count
from .likelihood import (
    LabelMap,
    cross_entropy_loss,
    labels_from_logits,
    loss_and_grads,
    ssn_mc_loss,
)
from .lowrank import (
    LowRankGaussian,
    Params,
    draw_noise,
    empty_noise,
    sample_rows,
    softplus_inv,
)
from .metrics import SampleSet, ged_squared
from .rng import PortableRng, _side_by_side, check_seed, mix_seed

TOY_LENGTH = 21
_THIRD = TOY_LENGTH // 3

# Initialisation: zero mean; small factor so the covariance cannot outrun
# the mean early in joint training; raw diagonal near the floor, since the
# toy's structure lives entirely in the factor and residual per-pixel noise
# only blurs thresholded samples.
_FACTOR_INIT_SCALE = 0.01
_DIAG_RAW_INIT = float(softplus_inv(1e-5))


@dataclass(frozen=True)
class ToyDataset:
    """Two equiprobable 21-pixel binary label maps."""

    maps: tuple[LabelMap, LabelMap]


def make_toy_dataset() -> ToyDataset:
    """Build the canonical dataset: (1x7, 0x7, 0x7) and (1x7, 1x7, 0x7)."""
    first = np.zeros(TOY_LENGTH, dtype=np.int64)
    first[:_THIRD] = 1
    second = first.copy()
    second[_THIRD : 2 * _THIRD] = 1
    return ToyDataset(
        maps=(
            LabelMap(labels=first, num_classes=1),
            LabelMap(labels=second, num_classes=1),
        ),
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
        for name, least in (("rank", 1), ("mc_samples", 1), ("iterations", 0),
                            ("pretrain_iterations", 0)):
            value = check_count(getattr(self, name), least, name)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", check_seed(self.seed))
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
        if not _within_bounds(config.overflow_threshold, mean):
            raise DivergenceError(
                "mean pre-training left the overflow bound "
                f"{config.overflow_threshold:g}; lower the pre-training learning rate"
            )
    return mean


def _within_bounds(threshold: float, *arrays: np.ndarray) -> bool:
    """All entries within ``threshold`` in magnitude; nan and inf fail it."""
    return all(np.max(np.abs(a), initial=0.0) <= threshold for a in arrays)


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
    rng = PortableRng(config.seed)

    if covariance_mode == "lowrank":
        factor = _FACTOR_INIT_SCALE * rng.standard_normal((TOY_LENGTH, config.rank))
    else:
        factor = np.zeros((TOY_LENGTH, config.rank))

    trace: list[float] = []
    mean = _pretrain_mean(np.zeros(TOY_LENGTH), data, config, trace)
    params = Params(mean, factor, np.full(TOY_LENGTH, _DIAG_RAW_INIT))
    phase_boundary = len(trace)

    stop_reason = "completed"
    threshold = config.overflow_threshold
    for _ in range(config.iterations):
        map_index = int(rng.integers(0, 2))
        noise_seed = rng.draw_seed()
        noise = draw_noise(config.mc_samples, config.rank, TOY_LENGTH, noise_seed)
        try:
            loss, grads = loss_and_grads(params, data.maps[map_index], noise)
        except OverflowSignal:
            stop_reason = "overflow_early_stop"
            break
        if not np.isfinite(loss) or abs(loss) > threshold:
            stop_reason = "overflow_early_stop"
            break
        trace.append(loss)
        new = Params(*(p - config.learning_rate * g for p, g in zip(params, grads)))
        if covariance_mode == "diagonal":
            new = new._replace(factor=params.factor)
        if not _within_bounds(threshold, *new):
            stop_reason = "overflow_early_stop"
            break
        params = new

    return TrainReport(
        loss_trace=np.asarray(trace),
        phase_boundary=phase_boundary,
        stop_reason=stop_reason,
        checkpoint=LowRankGaussian(*params, TOY_LENGTH, 1, config.rank),
    )


def _nll(model: LowRankGaussian, label_map: LabelMap, num_samples: int, seed: int):
    with np.errstate(over="ignore"):  # overflowed samples raise OverflowSignal
        return ssn_mc_loss(model, label_map, num_samples, seed).value


def _thresholded_draw(model: LowRankGaussian, rows: range, seed: int):
    """The thresholded labels of ``model.sample(n, seed)``'s ``rows``. Any
    block of two or more rows of the factor product equals the same rows of
    the whole one to the bit, so these are the whole draw's labels."""
    noise, fill = empty_noise(rows, model.rank, model.dim, seed)
    with np.errstate(over="ignore"):  # an overflowed sample still thresholds
        return labels_from_logits(sample_rows(model, noise, fill)[0], 1)


@dataclass(frozen=True)
class ToyEvalReport:
    """Distribution-level evaluation of a trained toy model."""

    nll_per_map: float
    nll_by_map: tuple[float, float]
    histogram: dict[str, float]  # fractions for "map1", "map2", "other"
    num_distinct_maps: int
    diversity: float
    ged_squared: float


def evaluate_toy(
    model: LowRankGaussian,
    n_samples: int = 10_000,
    n_lik_samples: int = 10_000,
    seed: int = 0,
) -> ToyEvalReport:
    """Estimate the NLL per map, the histogram of thresholded samples over
    distinct maps, sample diversity, and the distance to the true two-map
    distribution. The two likelihood passes and the draw's two row halves
    are independent, so with a second CPU each core scores one map and then
    draws one half; a draw of fewer than 4 samples stays whole, since a
    one-row block of the factor product need not match the whole one."""
    n_samples = check_count(n_samples, 1, "sample count")
    data = make_toy_dataset()
    half = n_samples // 2 if n_samples >= 4 else 0
    draw_seed = mix_seed(seed, 0x5A3B)
    *nll_by_map, low, high = _side_by_side(
        *(partial(_nll, model, label_map, n_lik_samples, mix_seed(seed, 0xE7A1, k))
          for k, label_map in enumerate(data.maps)),
        partial(_thresholded_draw, model, range(half), draw_seed),
        partial(_thresholded_draw, model, range(half, n_samples), draw_seed),
    )
    pred = SampleSet(labels=np.concatenate([low, high]), num_classes=1)
    rows, weights = pred.distinct_rows()
    map1, map2 = (
        float(weights[np.all(rows == m.labels, axis=1)].sum()) for m in data.maps
    )
    report = ged_squared(SampleSet(samples=data.maps), pred)
    return ToyEvalReport(
        nll_per_map=float(np.mean(nll_by_map)),
        nll_by_map=tuple(nll_by_map),
        histogram={"map1": map1, "map2": map2, "other": 1.0 - map1 - map2},
        num_distinct_maps=len(rows),
        diversity=report.diversity,
        ged_squared=report.ged_squared,
    )


def _run_sweep_cell(args: tuple[int, int, TrainConfig]) -> dict:
    rank, seed, config = args
    nan = float("nan")
    try:
        cell = replace(config, rank=rank)  # a bad rank is named as one
        cell = replace(cell, seed=mix_seed(rank, seed))
        report = train_toy(cell, covariance_mode="lowrank")
        evaluation = evaluate_toy(report.checkpoint, seed=cell.seed)
        values = (evaluation.nll_per_map, evaluation.diversity,
                  evaluation.ged_squared, report.stop_reason, "ok")
    except Exception as err:  # cell failures are recorded, not fatal
        values = (nan, nan, nan, "", f"error: {err}")
    keys = ("rank", "seed", "nll", "diversity", "ged2", "stop_reason", "status")
    return dict(zip(keys, (rank, seed, *values)))


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
    jobs = check_count(jobs, 1, "jobs")
    base = config if config is not None else TrainConfig()
    cells = [(rank, seed, base) for rank in ranks for seed in seeds]
    if jobs > 1:
        # The pool forks all its workers on the first submit: no more than cells.
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
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
