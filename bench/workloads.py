"""The benchmark's four workloads: seeded input generators, one op each, and
the output check behind ``failed_ratio``.

Every input is generated here from the run's seed with numpy's own
generator; the package only ever receives the generated inputs. An op
"fails" when it raises, exits non-zero, yields a non-finite value or fails
its check.

Why four: each of the package's modules (rng, lowrank, likelihood, metrics,
assembly, toy, formats, cli) does most of its work in one workload and
little or none in another, so a change to one layer has a workload that
exercises it and one that predicts no change. A merged toy workload would
hide toy evaluation (about 4% of a rank-sweep cell), and without
``paper-eval`` nothing would measure ``assembly``.

``BENCHMARK.json`` lists three of them. ``toy-train`` is pure-Python bound,
and on a shared 2-core host its ``ops_per_s`` varied by more than a
quarter between ten runs, wider than the widest regression bound, so it is
run by hand (``repeat.py --workloads toy-train``) rather than gated. The
toy, formats and cli layers stay gated through ``toy-eval``.

``reference/toy_loss_seed1.csv`` is the ``loss.csv`` written by
``ssn-lab toy-train --seed 1 --pretrain-iters 200 --iters 500`` on the
parent code. The toy-train warm-up repeats that run, and the traced run
reports its maximum relative deviation as ``toy.trajectory_max_rel_dev``
(0 means bit-identical). It is information, not a gate.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ssn_lab as ssn
from ssn_lab import cli, formats
from tracing import NULL_TRACER

LN2 = math.log(2.0)
REFERENCE_TRACE = Path(__file__).resolve().parent / "reference" / "toy_loss_seed1.csv"
GOLDEN_ARGS = ["--seed", "1", "--pretrain-iters", "200", "--iters", "500"]
TOY_TRAIN_ROWS = 2_000 + 10_000  # protocol defaults: pretrain + joint iterations
STOP_REASONS = ("completed", "overflow_early_stop")

PAPER_SIDE = 128
PAPER_RANK = 10
PAPER_RATERS = 4
TRAIN_CLASSES = 2
TRAIN_SAMPLES = 20
TRAIN_MASKED = 0.10
TRAIN_LR = 0.01
EVAL_CLASSES = 4
EVAL_PATCH = 64
EVAL_SAMPLES = 100
EVAL_IMAGES = 2

# The gradient-check tolerance of the package's gradcheck command.
GRAD_REL_TOL = 1e-4
GRAD_ABS_FLOOR = 1e-7
GRAD_STEP = 1e-5

# Kept out of the benchmark on purpose.
EXCLUDED = {
    "tier1-wall": "measures the test suite, not the library",
    "rank-sweep --jobs": "the benchmark is one closed-loop process; no process pool",
    "log_prob": "no command calls it",
}


@dataclass(frozen=True)
class Outcome:
    """What one op produced: its op count, a failure reason, and the final
    NLL per map of a training run."""

    ops: int
    error: str | None = None
    nll_per_map: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (seed, work_dir) -> inputs; includes the warm-up op
    op: Callable  # (inputs, index, tracer) -> result
    check: Callable  # (inputs, result) -> Outcome
    ops_per_call: int = 1  # ops charged when a call raises
    run_check: Callable | None = None  # (inputs) -> error or None, untimed
    replay: Callable | None = None  # (inputs, tracer) -> None, traced run only
    alloc_op: Callable | None = None  # (inputs, tracer) -> None; default: one op


def _op_rng(inputs, index: int) -> np.random.Generator:
    return np.random.default_rng([inputs["seed"], 0x0B, index + 2])  # index >= -2


def _quiet_cli(argv: list[str]) -> int:
    """``cli.main`` with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_losses(path: Path) -> list[float]:
    with open(path, newline="") as handle:
        return [float(row["loss"]) for row in csv.DictReader(handle)]


def _max_rel_dev(trace: list[float], reference: list[float]) -> float:
    """Largest relative deviation from the reference; 1.0 if lengths differ."""
    if len(trace) != len(reference):
        return 1.0
    got = np.asarray(trace)
    ref = np.asarray(reference)
    return float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))


# ---------------------------------------------------------------- toy-train


def _toy_train_setup(seed: int, work: Path):
    inputs = {"seed": seed, "work": work}
    golden = work / "golden"
    code = _quiet_cli(["toy-train", *GOLDEN_ARGS, "--out", str(golden)])
    if code != 0:
        raise RuntimeError(f"warm-up toy-train exited {code}")
    inputs["golden_rel_dev"] = _max_rel_dev(
        _read_losses(golden / "loss.csv"), _read_losses(REFERENCE_TRACE)
    )
    return inputs


def _toy_train_op(inputs, index: int, tracer):
    train_seed = int(_op_rng(inputs, index).integers(1, 2**31))
    out = inputs["work"] / "train"
    with tracer.span("cli.main"):
        code = _quiet_cli(["toy-train", "--seed", str(train_seed), "--out", str(out)])
    return {"code": code, "out": out}


def _toy_train_check(inputs, result) -> Outcome:
    if result["code"] != 0:
        return Outcome(TOY_TRAIN_ROWS, f"toy-train exited {result['code']}")
    out = result["out"]
    losses = _read_losses(out / "loss.csv")
    if not losses:
        return Outcome(TOY_TRAIN_ROWS, "empty loss.csv")
    report = json.loads((out / "report.json").read_text())
    nll = report["final_nll_per_map"]
    if report["stop_reason"] not in STOP_REASONS:
        return Outcome(len(losses), f"stop_reason {report['stop_reason']!r}", nll)
    if not (math.isfinite(nll) and LN2 - 0.02 <= nll <= 1.3):
        return Outcome(len(losses), f"nll_per_map {nll} outside [ln2-0.02, 1.3]", nll)
    if not all(math.isfinite(loss) for loss in losses):
        return Outcome(len(losses), "non-finite loss in loss.csv", nll)
    return Outcome(len(losses), None, nll)


def _toy_train_replay(inputs, tracer) -> None:
    """The joint step's public calls at the trained model, M=200 samples.

    ``train_toy`` reaches the step through a non-public function, so the
    public loss, gradient and construction are replayed on the op's model,
    labels and sample count to time those stages.
    """
    with tracer.pause():
        model = formats.load_distribution(inputs["work"] / "train" / "model.ssnt")
    maps = ssn.make_toy_dataset().maps
    rng = np.random.default_rng([inputs["seed"], 0x4E9])
    for _ in range(50):
        dist = ssn.LowRankGaussian(
            model.mean, model.factor, model.diag_raw, model.num_pixels, 1, model.rank
        )
        label_map = maps[int(rng.integers(0, 2))]
        loss = ssn.ssn_mc_loss(dist, label_map, 200, int(rng.integers(0, 2**62)))
        ssn.grad_ssn_mc_loss(dist, label_map, loss.noise)


def _toy_train_alloc(inputs, tracer) -> None:
    _quiet_cli(["toy-train", *GOLDEN_ARGS, "--out", str(inputs["work"] / "alloc")])


# ----------------------------------------------------------------- toy-eval


def _toy_eval_model(seed: int):
    """A near-ideal rank-2 toy model: one latent flips the middle third."""
    rng = np.random.default_rng([seed, 0x70E])
    third = 7
    mean = np.concatenate([np.full(third, 4.0), np.zeros(third), np.full(third, -4.0)])
    mean += 0.02 * rng.standard_normal(3 * third)
    factor = 0.02 * rng.standard_normal((3 * third, 2))
    factor[third : 2 * third, 0] += 3.0
    diag_raw = np.full(3 * third, math.log(math.expm1(1e-4)))
    return ssn.LowRankGaussian(mean, factor, diag_raw, 3 * third, 1, 2)


def _toy_eval_setup(seed: int, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    model_path = work / "model.ssnt"
    formats.save_distribution(model_path, _toy_eval_model(seed))
    inputs = {"seed": seed, "work": work, "model": model_path}
    warm = _toy_eval_check(inputs, _toy_eval_op(inputs, -1, NULL_TRACER))
    if warm.error:
        raise RuntimeError(f"warm-up toy-eval failed: {warm.error}")
    return inputs


def _toy_eval_op(inputs, index: int, tracer):
    eval_seed = int(_op_rng(inputs, index).integers(0, 2**31))
    out = inputs["work"] / "eval"
    with tracer.span("cli.main"):
        code = _quiet_cli(
            ["toy-eval", "--model", str(inputs["model"]), "--samples", "10000",
             "--lik-samples", "10000", "--seed", str(eval_seed), "--out", str(out)]
        )
    return {"code": code, "out": out}


def _toy_eval_check(inputs, result) -> Outcome:
    if result["code"] != 0:
        return Outcome(1, f"toy-eval exited {result['code']}")
    report = json.loads((result["out"] / "eval.json").read_text())
    diversity = report["diversity"]
    ged2 = report["ged_squared"]
    shares = (report["histogram"]["map1"], report["histogram"]["map2"])
    if not all(map(math.isfinite, (report["nll_per_map"], diversity, ged2))):
        return Outcome(1, "non-finite value in eval.json")
    if not 0.22 <= diversity <= 0.28:
        return Outcome(1, f"diversity {diversity} outside [0.22, 0.28]")
    if ged2 > 0.05:
        return Outcome(1, f"ged_squared {ged2} above 0.05")
    if not all(0.45 <= share <= 0.55 for share in shares):
        return Outcome(1, f"map shares {shares} outside [0.45, 0.55]")
    return Outcome(1)


# ----------------------------------------------------- paper-size generators


def _smooth_fields(rng, side: int, cells: int, channels: int) -> np.ndarray:
    """[side, side, channels] fields: coarse normal noise, bilinearly upsampled."""
    coarse = rng.standard_normal((cells, cells, channels))
    grid = np.linspace(0.0, cells - 1.0, side)
    weights = np.stack(
        [np.interp(grid, np.arange(cells), np.eye(cells)[j]) for j in range(cells)],
        axis=1,
    )
    return np.einsum("ia,abc,jb->ijc", weights, coarse, weights)


def _raw_diag(rng, shape, variance: float) -> np.ndarray:
    return math.log(math.expm1(variance)) + 0.1 * rng.standard_normal(shape)


# -------------------------------------------------------------- paper-train


def _paper_train_setup(seed: int, work: Path):
    rng = np.random.default_rng([seed, 0x7A1])
    side, classes, rank = PAPER_SIDE, TRAIN_CLASSES, PAPER_RANK
    pixels = side * side
    score = 2.0 * _smooth_fields(rng, side, 8, 1)[..., 0]
    mask = rng.random(pixels) >= TRAIN_MASKED
    labels = [
        ssn.LabelMap(
            labels=(score + 0.6 * _smooth_fields(rng, side, 16, 1)[..., 0] > 0.0)
            .astype(np.int64)
            .reshape(-1),
            num_classes=classes,
            mask=mask,
        )
        for _ in range(PAPER_RATERS)
    ]
    params = {
        "mean": np.stack([-0.5 * score, 0.5 * score], axis=-1).reshape(-1),
        "factor": 0.3
        * _smooth_fields(rng, side, 8, classes * rank).reshape(pixels * classes, rank),
        "diag_raw": _raw_diag(rng, pixels * classes, 0.05),
    }
    inputs = {"seed": seed, "labels": labels, "dist": _paper_dist(params)}
    warm = _paper_train_check(inputs, _paper_train_op(inputs, -1, NULL_TRACER))
    if warm.error:
        raise RuntimeError(f"warm-up paper-train step failed: {warm.error}")
    return inputs


def _paper_dist(params) -> "ssn.LowRankGaussian":
    return ssn.LowRankGaussian(
        params["mean"], params["factor"], params["diag_raw"],
        PAPER_SIDE * PAPER_SIDE, TRAIN_CLASSES, PAPER_RANK,
    )


def _paper_train_op(inputs, index: int, tracer):
    """One SGD step on one rater map: loss, gradient, update, rebuild."""
    rng = _op_rng(inputs, index)
    label_map = inputs["labels"][int(rng.integers(0, PAPER_RATERS))]
    dist = inputs["dist"]
    loss = ssn.ssn_mc_loss(dist, label_map, TRAIN_SAMPLES, int(rng.integers(0, 2**62)))
    grads = ssn.grad_ssn_mc_loss(dist, label_map, loss.noise)
    with tracer.span("bench.update"):
        params = {
            "mean": dist.mean - TRAIN_LR * grads.mean,
            "factor": dist.factor - TRAIN_LR * grads.factor,
            "diag_raw": dist.diag_raw - TRAIN_LR * grads.diag_raw,
        }
    inputs["dist"] = _paper_dist(params)
    return loss.value


def _paper_train_check(inputs, loss_value) -> Outcome:
    if not math.isfinite(loss_value):
        return Outcome(1, f"non-finite loss {loss_value}")
    return Outcome(1)


def _paper_train_gradcheck(inputs) -> str | None:
    """Central-difference directional derivative against <grad, v>."""
    dist = inputs["dist"]
    label_map = inputs["labels"][0]
    rng = np.random.default_rng([inputs["seed"], 0xD1])
    noise_seed = int(rng.integers(0, 2**62))
    names = ("mean", "factor", "diag_raw")
    direction = {name: rng.standard_normal(getattr(dist, name).shape) for name in names}
    norm = math.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))

    def loss_at(step: float) -> float:
        moved = {n: getattr(dist, n) + (step / norm) * direction[n] for n in names}
        return ssn.ssn_mc_loss(
            _paper_dist(moved), label_map, TRAIN_SAMPLES, noise_seed
        ).value

    loss = ssn.ssn_mc_loss(dist, label_map, TRAIN_SAMPLES, noise_seed)
    grads = ssn.grad_ssn_mc_loss(dist, label_map, loss.noise)
    analytic = sum(
        float(np.sum(getattr(grads, n) * direction[n])) for n in names
    ) / norm
    numeric = (loss_at(GRAD_STEP) - loss_at(-GRAD_STEP)) / (2.0 * GRAD_STEP)
    tolerance = max(GRAD_ABS_FLOOR, GRAD_REL_TOL * max(abs(analytic), abs(numeric)))
    if not abs(analytic - numeric) <= tolerance:
        return f"directional derivative {analytic} vs central difference {numeric}"
    return None


# --------------------------------------------------------------- paper-eval


def _paper_eval_image(seed: int, image: int):
    rng = np.random.default_rng([seed, 0xE7A, image])
    side, classes, rank, patch = PAPER_SIDE, EVAL_CLASSES, PAPER_RANK, EVAL_PATCH
    scores = 3.0 * _smooth_fields(rng, side, 8, classes)
    factor = 0.8 * _smooth_fields(rng, side, 8, classes * rank).reshape(
        side, side, classes, rank
    )
    diag_raw = _raw_diag(rng, (side, side, classes), 0.3)
    raters = [
        np.argmax(scores + 0.8 * _smooth_fields(rng, side, 16, classes), axis=-1)
        .astype(np.int64)
        .reshape(-1)
        for _ in range(PAPER_RATERS)
    ]
    patches = [
        ssn.Patch(
            offset=(top, left),
            shape=(patch, patch),
            mean=scores[top : top + patch, left : left + patch].reshape(-1),
            factor=factor[top : top + patch, left : left + patch].reshape(-1, rank),
            diag_raw=diag_raw[top : top + patch, left : left + patch].reshape(-1),
        )
        for top in range(0, side, patch)
        for left in range(0, side, patch)
    ]
    return {
        "params": ssn.PatchedParams(patches, (side, side), classes, rank),
        "scale": ssn.DeviationScale(per_class=rng.uniform(0.5, 1.5, classes)),
        "raters": ssn.SampleSet(
            samples=[ssn.LabelMap(labels=r, num_classes=classes) for r in raters]
        ),
    }


def _paper_eval_setup(seed: int, work: Path):
    inputs = {
        "seed": seed,
        "images": [_paper_eval_image(seed, image) for image in range(EVAL_IMAGES)],
    }
    warm = _paper_eval_check(inputs, _paper_eval_op(inputs, -1, NULL_TRACER))
    if warm.error:
        raise RuntimeError(f"warm-up paper-eval op failed: {warm.error}")
    return inputs


def _paper_eval_op(inputs, index: int, tracer):
    """Stitch, scale, sample 100 label maps and score them against raters."""
    image = inputs["images"][index % EVAL_IMAGES]
    sample_seed = int(_op_rng(inputs, index).integers(0, 2**62))
    stitched = ssn.stitch(image["params"])
    scaled = ssn.apply_deviation_scale(stitched, image["scale"])
    samples, _ = scaled.sample(EVAL_SAMPLES, sample_seed)
    with tracer.span("bench.argmax"):
        rows = np.argmax(samples.reshape(EVAL_SAMPLES, -1, EVAL_CLASSES), axis=2)
        maps = [ssn.LabelMap(labels=row, num_classes=EVAL_CLASSES) for row in rows]
    pred = ssn.SampleSet(samples=maps)
    report = ssn.ged_squared(image["raters"], pred)
    return {"image": image, "stitched": stitched, "pred": pred, "report": report}


def _paper_eval_check(inputs, result) -> Outcome:
    report = result["report"]
    if not all(map(math.isfinite, (report.ged_squared, report.cross_term))):
        return Outcome(1, "non-finite energy distance")
    image = result["image"]
    stitched = result["stitched"]
    side, classes = PAPER_SIDE, EVAL_CLASSES
    full = {
        "mean": stitched.mean.reshape(side, side, classes),
        "factor": stitched.factor.reshape(side, side, classes, PAPER_RANK),
        "diag_raw": stitched.diag_raw.reshape(side, side, classes),
    }
    for patch in image["params"].patches:
        top, left = patch.offset
        window = (slice(top, top + EVAL_PATCH), slice(left, left + EVAL_PATCH))
        for name, array in full.items():
            if not np.array_equal(array[window].reshape(getattr(patch, name).shape),
                                  getattr(patch, name)):
                return Outcome(1, f"stitched {name} misplaced at {patch.offset}")
    identity = ssn.apply_deviation_scale(
        stitched, ssn.DeviationScale(per_class=np.ones(classes))
    )
    for name in ("mean", "factor", "diag_raw"):
        if not np.array_equal(getattr(identity, name), getattr(stitched, name)):
            return Outcome(1, f"identity deviation scale changed {name}")
    raters = image["raters"].samples
    preds = result["pred"].samples
    cross = sum(ssn.iou_distance(g, p) for g in raters for p in preds)
    cross /= len(raters) * len(preds)
    if not abs(cross - report.cross_term) <= 1e-12:
        return Outcome(1, f"cross term {report.cross_term} vs per-pair {cross}")
    return Outcome(1)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="toy-train",
            why="the paper's 21-pixel toy training at protocol defaults: "
            "per-call overhead (distribution rebuilds, logsumexp dispatch, "
            "inverse-CDF draws) dominates each step",
            setup=_toy_train_setup,
            op=_toy_train_op,
            check=_toy_train_check,
            ops_per_call=TOY_TRAIN_ROWS,
            replay=_toy_train_replay,
            alloc_op=_toy_train_alloc,
        ),
        Workload(
            name="toy-eval",
            why="toy evaluation: 10k thresholded samples collapse onto a few "
            "distinct maps, so metric dedup pays off; per-sample objects and "
            "a 10k-sample likelihood",
            setup=_toy_eval_setup,
            op=_toy_eval_op,
            check=_toy_eval_check,
        ),
        Workload(
            name="paper-train",
            why="128x128 two-class SGD step with rank 10 and 20 samples: "
            "throughput-bound on sample matrices and the categorical "
            "likelihood, forward pass computed twice",
            setup=_paper_train_setup,
            op=_paper_train_op,
            check=_paper_train_check,
            run_check=_paper_train_gradcheck,
        ),
        Workload(
            name="paper-eval",
            why="stitch four-class 128x128 patches, scale, draw 100 samples "
            "and score GED: assembly and large-batch sampling, every row "
            "distinct so dedup is pure cost",
            setup=_paper_eval_setup,
            op=_paper_eval_op,
            check=_paper_eval_check,
        ),
    )
}
