"""Command-line surface: toy experiment, rank sweep, sampling, manipulation,
metrics, and gradient checks.

Every subcommand is deterministic given its flags (seeds are flags). Exit
codes: 0 success, 2 usage error, 3 pre-training divergence, 4 file/IO
error, 5 check failure. Commands raise; ``main`` alone turns an exception
into an exit code and one ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import formats
from .assembly import DeviationScale, apply_deviation_scale
from .errors import DivergenceError, OverflowSignal, ShapeError, ValidationError
from .likelihood import LabelMap, gradient_check_suite, labels_from_logits
from .metrics import SampleSet, ged_squared
from .rng import check_seed, mix_seed
from .toy import (
    TOY_LENGTH,
    TrainConfig,
    evaluate_toy,
    rank_sweep,
    summarize_sweep,
    train_toy,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_CHECK_FAILED = 5

_SAMPLE_PLOT_COLUMNS = 14
_PLOT_COLUMN_WIDTH = 12


def _int_at_least(least: int, text: str) -> int:
    """``text`` as an integer of at least ``least`` (0 or 1)."""
    try:
        value = int(text)
    except ValueError:  # argparse would name this function, not the text
        value = None
    if value is None or value < least:
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


_positive_int = partial(_int_at_least, 1)


def _seed(text: str) -> int:
    """``text`` as a seed in the domain every stream takes, [0, 2**64)."""
    try:
        return check_seed(_int_at_least(0, text))
    except ValidationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _int_list(text: str) -> list[int]:
    values = [_positive_int(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError("expected positive integers")
    return values


class UsageError(Exception):
    """A flag value the command cannot use (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print usage and exit itself
        raise UsageError(f"{self.prog}: {message}")


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, rows: list[dict]) -> None:
    """The first row's keys as the header, then one line per row."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _train_config(args, **fixed) -> TrainConfig:
    """The training configuration from the shared training flags plus the
    fields a command sets itself."""
    try:
        return TrainConfig(
            mc_samples=args.mc_samples,
            iterations=args.iters,
            pretrain_iterations=args.pretrain_iters,
            learning_rate=args.lr,
            pretrain_learning_rate=args.pretrain_lr,
            **fixed,
        )
    except ValidationError as err:
        raise UsageError(str(err)) from err


def cmd_toy_train(args) -> int:
    config = _train_config(args, rank=args.rank, seed=args.seed)
    report = train_toy(config, covariance_mode=args.mode)
    nll = evaluate_toy(report.checkpoint, seed=config.seed).nll_per_map
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.save_distribution(out / "model.ssnt", report.checkpoint)
    _write_json(
        out / "report.json",
        {
            "mode": args.mode,
            "config": asdict(config),
            "stop_reason": report.stop_reason,
            "phase_boundary": report.phase_boundary,
            "iterations_run": int(report.loss_trace.size - report.phase_boundary),
            "final_nll_per_map": nll,
        },
    )
    losses = [
        {"iteration": i, "phase": "pretrain" if i < report.phase_boundary else "joint",
         "loss": loss}
        for i, loss in enumerate(report.loss_trace.tolist())
    ]
    _write_csv(out / "loss.csv", losses)
    print(
        f"{args.mode} model trained: stop_reason={report.stop_reason} "
        f"final_nll_per_map={nll:.4f} -> {out}"
    )
    return EXIT_OK


def cmd_toy_eval(args) -> int:
    model = formats.load_distribution(args.model)
    if (model.num_pixels, model.num_classes) != (TOY_LENGTH, 1):
        got = f"{model.num_pixels} pixels x {model.num_classes} classes"
        raise UsageError(f"toy-eval needs {TOY_LENGTH} pixels x 1 class, got {got}")
    evaluation = evaluate_toy(
        model, n_samples=args.samples, n_lik_samples=args.lik_samples, seed=args.seed
    )
    with np.errstate(over="ignore", invalid="ignore"):  # plot_image rejects inf, nan
        covariance = model.dense_covariance()
    plot_samples, _ = model.sample(_SAMPLE_PLOT_COLUMNS, mix_seed(args.seed, 0xF1C))
    plots = {
        "mean.pgm": np.repeat(model.mean[:, None], _PLOT_COLUMN_WIDTH, axis=1),
        "covariance.pgm": covariance,
        "samples.pgm": np.repeat(plot_samples.T, _PLOT_COLUMN_WIDTH, axis=1),
    }
    plots = {name: formats.plot_image(image) for name, image in plots.items()}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eval.json", asdict(evaluation))
    for name, image in plots.items():
        formats.write_pgm_plot(out / name, image)
    print(
        f"nll_per_map={evaluation.nll_per_map:.4f} "
        f"diversity={evaluation.diversity:.4f} "
        f"ged_squared={evaluation.ged_squared:.4f} -> {out}"
    )
    return EXIT_OK


def cmd_rank_sweep(args) -> int:
    config = _train_config(args)
    seeds = list(range(1, args.seeds + 1))
    rows = rank_sweep(args.ranks, seeds, config, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", rows)
    _write_csv(out / "summary.csv", summarize_sweep(rows))
    failures = sum(1 for row in rows if row["status"] != "ok")
    print(f"{len(rows)} runs ({failures} failed) -> {out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    if not np.isfinite(args.threshold):
        raise UsageError(f"--threshold must be finite, got {args.threshold}")
    model = formats.load_distribution(args.model)
    samples, _ = model.sample(args.n, args.seed)
    rows = labels_from_logits(samples, model.num_classes, args.threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    width = len(str(args.n - 1))
    for index, labels in enumerate(rows):
        label_map = LabelMap(labels=labels, num_classes=model.num_classes)
        formats.save_label_map(out / f"sample_{index:0{width}d}.json", label_map)
    print(f"wrote {args.n} label maps -> {out}")
    return EXIT_OK


def cmd_manipulate(args) -> int:
    model = formats.load_distribution(args.model)
    try:
        payload = json.loads(args.scale)
        per_class, temperature = payload["per_class"], payload.get("temperature", 1.0)
        if any(type(v) not in (int, float) for v in [*per_class, temperature]):
            raise TypeError("per_class and temperature must be JSON numbers")
        scale = DeviationScale(
            per_class=np.array(per_class, dtype=np.float64),
            global_temperature=float(temperature),
        )
        scaled = apply_deviation_scale(model, scale)
    # ShapeError and ValidationError are ValueErrors. OverflowError comes from
    # integers too large for a float, RecursionError from deeply nested JSON.
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as err:
        raise UsageError(f"bad --scale payload: {err}") from err
    formats.save_distribution(args.out, scaled)
    print(f"wrote scaled model -> {args.out}")
    return EXIT_OK


def _load_sample_dir(directory) -> SampleSet:
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"not a directory: {directory}")
    maps = []
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json" and not path.name.endswith(".scale.json"):
            maps.append(formats.load_label_map(path)[0])
        elif path.suffix == ".pgm":
            maps.append(formats.label_map_from_pgm(path)[0])
    if not maps:
        raise ValidationError(f"no label map files in {directory}")
    return SampleSet(samples=maps)


def cmd_metrics(args) -> int:
    gt = _load_sample_dir(args.gt)
    pred = _load_sample_dir(args.pred)
    report = ged_squared(gt, pred)
    _write_json(args.out, {**asdict(report), "num_gt": len(gt), "num_pred": len(pred)})
    print(
        f"ged_squared={report.ged_squared:.6f} diversity={report.diversity:.6f} "
        f"-> {args.out}"
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    result = gradient_check_suite(trials=args.trials, seed=args.seed)
    print(
        f"gradient check: {result.trials} trials, {result.failures} failures, "
        f"max relative error {result.max_rel_error:.3e}"
    )
    if result.failures:
        print(
            f"worst trial {result.worst_trial} exceeded tolerance "
            f"(max relative error {result.max_rel_error:.3e})",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mc-samples", default=TrainConfig.mc_samples,
                        type=_positive_int,
                        help="Monte-Carlo samples per loss evaluation")
    parser.add_argument("--iters", default=TrainConfig.iterations,
                        type=_positive_int, help="joint training iterations")
    parser.add_argument("--pretrain-iters", default=TrainConfig.pretrain_iterations,
                        type=_positive_int, help="mean-only pre-training iterations")
    parser.add_argument("--lr", default=TrainConfig.learning_rate,
                        type=float, help="joint-phase learning rate")
    parser.add_argument("--pretrain-lr", default=TrainConfig.pretrain_learning_rate,
                        type=float, help="pre-training learning rate")


@cache  # one build per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ssn-lab",
        description=(
            "Low-rank Gaussian logit distributions: toy experiment, sampling, "
            "manipulation, metrics and gradient checks."
        ),
        epilog=(
            "Exit codes: 0 success, 2 usage error, 3 pre-training divergence, "
            "4 file error, 5 check failure. All JSON output keys are stable "
            "within a major version."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "toy-train",
        help="train a toy model and write model.ssnt/report.json/loss.csv",
        epilog=(
            "report.json keys: mode, config, stop_reason, phase_boundary, "
            "iterations_run, final_nll_per_map. loss.csv columns: iteration, "
            "phase, loss. model.ssnt: SSNT container (format, version, S, C, "
            "R, mean, factor, diag_raw)."
        ),
    )
    train.add_argument("--mode", choices=("diagonal", "lowrank"), default="lowrank")
    train.add_argument("--rank", type=_positive_int, default=TrainConfig.rank)
    _add_train_flags(train)
    train.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    train.add_argument("--out", default="toy-run")
    train.set_defaults(func=cmd_toy_train)

    evaluate = sub.add_parser(
        "toy-eval",
        help="evaluate a toy model: eval.json plus mean/covariance/samples PGM plots",
        epilog=(
            "eval.json keys: nll_per_map, nll_by_map, histogram (map1/map2/"
            "other fractions), num_distinct_maps, diversity, ged_squared. "
            "Each PGM plot has a <name>.scale.json sidecar with keys min, "
            "max, maxval."
        ),
    )
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--samples", type=_positive_int, default=10_000,
                          help="samples for histogram/diversity estimates")
    evaluate.add_argument("--lik-samples", type=_positive_int, default=10_000,
                          help="samples for the NLL estimate")
    evaluate.add_argument("--seed", type=_seed, default=0)
    evaluate.add_argument("--out", default="toy-eval")
    evaluate.set_defaults(func=cmd_toy_eval)

    sweep = sub.add_parser(
        "rank-sweep", help="train/evaluate over a rank grid; sweep.csv + summary.csv"
    )
    sweep.add_argument("--ranks", type=_int_list, default=[1, 2, 5, 10, 15, 20])
    sweep.add_argument("--seeds", type=_positive_int, default=5,
                       help="number of seeds (uses 1..N)")
    _add_train_flags(sweep)
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="parallel workers")
    sweep.add_argument("--out", default="rank-sweep")
    sweep.set_defaults(func=cmd_rank_sweep)

    sample = sub.add_parser("sample", help="draw label maps from a saved model")
    sample.add_argument("--model", required=True)
    sample.add_argument("--n", type=_positive_int, default=16)
    sample.add_argument("--seed", type=_seed, default=0)
    sample.add_argument("--threshold", type=float, default=0.0,
                        help="logit threshold for binary maps")
    sample.add_argument("--out", default="samples")
    sample.set_defaults(func=cmd_sample)

    manipulate = sub.add_parser(
        "manipulate", help="apply per-class deviation scaling / temperature"
    )
    manipulate.add_argument("--model", required=True)
    manipulate.add_argument(
        "--scale",
        required=True,
        help='JSON like {"per_class":[1.0],"temperature":1.0}',
    )
    manipulate.add_argument("--out", required=True)
    manipulate.set_defaults(func=cmd_manipulate)

    metrics = sub.add_parser(
        "metrics",
        help="generalised energy distance between two sample directories",
        epilog=(
            "Output keys: ged_squared, diversity, cross_term, gt_self_term, "
            "num_gt, num_pred."
        ),
    )
    metrics.add_argument("--gt", required=True)
    metrics.add_argument("--pred", required=True)
    metrics.add_argument("--out", default="metrics.json")
    metrics.set_defaults(func=cmd_metrics)

    gradcheck = sub.add_parser(
        "gradcheck", help="finite-difference check of the loss gradients"
    )
    gradcheck.add_argument("--trials", type=_positive_int, default=50)
    gradcheck.add_argument("--seed", type=_seed, default=1)
    gradcheck.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, MemoryError) as err:  # MemoryError: a size flag too large
        failure, code = err, EXIT_USAGE
    except DivergenceError as err:
        failure, code = err, EXIT_DIVERGENCE
    except (OSError, ShapeError, ValidationError, OverflowSignal) as err:
        # Files that cannot be read or written, or a model whose samples overflow.
        failure, code = err, EXIT_IO
    print("error:", " ".join(str(failure).splitlines()), file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
