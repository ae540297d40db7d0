import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssn_lab
from ssn_lab import (
    DivergenceError,
    LabelMap,
    LowRankGaussian,
    PortableRng,
    TrainConfig,
    evaluate_toy,
    formats,
    metrics,
)
from ssn_lab.cli import _train_config, build_parser, main

REFERENCE_TRACE = (
    Path(__file__).resolve().parents[1] / "bench" / "reference" / "toy_loss_seed1.csv"
)
# The rank-2 model ``toy-train --seed 1`` writes at protocol defaults.
PROTOCOL_MODEL = Path(__file__).resolve().parent / "data" / "toy_rank2_seed1.ssnt"

# 10**16 rows or columns need 1.7-1.8 EB, more than any 64-bit machine maps
# (at most 2**57 bytes) but under numpy's own size limit, so the allocation
# fails with MemoryError before a byte is touched. 10**18 rows of two or more
# columns pass that limit, and 10**20 passes numpy's largest dimension: numpy
# refuses both before allocating anything.
UNALLOCATABLE = str(10**16)
PAST_SIZE_LIMIT = str(10**18)
PAST_DIMENSION_LIMIT = str(10**20)

QUICK_TRAIN = [
    "--pretrain-iters", "500",
    "--iters", "2000",
    "--mc-samples", "100",
]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy-run")
    code = main(
        ["toy-train", "--mode", "lowrank", "--rank", "2", "--seed", "9",
         "--out", str(out), *QUICK_TRAIN]
    )
    assert code == 0
    return out


def assert_one_error_line(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def read_losses(path):
    with open(path, newline="") as handle:
        return [float(row["loss"]) for row in csv.DictReader(handle)]


def golden_eval_model():
    """A fixed rank-2 toy model whose thresholded samples spread over a few
    hundred distinct maps."""
    rng = PortableRng(7)
    mean = np.concatenate([np.full(7, 2.0), np.zeros(7), np.full(7, -2.0)])
    mean = mean + 0.5 * rng.standard_normal(21)
    factor = 0.3 * rng.standard_normal((21, 2))
    factor[7:14, 0] += 2.5
    return LowRankGaussian(mean, factor, np.full(21, -1.0), 21, 1, 2)


# eval.json of golden_eval_model() with --samples 3000 --lik-samples 3000
# --seed 11, recorded before evaluation moved to label matrices.
GOLDEN_EVAL = {
    "diversity": 0.3067625560308972,
    "ged_squared": 0.012827515934174638,
    "histogram": {
        "map1": 0.232,
        "map2": 0.23066666666666666,
        "other": 0.5373333333333333,
    },
    "nll_by_map": [4.552836523068664, 4.8039298287551695],
    "nll_per_map": 4.678383175911916,
    "num_distinct_maps": 296,
}


class TestToyTrain:
    def test_writes_model_report_and_trace(self, trained_dir):
        assert (trained_dir / "model.ssnt").exists()
        report = json.loads((trained_dir / "report.json").read_text())
        assert report["mode"] == "lowrank"
        assert report["stop_reason"] in ("completed", "overflow_early_stop")
        assert report["phase_boundary"] == 500
        assert np.isfinite(report["final_nll_per_map"])
        lines = (trained_dir / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,phase,loss"
        assert len(lines) == 1 + 500 + 2000
        assert lines[1].split(",")[1] == "pretrain"
        assert lines[-1].split(",")[1] == "joint"

    def test_same_flags_reproduce_model_bytes(self, tmp_path):
        args = ["toy-train", "--mode", "diagonal", "--seed", "3", *QUICK_TRAIN]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "model.ssnt").read_bytes() == (
            tmp_path / "b" / "model.ssnt"
        ).read_bytes()

    def test_report_nll_is_evaluate_toys(self, tmp_path, capsys):
        """report.json's final NLL is evaluate_toy's at the run's seed, to
        the bit, and the same flags write the same report."""
        args = ["toy-train", "--seed", "4", *QUICK_TRAIN]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        report = (tmp_path / "a" / "report.json").read_bytes()
        assert report == (tmp_path / "b" / "report.json").read_bytes()
        model = formats.load_distribution(tmp_path / "a" / "model.ssnt")
        nll = evaluate_toy(model, seed=4).nll_per_map
        assert json.loads(report)["final_nll_per_map"] == nll
        assert f"final_nll_per_map={nll:.4f} " in capsys.readouterr().out

    def test_flag_defaults_are_the_protocols(self):
        args = build_parser().parse_args(["toy-train"])
        assert TrainConfig(rank=args.rank, seed=args.seed) == TrainConfig()
        assert _train_config(args, rank=args.rank, seed=args.seed) == TrainConfig()
        assert _train_config(build_parser().parse_args(["rank-sweep"])) == TrainConfig()

    def test_rank_zero_is_usage_error(self, tmp_path, capsys):
        assert main(["toy-train", "--rank", "0", "--out", str(tmp_path)]) == 2
        assert_one_error_line(capsys)

    def test_bad_learning_rate_is_usage_error(self, tmp_path):
        code = main(
            ["toy-train", "--lr", "-1.0", "--out", str(tmp_path), *QUICK_TRAIN]
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--lr", "--pretrain-lr"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(
        self, tmp_path, capsys, flag, value
    ):
        code = main(["toy-train", flag, value, "--out", str(tmp_path), *QUICK_TRAIN])
        assert code == 2
        assert_one_error_line(capsys)

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["toy-train", "--seed", "-1", "--out", str(out), *QUICK_TRAIN])
        assert code == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_golden_loss_trace(self, tmp_path):
        """Same flags, same bytes: the seed-1 short run reproduces the
        recorded loss trace exactly."""
        code = main(
            ["toy-train", "--seed", "1", "--pretrain-iters", "200", "--iters", "500",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert read_losses(tmp_path / "loss.csv") == read_losses(REFERENCE_TRACE)
        assert (tmp_path / "loss.csv").read_bytes() == REFERENCE_TRACE.read_bytes()

    def test_huge_pretraining_rate_is_divergence(self, tmp_path, capsys):
        """A finite rate that throws the mean past the overflow bound is a
        divergence, not a useless model with exit 0, and leaves no empty
        output directory behind."""
        out = tmp_path / "run"
        code = main(
            ["toy-train", "--pretrain-lr", "1e300", "--pretrain-iters", "50",
             "--iters", "10", "--out", str(out)]
        )
        assert code == 3
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_pretraining_divergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        import ssn_lab.cli as cli_module

        def explode(config, covariance_mode):
            raise DivergenceError("diverged")

        monkeypatch.setattr(cli_module, "train_toy", explode)
        code = main(["toy-train", "--out", str(tmp_path), *QUICK_TRAIN])
        assert code == 3


class TestToyEval:
    def test_writes_eval_json_and_plots(self, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = main(
            ["toy-eval", "--model", str(trained_dir / "model.ssnt"),
             "--samples", "2000", "--lik-samples", "2000", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        evaluation = json.loads((out / "eval.json").read_text())
        for key in ("nll_per_map", "histogram", "diversity", "ged_squared"):
            assert key in evaluation
        for name in ("mean.pgm", "covariance.pgm", "samples.pgm"):
            assert (out / name).exists()
            assert (out / f"{name}.scale.json").exists()

    def test_sample_plot_has_fourteen_columns(self, trained_dir, tmp_path):
        out = tmp_path / "eval"
        main(
            ["toy-eval", "--model", str(trained_dir / "model.ssnt"),
             "--samples", "100", "--lik-samples", "100", "--out", str(out)]
        )
        image = formats._read_pgm_bytes(out / "samples.pgm")
        assert image.shape == (21, 14 * 12)
        covariance = formats._read_pgm_bytes(out / "covariance.pgm")
        assert covariance.shape == (21, 21)

    def test_learned_covariance_concentrates_in_middle_block(self, trained_dir):
        model = formats.load_distribution(trained_dir / "model.ssnt")
        covariance = np.abs(model.dense_covariance())
        middle = covariance[7:14, 7:14].mean()
        outside_mask = np.ones((21, 21), dtype=bool)
        outside_mask[7:14, 7:14] = False
        assert middle >= 5.0 * covariance[outside_mask].mean()

    def test_golden_eval_values(self, tmp_path):
        formats.save_distribution(tmp_path / "model.ssnt", golden_eval_model())
        code = main(
            ["toy-eval", "--model", str(tmp_path / "model.ssnt"),
             "--samples", "3000", "--lik-samples", "3000", "--seed", "11",
             "--out", str(tmp_path / "eval")]
        )
        assert code == 0
        assert json.loads((tmp_path / "eval" / "eval.json").read_text()) == GOLDEN_EVAL

    def test_non_toy_model_is_usage_error(self, tmp_path, capsys):
        model = LowRankGaussian(np.zeros(42), np.zeros((42, 1)), np.zeros(42), 21, 2, 1)
        formats.save_distribution(tmp_path / "model.ssnt", model)
        code = main(
            ["toy-eval", "--model", str(tmp_path / "model.ssnt"),
             "--out", str(tmp_path / "eval")]
        )
        assert code == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "eval").exists()

    def test_overflowing_model_is_io_error(self, tmp_path, capsys):
        """A finite model whose samples overflow ends in one error line and
        leaves no output directory behind."""
        model = LowRankGaussian(
            np.zeros(21), np.full((21, 2), 1e308), np.zeros(21), 21, 1, 2
        )
        formats.save_distribution(tmp_path / "model.ssnt", model)
        out = tmp_path / "eval"
        code = main(
            ["toy-eval", "--model", str(tmp_path / "model.ssnt"),
             "--samples", "100", "--lik-samples", "100", "--out", str(out)]
        )
        assert code == 4
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_overflowing_covariance_is_io_error(self, tmp_path, capsys):
        """Finite samples, but a dense covariance past the float range: one
        error line, no overflow warning, and no output directory."""
        model = LowRankGaussian(
            np.zeros(21), np.full((21, 2), 1e200), np.zeros(21), 21, 1, 2
        )
        formats.save_distribution(tmp_path / "model.ssnt", model)
        out = tmp_path / "eval"
        code = main(
            ["toy-eval", "--model", str(tmp_path / "model.ssnt"),
             "--samples", "100", "--lik-samples", "100", "--out", str(out)]
        )
        assert code == 4
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_covariance_with_cancelling_overflow_is_io_error(self, tmp_path, capsys):
        """Covariance entries where an overflow to +inf meets one to -inf are
        nan: one error line and no 'invalid value' warning."""
        factor = np.full((21, 2), 1e200)
        factor[:, 1] *= (-1.0) ** np.arange(21)
        model = LowRankGaussian(np.zeros(21), factor, np.zeros(21), 21, 1, 2)
        formats.save_distribution(tmp_path / "model.ssnt", model)
        out = tmp_path / "eval"
        code = main(
            ["toy-eval", "--model", str(tmp_path / "model.ssnt"),
             "--samples", "1", "--lik-samples", "1", "--out", str(out)]
        )
        assert code == 4
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_covariance_with_overflowing_range_is_io_error(self, tmp_path, capsys):
        """Every covariance entry is finite, but they span -1e308 to 1e308, so
        the plot's range overflows: one error line, no numpy warning, and no
        output directory."""
        factor = np.zeros((21, 2))
        factor[:, 0] = 1e154 * (-1.0) ** np.arange(21)
        model = LowRankGaussian(np.zeros(21), factor, np.zeros(21), 21, 1, 2)
        formats.save_distribution(tmp_path / "model.ssnt", model)
        out = tmp_path / "eval"
        code = main(
            ["toy-eval", "--model", str(tmp_path / "model.ssnt"),
             "--samples", "100", "--lik-samples", "100", "--out", str(out)]
        )
        assert code == 4
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_missing_model_is_io_error(self, tmp_path):
        code = main(
            ["toy-eval", "--model", str(tmp_path / "nope.ssnt"),
             "--out", str(tmp_path)]
        )
        assert code == 4

    def test_malformed_model_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.ssnt"
        bad.write_text('{"format": "WRONG"}')
        code = main(["toy-eval", "--model", str(bad), "--out", str(tmp_path)])
        assert code == 4

    @pytest.mark.parametrize("command", ["toy-eval", "sample"])
    def test_model_dims_disagreeing_with_tensors_is_io_error(
        self, trained_dir, tmp_path, capsys, command
    ):
        document = json.loads((trained_dir / "model.ssnt").read_text())
        document["S"] += 1
        bad = tmp_path / "bad.ssnt"
        bad.write_text(json.dumps(document))
        capsys.readouterr()
        code = main([command, "--model", str(bad), "--out", str(tmp_path / "out")])
        assert code == 4
        assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()


class TestSampleAndManipulate:
    def test_sample_writes_label_map_files(self, trained_dir, tmp_path):
        out = tmp_path / "samples"
        code = main(
            ["sample", "--model", str(trained_dir / "model.ssnt"),
             "--n", "5", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        files = sorted(out.glob("sample_*.json"))
        assert len(files) == 5
        label_map, shape = formats.load_label_map(files[0])
        assert shape == [21]
        assert set(np.unique(label_map.labels)).issubset({0, 1})

    def test_threshold_labels_samples_above_it(self, trained_dir, tmp_path):
        out = tmp_path / "samples"
        code = main(
            ["sample", "--model", str(trained_dir / "model.ssnt"), "--n", "4",
             "--seed", "5", "--threshold", "0.3", "--out", str(out)]
        )
        assert code == 0
        model = formats.load_distribution(trained_dir / "model.ssnt")
        rows, _ = model.sample(4, 5)
        for index, row in enumerate(rows):
            label_map, _ = formats.load_label_map(out / f"sample_{index}.json")
            assert label_map.num_classes == 1
            assert np.array_equal(label_map.labels, row > 0.3)

    def test_multiclass_samples_are_per_pixel_argmax(self, tmp_path):
        rng = PortableRng(4)
        pixels, classes, rank = 6, 3, 2
        dim = pixels * classes
        model = LowRankGaussian(
            rng.standard_normal(dim), rng.standard_normal((dim, rank)),
            rng.standard_normal(dim), pixels, classes, rank,
        )
        formats.save_distribution(tmp_path / "model.ssnt", model)
        out = tmp_path / "samples"
        code = main(
            ["sample", "--model", str(tmp_path / "model.ssnt"), "--n", "12",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rows, _ = model.sample(12, 3)
        expected = np.argmax(rows.reshape(12, pixels, classes), axis=2)
        for index in range(12):
            label_map, _ = formats.load_label_map(out / f"sample_{index:02d}.json")
            assert label_map.num_classes == classes
            assert np.array_equal(label_map.labels, expected[index])

    @pytest.mark.parametrize(
        "flags",
        [["--threshold", "nan"], ["--threshold", "inf"], ["--threshold=-inf"],
         ["--seed", "-1"]],
    )
    def test_unusable_sample_flags_are_usage_errors(
        self, trained_dir, tmp_path, capsys, flags
    ):
        out = tmp_path / "samples"
        code = main(
            ["sample", "--model", str(trained_dir / "model.ssnt"), *flags,
             "--out", str(out)]
        )
        assert code == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_identity_manipulation_is_bit_identical(self, trained_dir, tmp_path):
        out = tmp_path / "scaled.ssnt"
        code = main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", '{"per_class":[1.0],"temperature":1.0}',
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == (trained_dir / "model.ssnt").read_bytes()

    def test_temperature_zero_collapses_samples(self, trained_dir, tmp_path):
        scaled_path = tmp_path / "cold.ssnt"
        main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", '{"per_class":[1.0],"temperature":0.0}',
             "--out", str(scaled_path)]
        )
        model = formats.load_distribution(scaled_path)
        samples, _ = model.sample(100, seed=0)
        assert np.abs(samples - model.mean[None, :]).max() < 0.02

    def test_bad_scale_json_is_usage_error(self, trained_dir, tmp_path):
        code = main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", "{broken", "--out", str(tmp_path / "x.ssnt")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "scale",
        ["[" * 20_000 + "]" * 20_000,
         '{"per_class":[1.0],"temperature":1' + "0" * 400 + "}"],
        ids=["nested", "huge-int"],
    )
    def test_unusable_scale_payload_is_usage_error(
        self, trained_dir, tmp_path, capsys, scale
    ):
        capsys.readouterr()
        code = main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", scale, "--out", str(tmp_path / "x.ssnt")]
        )
        assert code == 2
        assert_one_error_line(capsys)

    def test_overflowing_scale_product_is_usage_error(
        self, trained_dir, tmp_path, capsys
    ):
        """A class scale and a temperature, each finite, whose product
        overflows: one error line, no numpy warning, and no model written."""
        capsys.readouterr()
        out = tmp_path / "x.ssnt"
        code = main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", '{"per_class":[1e300],"temperature":1e300}',
             "--out", str(out)]
        )
        assert code == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "scale",
        ['{"per_class":[true],"temperature":true}', '{"per_class":[true]}',
         '{"per_class":[1.0],"temperature":false}'],
        ids=["both", "per-class", "temperature"],
    )
    def test_boolean_scale_is_usage_error(self, trained_dir, tmp_path, capsys, scale):
        """JSON true and false are not numbers, here as in the file loaders."""
        capsys.readouterr()
        out = tmp_path / "x.ssnt"
        code = main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", scale, "--out", str(out)]
        )
        assert code == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_wrong_class_count_is_usage_error(self, trained_dir, tmp_path):
        code = main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", '{"per_class":[1.0,2.0]}', "--out", str(tmp_path / "x.ssnt")]
        )
        assert code == 2

    def test_out_in_missing_directory_is_io_error(self, trained_dir, tmp_path, capsys):
        capsys.readouterr()
        code = main(
            ["manipulate", "--model", str(trained_dir / "model.ssnt"),
             "--scale", '{"per_class":[1.0]}',
             "--out", str(tmp_path / "missing" / "x.ssnt")]
        )
        assert code == 4
        assert_one_error_line(capsys)


class TestMetricsCommand:
    def test_identical_directories_give_zero(self, trained_dir, tmp_path):
        samples = tmp_path / "maps"
        main(
            ["sample", "--model", str(trained_dir / "model.ssnt"),
             "--n", "6", "--seed", "4", "--out", str(samples)]
        )
        out = tmp_path / "metrics.json"
        code = main(
            ["metrics", "--gt", str(samples), "--pred", str(samples),
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert sorted(report) == [
            "cross_term", "diversity", "ged_squared", "gt_self_term", "num_gt",
            "num_pred",
        ]
        assert report["ged_squared"] == 0.0
        assert report["num_gt"] == 6
        assert report["num_pred"] == 6

    def test_map_size_mismatch_between_directories_is_io_error(
        self, tmp_path, capsys
    ):
        for name, labels in (("gt", [1, 0, 1]), ("pred", [1, 0])):
            (tmp_path / name).mkdir()
            formats.save_label_map(
                tmp_path / name / "a.json", LabelMap(labels=labels, num_classes=1)
            )
        code = main(
            ["metrics", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 4
        assert_one_error_line(capsys)

    def test_map_size_mismatch_within_directory_is_io_error(self, tmp_path, capsys):
        maps = tmp_path / "maps"
        maps.mkdir()
        for name, labels in (("a", [1, 0, 1]), ("b", [1, 0])):
            formats.save_label_map(
                maps / f"{name}.json", LabelMap(labels=labels, num_classes=1)
            )
        code = main(
            ["metrics", "--gt", str(maps), "--pred", str(maps),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 4
        assert_one_error_line(capsys)

    def test_fractional_label_is_io_error(self, tmp_path, capsys):
        maps = tmp_path / "maps"
        maps.mkdir()
        (maps / "a.json").write_text(
            '{"shape":[3],"num_classes":1,"labels":[1.7,0,1]}'
        )
        code = main(
            ["metrics", "--gt", str(maps), "--pred", str(maps),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 4
        assert_one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    def test_malformed_pgm_header_is_io_error(self, tmp_path, capsys):
        maps = tmp_path / "maps"
        maps.mkdir()
        (maps / "a.pgm").write_bytes(b"P5\n3 x\n255\n")
        code = main(
            ["metrics", "--gt", str(maps), "--pred", str(maps),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 4
        assert_one_error_line(capsys)

    def test_missing_directory_is_io_error(self, tmp_path):
        code = main(
            ["metrics", "--gt", str(tmp_path / "none"),
             "--pred", str(tmp_path / "none"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 4

    @staticmethod
    def write_label_maps(root, num_classes):
        """Ten binary 20-pixel maps, split between gt and pred, all declaring
        ``num_classes``."""
        labels = np.random.default_rng(3).integers(0, 2, size=(10, 20))
        for index, row in enumerate(labels):
            directory = root / ("gt" if index < 4 else "pred")
            directory.mkdir(exist_ok=True)
            document = {"shape": [20], "num_classes": num_classes,
                        "labels": row.tolist()}
            (directory / f"m{index}.json").write_text(json.dumps(document))

    @pytest.mark.parametrize("declared", [10**5, 10**9])
    def test_cost_follows_the_classes_present(self, tmp_path, monkeypatch, declared):
        """Only the classes in the maps are scored: the bytes of a declared
        2 and one overlap product per pairwise distance matrix."""
        calls = {"pairwise": 0, "overlap": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(metrics, "pairwise_iou_distance",
                            counted("pairwise", metrics.pairwise_iou_distance))
        monkeypatch.setattr(metrics, "_overlap_counts",
                            counted("overlap", metrics._overlap_counts))
        written = []
        for num_classes in (2, declared):
            root = tmp_path / str(num_classes)
            root.mkdir()
            self.write_label_maps(root, num_classes)
            argv = ["metrics", "--gt", str(root / "gt"), "--pred", str(root / "pred"),
                    "--out", str(root / "metrics.json")]
            assert main(argv) == 0
            written.append((root / "metrics.json").read_bytes())
        assert written[0] == written[1]
        assert calls == {"pairwise": 6, "overlap": 6}

    @pytest.mark.parametrize("declared", ["18446744073709551616", "1e30"])
    def test_class_count_past_int64_labels_is_io_error(
        self, tmp_path, capsys, declared
    ):
        for name in ("gt", "pred"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "a.json").write_text(
                '{"shape":[3],"num_classes":%s,"labels":[0,1,1]}' % declared
            )
        code = main(
            ["metrics", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == 4
        assert_one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()


class TestRankSweepCommand:
    def test_small_grid_writes_sweep_and_summary(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["rank-sweep", "--ranks", "1,2", "--seeds", "1", "--out", str(out),
             "--pretrain-iters", "200", "--iters", "200", "--mc-samples", "30"]
        )
        assert code == 0
        sweep_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert sweep_lines[0] == "rank,seed,nll,diversity,ged2,stop_reason,status"
        assert len(sweep_lines) == 3
        assert [line.split(",")[0] for line in sweep_lines[1:]] == ["1", "2"]
        summary_lines = (out / "summary.csv").read_text().strip().splitlines()
        assert summary_lines[0] == (
            "rank,runs,nll_mean,nll_stderr,diversity_mean,diversity_stderr,"
            "ged2_mean,ged2_stderr"
        )
        assert len(summary_lines) == 3

    def test_non_finite_learning_rate_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["rank-sweep", "--lr", "nan", "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_bad_ranks_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["rank-sweep", "--ranks", "1,0", "--out", str(tmp_path)]) == 2
        assert_one_error_line(capsys)


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        code = main(["gradcheck", "--trials", "10", "--seed", "1"])
        assert code == 0
        assert "max relative error" in capsys.readouterr().out


def test_console_entry_point_runs():
    # The subprocess finds the package the way this process did, installed
    # or not.
    src = str(Path(ssn_lab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-m", "ssn_lab.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "toy-train" in result.stdout


class TestOneUsageErrorPath:
    """Every usage error, argparse's own included, leaves through main:
    exit 2 and one error line, never argparse's usage block. A failed run
    leaves no --out behind."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["toy-train", "--rank", "0"], "--rank"),
            (["sample", "--n", "x"], "--n"),
            (["rank-sweep", "--ranks", "1,x"], "--ranks"),
            (["toy-train", "--mode", "full"], "--mode"),
            (["bogus"], "bogus"),
            (["toy-train", "--frob", "1"], "--frob"),
            (["sample"], "--model"),
            (["gradcheck", "--trials"], "--trials"),
            (["gradcheck", "two\nlines"], "two lines"),
            ([], "command"),
        ],
        ids=["bad-int", "bad-int-word", "bad-list", "bad-choice", "unknown-command",
             "unknown-flag", "missing-flag", "missing-value", "newline", "no-command"],
    )
    def test_argparse_error_is_one_line_and_exit_2(self, capsys, argv, named):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ssn-lab")
        assert named in lines[0]
        assert "invalid _" not in lines[0]  # no private function's name

    @pytest.mark.parametrize(
        "argv, text",
        [(["sample", "--n", "x"], "'x'"), (["toy-train", "--rank", "1.5"], "'1.5'"),
         (["rank-sweep", "--ranks", "1,x"], "'x'")],
        ids=["sample", "toy-train", "rank-sweep"],
    )
    def test_bad_integer_flag_names_its_text(self, capsys, argv, text):
        assert main(argv) == 2
        line = capsys.readouterr().err.strip()
        assert line.endswith(f"expected a positive integer, got {text}")

    @pytest.mark.parametrize(
        "command", ["toy-train", "toy-eval", "sample", "gradcheck"]
    )
    def test_negative_seed_is_rejected_by_every_command(
        self, tmp_path, capsys, command
    ):
        """One rule for every ``--seed``: a negative seed exits 2 with one
        ``error:`` line naming the text, and writes no ``--out``."""
        argv = [command, "--seed", "-1"]
        if command in ("toy-eval", "sample"):
            argv += ["--model", str(tmp_path / "model.ssnt")]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: ssn-lab {command}")
        assert lines[0].endswith("expected a non-negative integer, got '-1'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", ["toy-train", "toy-eval", "sample", "gradcheck"]
    )
    def test_seed_past_64_bits_is_rejected_by_every_command(
        self, tmp_path, capsys, command
    ):
        """Seeds have one domain, [0, 2**64), in the CLI as in the library:
        2**64 exits 2 with one ``error:`` line and writes no ``--out``, where
        it once ran as seed 0 or as its full value, by command."""
        argv = [command, "--seed", str(2**64)]
        if command in ("toy-eval", "sample"):
            argv += ["--model", str(PROTOCOL_MODEL)]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: ssn-lab {command}")
        assert lines[0].endswith(f"seed must be < 2**64, got {2**64}")
        assert not (tmp_path / "out").exists()

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_errors_leave_the_parser_as_it_was(self, tmp_path, capsys):
        """A valid call after usage errors in the same process writes the
        bytes it writes alone, from a fresh parser: a failed parse, also
        one that set flags before its error, leaves no value behind."""

        def run(out):
            argv = ["toy-eval", "--model", str(PROTOCOL_MODEL), "--seed", "3",
                    "--out", str(out)]
            code = main(argv)
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            return code, stdout, {p.name: p.read_bytes() for p in out.iterdir()}

        build_parser.cache_clear()
        alone = run(tmp_path / "alone")
        for argv in (
            ["toy-eval", "--model", str(PROTOCOL_MODEL), "--samples", "50",
             "--lik-samples", "60", "--seed", "-1"],
            ["toy-eval", "--samples", "70", "--seed", "x"],
            ["gradcheck", "--seed", "4", "--trials", "0"],
            ["junk"],
        ):
            assert main(argv) == 2
            assert_one_error_line(capsys)
        assert run(tmp_path / "after") == alone
        assert alone[0] == 0 and len(alone[2]) == 7

    @pytest.mark.parametrize(
        "argv", [["--help"], ["sample", "--help"]], ids=["top", "subcommand"]
    )
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ssn-lab")

    @pytest.mark.parametrize(
        "argv",
        [
            ["toy-train", "--rank", UNALLOCATABLE, "--pretrain-iters", "5",
             "--iters", "5", "--mc-samples", "5"],
            ["sample", "--n", UNALLOCATABLE],
            ["toy-eval", "--samples", UNALLOCATABLE, "--lik-samples", "50"],
            ["toy-train", "--rank", PAST_SIZE_LIMIT, "--pretrain-iters", "1"],
            ["sample", "--n", PAST_SIZE_LIMIT],
            ["sample", "--n", PAST_DIMENSION_LIMIT],
            ["toy-eval", "--samples", PAST_SIZE_LIMIT, "--lik-samples", "50"],
        ],
        ids=["toy-train", "sample", "toy-eval", "toy-train-past-limit",
             "sample-past-limit", "sample-past-dimension", "toy-eval-past-limit"],
    )
    def test_unallocatable_size_is_usage_error(
        self, trained_dir, tmp_path, capsys, argv
    ):
        """A size whose first array needs over an exbibyte, beyond any
        machine's address space or past numpy's own size limit, fails at
        once: exit 2, one error line and no output directory."""
        if argv[0] != "toy-train":
            argv = [*argv, "--model", str(trained_dir / "model.ssnt")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_failed_sweep_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        import ssn_lab.cli as cli_module

        def fail(*args, **kwargs):
            raise OSError("cannot start workers")

        monkeypatch.setattr(cli_module, "rank_sweep", fail)
        out = tmp_path / "sweep"
        assert main(["rank-sweep", "--out", str(out)]) == 4
        assert_one_error_line(capsys)
        assert not out.exists()


# The CLI fuzz: generated argv for every subcommand, over generated or
# byte-mutated model, label-map and PGM files. Paths are ("tmp", name) pairs,
# resolved inside each example's own temporary directory, which is also the
# working directory (a default --out lands there) and holds an existing file
# and an existing directory to write over or into.

# Text for one argument: any character but NUL, which no process argument
# can hold, and (hypothesis's default) lone surrogates.
ARG_TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=6)


def _small(text):
    """No comma-separated part of ``text`` reads as an integer above 2, so a
    junk value cannot ask for a long run."""
    for part in text.split(","):
        try:
            if int(part) > 2:
                return False
        except ValueError:
            pass
    return True


JUNK = st.one_of(
    st.sampled_from(["0", "-1", "1.5", "x", "", "nan", "-inf", "1e300", "a\nb"]),
    ARG_TEXT.filter(_small),
)


def _mostly(valid):
    """``valid`` nine times in ten, else a junk value."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else JUNK)


def _ints(high):
    return _mostly(st.integers(1, high).map(str))


RATES = _mostly(st.one_of(st.sampled_from(["0.05", "0.5"]), st.floats(0, 2).map(repr)))
THRESHOLDS = _mostly(st.floats(allow_nan=False, allow_infinity=False).map(repr))
SEEDS = _mostly(st.one_of(st.integers(0, 99), st.integers(-(2**70), 2**70)).map(str))
OUT_DIRS = st.sampled_from(
    [("tmp", "out")] * 4
    + [("tmp", "new/deeper/out"), ("tmp", "file"), ("tmp", "file/out"), ("tmp", "dir")]
)
OUT_FILES = st.sampled_from(
    [("tmp", "out.json")] * 4
    + [("tmp", "missing/out.json"), ("tmp", "file"), ("tmp", "dir")]
)
MODELS = st.sampled_from(
    [("tmp", "model.ssnt")] * 6
    + [("tmp", "gt/m0.json"), ("tmp", "missing.ssnt"), ("tmp", "dir")]
)
SAMPLE_DIRS = st.sampled_from(
    [("tmp", "gt"), ("tmp", "pred")] * 3
    + [("tmp", "dir"), ("tmp", "missing"), ("tmp", "file")]
)
NUMBERS = st.integers(0, 3).flatmap(
    lambda i: st.floats(-4, 4) if i
    else st.one_of(st.floats(), st.integers(), st.booleans())
)
SCALES = _mostly(
    st.fixed_dictionaries(
        {"per_class": st.lists(NUMBERS, min_size=1, max_size=3)},
        optional={"temperature": NUMBERS},
    ).map(json.dumps)
)
TRAIN_FLAGS = {
    "--mc-samples": _ints(5),
    "--iters": _ints(5),
    "--pretrain-iters": _ints(5),
    "--lr": RATES,
    "--pretrain-lr": RATES,
}
# Per subcommand: flags always given, because their defaults ask for long
# runs, then flags each given nine times in ten.
COMMANDS = {
    "toy-train": (
        TRAIN_FLAGS,
        {"--mode": _mostly(st.sampled_from(["diagonal", "lowrank"])),
         "--rank": _ints(3), "--seed": SEEDS, "--out": OUT_DIRS},
    ),
    "toy-eval": (
        {"--samples": _ints(50), "--lik-samples": _ints(50)},
        {"--model": MODELS, "--seed": SEEDS, "--out": OUT_DIRS},
    ),
    "rank-sweep": (
        {"--ranks": _mostly(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
            lambda ranks: ",".join(map(str, ranks)))),
         "--seeds": _ints(2), **TRAIN_FLAGS},
        # --jobs 2 forks two workers, in about one sweep in ten
        {"--jobs": _mostly(st.sampled_from(["1"] * 9 + ["2"])), "--out": OUT_DIRS},
    ),
    "sample": (
        {},
        {"--model": MODELS, "--n": _ints(5), "--seed": SEEDS,
         "--threshold": THRESHOLDS, "--out": OUT_DIRS},
    ),
    "manipulate": (
        {},
        {"--model": MODELS, "--scale": SCALES, "--out": OUT_FILES},
    ),
    "metrics": (
        {},
        {"--gt": SAMPLE_DIRS, "--pred": SAMPLE_DIRS, "--out": OUT_FILES},
    ),
    "gradcheck": ({"--trials": _ints(2)}, {"--seed": SEEDS}),
}

# Bytes overwritten at (position, value).
MUTATIONS = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=3
)


@st.composite
def model_files(draw):
    """SSNT bytes of a 21-pixel toy model or a small multi-class one, with
    ordinary or overflowing parameters."""
    pixels, classes = draw(st.sampled_from([(21, 1), (21, 1), (4, 3), (3, 2)]))
    rank = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([0.0, 0.5, 0.5, 2.0, 2.0, 1e154, 1e200]))
    rng = PortableRng(draw(st.integers(0, 2**32)))
    dim = pixels * classes
    model = LowRankGaussian(
        rng.standard_normal(dim), scale * rng.standard_normal((dim, rank)),
        rng.standard_normal(dim), pixels, classes, rank,
    )
    with tempfile.TemporaryDirectory() as tmp:
        formats.save_distribution(Path(tmp) / "model.ssnt", model)
        return (Path(tmp) / "model.ssnt").read_bytes()


@st.composite
def label_files(draw, pixels, classes, declared):
    """A JSON label map declaring ``declared`` classes, or for one class
    sometimes a binary PGM."""
    labels = draw(st.lists(
        st.integers(0, max(classes, 2) - 1), min_size=pixels, max_size=pixels))
    if classes == 1 and draw(st.booleans()):
        return "pgm", b"P5\n%d 1\n255\n" % pixels + bytes(255 * v for v in labels)
    document = {"shape": [pixels], "num_classes": declared, "labels": labels}
    return "json", json.dumps(document).encode()


@st.composite
def cli_cases(draw):
    """An argv with ("tmp", name) paths, and the files it may read by name,
    at most one of them with a few bytes overwritten."""
    command = draw(st.sampled_from([*COMMANDS] * 3 + [None, "junk"]))
    argv = []
    if command == "junk":
        argv.append(draw(ARG_TEXT))
    elif command is not None:
        argv.append(command)
        always, optional = COMMANDS[command]
        flags = [(flag, draw(values)) for flag, values in always.items()]
        flags += [
            (flag, draw(values)) for flag, values in optional.items()
            if draw(st.integers(0, 9))
        ]
        for flag, value in draw(st.permutations(flags)):
            if isinstance(value, str) and draw(st.booleans()):
                argv.append(f"{flag}={value}")
            else:
                argv += [flag, value]
    if not draw(st.integers(0, 9)):  # a stray token
        argv.insert(draw(st.integers(0, len(argv))), draw(ARG_TEXT))
    files = {"model.ssnt": draw(model_files())}
    pixels, classes = draw(st.sampled_from([(21, 1), (4, 3), (3, 1)]))
    # At times far more classes than the labels use, up to past int64 labels.
    declared = draw(st.sampled_from([classes] * 4 + [10**5, 2**32, 2**64, 1e30]))
    for directory in ("gt", "pred"):
        for index in range(draw(st.integers(1, 3))):
            suffix, data = draw(label_files(pixels, classes, declared))
            files[f"{directory}/m{index}.{suffix}"] = data
    corrupt = draw(st.sampled_from([None, None, *files]))
    if corrupt is not None:
        raw = bytearray(files[corrupt])
        for position, value in draw(MUTATIONS):
            raw[position % len(raw)] = value
        files[corrupt] = bytes(raw)
    return argv, files


def _tree(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


@settings(max_examples=300, deadline=None)
@given(case=cli_cases())
def test_cli_fuzz_exits_through_main(case):
    """Whatever the argv and files, the CLI exits 0, 2, 3, 4 or 5; a failure
    prints one error line and no warning, and leaves nothing behind."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for directory in ("dir", "gt", "pred"):
            (root / directory).mkdir()
        (root / "file").write_text("not a directory\n")
        for name, data in files.items():
            (root / name).write_bytes(data)
        argv = [
            str(root / item[1]) if isinstance(item, tuple) else item for item in argv
        ]
        before = _tree(root)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # a default --out is written in the example's directory
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
        except SystemExit as exit_:  # --help or an abbreviation of it
            assert exit_.code == 0 and out.getvalue().startswith("usage:")
            code = 0
        finally:
            os.chdir(cwd)
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2, 3, 4, 5)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "usage:" not in lines[0]
            assert "invalid _" not in lines[0]  # a flag type's private name
            assert _tree(root) == before
