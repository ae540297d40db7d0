import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssn_lab import DivergenceError, LabelMap, LowRankGaussian, PortableRng, formats
from ssn_lab.cli import main

REFERENCE_TRACE = (
    Path(__file__).resolve().parents[1] / "bench" / "reference" / "toy_loss_seed1.csv"
)

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

    def test_rank_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["toy-train", "--rank", "0", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

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


class TestRankSweepCommand:
    def test_small_grid_writes_sweep_and_summary(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["rank-sweep", "--ranks", "1,2", "--seeds", "1", "--out", str(out),
             "--pretrain-iters", "200", "--iters", "200", "--mc-samples", "30"]
        )
        assert code == 0
        sweep_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert sweep_lines[0].startswith("rank,seed,nll")
        assert len(sweep_lines) == 3
        assert [line.split(",")[0] for line in sweep_lines[1:]] == ["1", "2"]
        summary_lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(summary_lines) == 3

    def test_non_finite_learning_rate_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["rank-sweep", "--lr", "nan", "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_bad_ranks_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["rank-sweep", "--ranks", "1,0", "--out", str(tmp_path)])
        assert excinfo.value.code == 2


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        code = main(["gradcheck", "--trials", "10", "--seed", "1"])
        assert code == 0
        assert "max relative error" in capsys.readouterr().out


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ssn_lab.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "toy-train" in result.stdout
