"""Acceptance gate: every numbered criterion as one test, each printing a
PASS line with its measured values (run with ``pytest -s`` to see them).

The five fixed seeds are 1..5. Training always uses the protocol defaults:
200 Monte-Carlo samples, 10000 joint iterations, 2000 pre-training
iterations, through the actual command-line surface.
"""

import json
import time

import numpy as np
import pytest

from ssn_lab import (
    DeviationScale,
    LabelMap,
    LowRankGaussian,
    Patch,
    PatchedParams,
    PortableRng,
    SampleSet,
    TrainConfig,
    apply_deviation_scale,
    dsc,
    evaluate_toy,
    ged_squared,
    gradient_check_suite,
    iou_distance,
    make_toy_dataset,
    rank_sweep,
    softplus_inv,
    ssn_mc_loss,
    stitch,
)
from ssn_lab import formats
from ssn_lab.cli import main
from conftest import random_instance

SEEDS = (1, 2, 3, 4, 5)
LN2 = float(np.log(2.0))
SWEEP_RANKS = [1, 2, 5, 10, 15, 20]


def _train_via_cli(tmp_path_factory, mode):
    runs = {}
    for seed in SEEDS:
        out = tmp_path_factory.mktemp(f"acc-{mode}-{seed}")
        started = time.perf_counter()
        code = main(
            ["toy-train", "--mode", mode, "--rank", "2", "--seed", str(seed),
             "--out", str(out)]
        )
        elapsed = time.perf_counter() - started
        assert code == 0, f"toy-train exited {code} for {mode} seed {seed}"
        report = json.loads((out / "report.json").read_text())
        runs[seed] = {
            "nll": report["final_nll_per_map"],
            "stop_reason": report["stop_reason"],
            "model": formats.load_distribution(out / "model.ssnt"),
            "seconds": elapsed,
        }
    return runs


@pytest.fixture(scope="session")
def lowrank_runs(tmp_path_factory):
    return _train_via_cli(tmp_path_factory, "lowrank")


@pytest.fixture(scope="session")
def diagonal_runs(tmp_path_factory):
    return _train_via_cli(tmp_path_factory, "diagonal")


@pytest.fixture(scope="session")
def lowrank_evals(lowrank_runs):
    return {
        seed: evaluate_toy(run["model"], n_samples=10_000, seed=seed)
        for seed, run in lowrank_runs.items()
    }


@pytest.fixture(scope="session")
def diagonal_evals(diagonal_runs):
    return {
        seed: evaluate_toy(run["model"], n_samples=10_000, seed=seed)
        for seed, run in diagonal_runs.items()
    }


def test_criterion_01_lowrank_nll(lowrank_runs):
    """Low-rank rank-2 NLL per map <= 1.3 nats on >= 4/5 seeds, never below
    the ln 2 mixture floor beyond estimator noise, <= 2 minutes per run."""
    nlls = {seed: run["nll"] for seed, run in lowrank_runs.items()}
    in_band = [seed for seed, nll in nlls.items() if nll <= 1.3]
    assert len(in_band) >= 4, f"NLLs {nlls}"
    for seed, nll in nlls.items():
        assert nll >= LN2 - 0.02, f"seed {seed} NLL {nll} below the ln 2 floor"
    for seed, run in lowrank_runs.items():
        assert run["seconds"] <= 120.0, f"seed {seed} took {run['seconds']:.0f}s"
    print(
        f"\nACCEPTANCE 1 lowrank NLL: PASS "
        f"({len(in_band)}/5 within 1.3; values "
        + ", ".join(f"{nlls[s]:.3f}" for s in SEEDS)
        + ")"
    )


def test_criterion_02_diagonal_nll(diagonal_runs):
    """Diagonal NLL per map in [4.3, 5.6] nats on >= 4/5 seeds."""
    nlls = {seed: run["nll"] for seed, run in diagonal_runs.items()}
    in_band = [seed for seed, nll in nlls.items() if 4.3 <= nll <= 5.6]
    assert len(in_band) >= 4, f"NLLs {nlls}"
    print(
        f"\nACCEPTANCE 2 diagonal NLL: PASS "
        f"({len(in_band)}/5 within [4.3, 5.6]; values "
        + ", ".join(f"{nlls[s]:.3f}" for s in SEEDS)
        + ")"
    )


def test_lowrank_dominates_diagonal(lowrank_runs, diagonal_runs):
    """Median low-rank NLL beats the median diagonal NLL by > 2.5 nats."""
    low = float(np.median([run["nll"] for run in lowrank_runs.values()]))
    diag = float(np.median([run["nll"] for run in diagonal_runs.values()]))
    assert low < diag - 2.5, f"median lowrank {low} vs diagonal {diag}"


def test_criterion_03_sample_fidelity(lowrank_runs):
    """>= 95% of 1000 thresholded samples equal one of the two maps, each
    map's frequency in [45%, 55%], on >= 4/5 seeds."""
    data = make_toy_dataset()
    passes = {}
    for seed, run in lowrank_runs.items():
        samples, _ = run["model"].sample(1000, seed=seed + 4000)
        thresholded = (samples > 0.0).astype(np.int64)
        first = np.all(thresholded == data.maps[0].labels[None, :], axis=1).mean()
        second = np.all(thresholded == data.maps[1].labels[None, :], axis=1).mean()
        passes[seed] = (
            first + second >= 0.95 and 0.45 <= first <= 0.55 and 0.45 <= second <= 0.55
        )
    assert sum(passes.values()) >= 4, f"fidelity per seed: {passes}"
    print(
        f"\nACCEPTANCE 3 sample fidelity: PASS ({sum(passes.values())}/5 seeds)"
    )


def test_criterion_04_diversity_and_ged(lowrank_evals, diagonal_evals):
    """Low-rank diversity in [0.22, 0.28] and GED^2 <= 0.05 over 10^4
    samples; diagonal diversity <= 0.02; each on >= 4/5 seeds."""
    low_ok = {
        seed: 0.22 <= ev.diversity <= 0.28 and ev.ged_squared <= 0.05
        for seed, ev in lowrank_evals.items()
    }
    diag_ok = {seed: ev.diversity <= 0.02 for seed, ev in diagonal_evals.items()}
    assert sum(low_ok.values()) >= 4, {
        s: (e.diversity, e.ged_squared) for s, e in lowrank_evals.items()
    }
    assert sum(diag_ok.values()) >= 4, {
        s: e.diversity for s, e in diagonal_evals.items()
    }
    print(
        f"\nACCEPTANCE 4 diversity/GED: PASS (lowrank {sum(low_ok.values())}/5, "
        f"diagonal {sum(diag_ok.values())}/5)"
    )


def test_criterion_05_density_oracle():
    """log_prob matches the dense Cholesky oracle within 1e-6 relative on
    100 random instances with dim <= 64 and rank <= 8."""
    worst = 0.0
    rng = PortableRng(2024)
    for trial in range(100):
        dist = random_instance(trial, max_dim=64, max_rank=8)
        x = dist.mean + np.asarray(rng.standard_normal(dist.dim))
        efficient = dist.log_prob(x)
        dense = dist.dense_log_prob(x)
        rel = abs(efficient - dense) / max(abs(dense), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"
    print(f"\nACCEPTANCE 5 density oracle: PASS (worst rel err {worst:.2e})")


def test_criterion_06_gradient_oracle(capsys):
    """Analytic gradients match central finite differences within 1e-4
    relative (1e-7 floor) on 50 random instances; the CLI check exits 0."""
    result = gradient_check_suite(trials=50, seed=1)
    assert result.failures == 0
    assert result.max_rel_error < 1e-4
    assert main(["gradcheck", "--trials", "50", "--seed", "1"]) == 0
    capsys.readouterr()
    print(
        f"\nACCEPTANCE 6 gradient oracle: PASS "
        f"(max rel err {result.max_rel_error:.2e} over 50 trials)"
    )


def test_criterion_07_metric_golden_values():
    """Hand-enumerated metric examples reproduce to 1e-12; identical
    multisets have exactly zero distance."""
    data = make_toy_dataset()
    assert abs(iou_distance(data.maps[0], data.maps[1]) - 0.5) <= 1e-12

    empty = LabelMap(labels=np.zeros(21, dtype=np.int64), num_classes=1)
    assert iou_distance(empty, empty) == 0.0

    first = LabelMap(labels=np.array([1, 1, 0, 0]), num_classes=1)
    second = LabelMap(labels=np.array([0, 0, 1, 1]), num_classes=1)
    report = ged_squared(
        SampleSet(samples=[first, second]),
        SampleSet(samples=[first]),
    )
    assert abs(report.ged_squared - 0.5) <= 1e-12

    maps = [data.maps[0], data.maps[1], data.maps[0]]
    identical = ged_squared(
        SampleSet(samples=maps),
        SampleSet(samples=list(reversed(maps))),
    )
    assert identical.ged_squared == 0.0

    pred = LabelMap(labels=np.array([1] * 7 + [0] * 14), num_classes=1)
    gt = LabelMap(labels=np.array([1] * 14 + [0] * 7), num_classes=1)
    assert abs(dsc(pred, gt, 1) - 2.0 / 3.0) <= 1e-12
    assert dsc(empty, empty, 1) is None
    print("\nACCEPTANCE 7 metric goldens: PASS")


def test_criterion_08_stitching(lowrank_runs):
    """A trained model split into two patches stitches back to the same
    per-map NLL within 1e-6; a shared factor column correlates patches."""
    model = lowrank_runs[1]["model"]
    params = PatchedParams(
        patches=[
            Patch(
                offset=(0,),
                shape=(10,),
                mean=model.mean[:10],
                factor=model.factor[:10],
                diag_raw=model.diag_raw[:10],
            ),
            Patch(
                offset=(10,),
                shape=(11,),
                mean=model.mean[10:],
                factor=model.factor[10:],
                diag_raw=model.diag_raw[10:],
            ),
        ],
        full_shape=(21,),
        num_classes=1,
        rank=model.rank,
    )
    stitched = stitch(params)
    data = make_toy_dataset()
    for k, label_map in enumerate(data.maps):
        original = ssn_mc_loss(model, label_map, 2000, rng_seed=90 + k).value
        rebuilt = ssn_mc_loss(stitched, label_map, 2000, rng_seed=90 + k).value
        assert abs(original - rebuilt) <= 1e-6

    shared = stitch(
        PatchedParams(
            patches=[
                Patch(
                    offset=(0,),
                    shape=(5,),
                    mean=np.zeros(5),
                    factor=np.ones((5, 1)),
                    diag_raw=np.full(5, -40.0),
                ),
                Patch(
                    offset=(5,),
                    shape=(5,),
                    mean=np.zeros(5),
                    factor=np.ones((5, 1)),
                    diag_raw=np.full(5, -40.0),
                ),
            ],
            full_shape=(10,),
            num_classes=1,
            rank=1,
        )
    )
    samples, _ = shared.sample(4000, seed=17)
    corr = np.corrcoef(samples[:, 1], samples[:, 8])[0, 1]
    assert corr >= 0.99
    print("\nACCEPTANCE 8 stitching: PASS")


def test_criterion_09_manipulation_laws(lowrank_runs):
    """Identity scaling is bit-preserving; temperature 0 collapses samples
    onto the mean; covariance scales with T^2 to 1e-12; composition holds."""
    model = lowrank_runs[2]["model"]
    identity = apply_deviation_scale(model, DeviationScale(per_class=np.ones(1)))
    assert np.array_equal(identity.mean, model.mean)
    assert np.array_equal(identity.factor, model.factor)
    assert np.array_equal(identity.diag_raw, model.diag_raw)

    cold = apply_deviation_scale(
        model, DeviationScale(per_class=np.ones(1), global_temperature=0.0)
    )
    samples, _ = cold.sample(500, seed=3)
    assert np.abs(samples - model.mean[None, :]).max() <= 0.02

    rng = PortableRng(77)
    comfy = LowRankGaussian(
        mean=rng.standard_normal(8),
        factor=rng.standard_normal((8, 2)),
        diag_raw=np.asarray(softplus_inv(1.0 + rng.uniform_open(8))),
        num_pixels=4,
        num_classes=2,
        rank=2,
    )
    temperature = 1.7
    heated = apply_deviation_scale(
        comfy,
        DeviationScale(per_class=np.ones(2), global_temperature=temperature),
    )
    assert np.allclose(
        heated.dense_covariance(),
        temperature**2 * comfy.dense_covariance(),
        atol=1e-12,
    )

    first = DeviationScale(per_class=np.array([1.2, 0.7]), global_temperature=1.1)
    second = DeviationScale(per_class=np.array([0.8, 1.5]), global_temperature=0.9)
    combined = DeviationScale(
        per_class=first.per_class * second.per_class,
        global_temperature=first.global_temperature * second.global_temperature,
    )
    chained = apply_deviation_scale(apply_deviation_scale(comfy, first), second)
    direct = apply_deviation_scale(comfy, combined)
    assert np.allclose(
        chained.dense_covariance(), direct.dense_covariance(), atol=1e-12
    )
    print("\nACCEPTANCE 9 manipulation laws: PASS")


def test_criterion_10_rank_sweep():
    """6 ranks x 5 seeds completes with every rank reaching the criterion-1
    NLL band on >= 4/5 seeds, within the runtime budget."""
    started = time.perf_counter()
    rows = rank_sweep(SWEEP_RANKS, list(SEEDS), TrainConfig(), jobs=1)
    elapsed = time.perf_counter() - started
    assert len(rows) == 30
    failures = [row for row in rows if row["status"] != "ok"]
    assert not failures, f"failed cells: {failures}"
    for rank in SWEEP_RANKS:
        in_band = [
            row for row in rows if row["rank"] == rank and row["nll"] <= 1.3
        ]
        assert len(in_band) >= 4, (
            f"rank {rank}: "
            f"{[round(r['nll'], 3) for r in rows if r['rank'] == rank]}"
        )
    assert elapsed <= 5400.0, f"sweep took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 10 rank sweep: PASS (30 runs in {elapsed:.0f}s; "
        "all ranks within band on >= 4/5 seeds)"
    )
