"""Byte identity of two commits' outputs under one and two CPUs, one and two
BLAS threads, and two numpy SIMD dispatch levels.

Run from the root of a checkout:

    python3 tools/byte_identity.py --base 2e14b37 --head HEAD

Each side is a git revision, exported with ``git archive``, or a directory
holding a source tree. Every job runs in its own subprocess with that side's
``src`` on ``PYTHONPATH``, once per environment: ``taskset`` to CPU 0 or to
CPUs 0 and 1, crossed with ``OPENBLAS_NUM_THREADS`` 1 and 2, crossed with
numpy's dispatch level. At the ``default`` level numpy picks its kernels for
the host's CPU; at ``avx2`` the child's ``NPY_DISABLE_CPU_FEATURES`` turns
off numpy's AVX-512 kernels (``AVX512_SPR AVX512_ICL X86_V4``), as on a host
without AVX-512. The variable is set in the child processes only. numpy's
``exp``, ``log``, ``log1p`` and ``expm1`` give other bits at the two levels,
so outputs are compared within a level. The jobs:

- ``toy-train --seed 1 --pretrain-iters 200 --iters 3000``, and the same
  run in ``--mode diagonal`` at ``--iters 800``;
- ``toy-eval`` of that model at ``--samples 3000 --lik-samples 3000 --seed 11``
  and at ``--samples 10000 --lik-samples 10000``;
- a short ``rank-sweep`` with ``--jobs 2``;
- ``sample`` twice, ``manipulate`` and ``metrics`` on the two sample sets;
- a generated 3-class ``PatchedParams`` of four patches, stitched and saved
  as SSNT, then ``sample``d;
- ``metrics`` on generated JSON label maps of 4 classes, and on maps that
  declare 300 classes (16-bit labels), some of them absent from every map;
- the paper-size digests of ``tests/test_likelihood.py``
  (``GOLDEN_PAPER_DIGESTS`` and ``GOLDEN_COLLAPSED_DIGESTS``), recomputed;
- a paper-size training trace: 600 SGD steps at learning rate 0.01 and 20
  samples on ``paper_size_case(2, seed, 0.3)`` of that side's
  ``tests/test_likelihood.py``, at seeds 1, 2 and 7, with one SHA-256 per
  seed over every step's loss, per-sample log-likelihoods and gradients;
- ``gradcheck --trials 50 --seed 1``.

Every output file and every job's stdout (with the run's directory masked)
gets one SHA-256. The script prints one line per artifact: the digest if all
runs agree, one digest per level if the runs agree within each level, and
every digest otherwise. Then it prints a verdict; it exits 0 when every
artifact is identical across both sides and all environments of a level.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# numpy's dispatch level: the value of NPY_DISABLE_CPU_FEATURES, if any.
LEVELS = {"default": None, "avx2": "AVX512_SPR AVX512_ICL X86_V4"}
ENVIRONMENTS = {
    f"simd={level} cpus={cpus} blas={blas}": (level, ["taskset", "-c", cpus], blas)
    for level in LEVELS
    for cpus in ("0", "0,1")
    for blas in ("1", "2")
}

DIGESTS = """
import hashlib, sys
sys.path.insert(0, "tests")
import test_likelihood as t
for key in sorted(t.GOLDEN_PAPER_DIGESTS):
    digests, zeros = t.paper_size_digests(*t.paper_size_case(*key), key[1])
    print(key, sorted(digests.items()), zeros)
for key in sorted(t.GOLDEN_COLLAPSED_DIGESTS):
    digests, zeros = t.paper_size_digests(*t.paper_size_case(*key), key[1])
    print(key, sorted(digests.items()), zeros)
"""


TRACE = """
import hashlib, sys
import numpy as np
sys.path.insert(0, "tests")
import test_likelihood as t
from ssn_lab import LowRankGaussian, grad_ssn_mc_loss, mix_seed, ssn_mc_loss
for seed in (1, 2, 7):
    dist, labels = t.paper_size_case(2, seed, 0.3)
    digest = hashlib.sha256()
    for step in range(600):
        loss = ssn_mc_loss(dist, labels, 20, rng_seed=mix_seed(seed, step))
        grads = grad_ssn_mc_loss(dist, labels, loss.noise)
        for array in (np.float64(loss.value), loss.per_sample_loglik, *grads):
            digest.update(np.ascontiguousarray(array).tobytes())
        dist = LowRankGaussian(
            dist.mean - 0.01 * grads.mean, dist.factor - 0.01 * grads.factor,
            dist.diag_raw - 0.01 * grads.diag_raw,
            dist.num_pixels, dist.num_classes, dist.rank,
        )
    print(seed, digest.hexdigest())
"""


# Ground truth and predictions of 48 pixels, each map drawing from six of the
# declared classes; half the predictions repeat one of four maps.
LABEL_MAPS = """
import json, sys
from pathlib import Path
import numpy as np
rng = np.random.default_rng(24)
for classes in (4, 300):
    repeated = [rng.integers(0, classes, 6)[rng.integers(0, 6, 48)] for _ in range(4)]
    for name, count in (("gt", 5), ("pred", 12)):
        directory = Path(sys.argv[1]) / f"maps{classes}-{name}"
        directory.mkdir()
        for index in range(count):
            labels = rng.integers(0, classes, 6)[rng.integers(0, 6, 48)]
            if name == "pred" and index % 2:
                labels = repeated[rng.integers(0, 4)]
            document = {"shape": [6, 8], "num_classes": classes,
                        "labels": labels.tolist()}
            (directory / f"m{index:02d}.json").write_text(json.dumps(document))
"""


# A 5x7 image of three classes at rank 2, tiled by four patches of unequal
# extents, stitched and saved as SSNT.
STITCH = """
import sys
from pathlib import Path
import numpy as np
from ssn_lab import Patch, PatchedParams, formats, stitch
rng = np.random.default_rng(25)
classes, rank, patches = 3, 2, []
for top, height in ((0, 3), (3, 2)):
    for left, width in ((0, 4), (4, 3)):
        elements = height * width * classes
        patches.append(Patch(
            offset=(top, left), shape=(height, width),
            mean=rng.standard_normal(elements),
            factor=rng.standard_normal((elements, rank)),
            diag_raw=rng.standard_normal(elements),
        ))
model = stitch(PatchedParams(patches, (5, 7), classes, rank))
formats.save_distribution(Path(sys.argv[1]) / "stitched.ssnt", model)
"""


def jobs(work: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) per job, in dependency order; each writes under ``work``."""
    model = str(work / "train" / "model.ssnt")
    cli = [sys.executable, "-m", "ssn_lab.cli"]
    return [
        ("toy-train", [*cli, "toy-train", "--seed", "1", "--pretrain-iters", "200",
                       "--iters", "3000", "--out", str(work / "train")]),
        ("toy-train-diagonal", [*cli, "toy-train", "--mode", "diagonal", "--seed", "1",
                                "--pretrain-iters", "200", "--iters", "800",
                                "--out", str(work / "train-diagonal")]),
        ("toy-eval-golden", [*cli, "toy-eval", "--model", model, "--samples", "3000",
                             "--lik-samples", "3000", "--seed", "11",
                             "--out", str(work / "eval-golden")]),
        ("toy-eval-10k", [*cli, "toy-eval", "--model", model, "--samples", "10000",
                          "--lik-samples", "10000", "--out", str(work / "eval-10k")]),
        ("rank-sweep", [*cli, "rank-sweep", "--ranks", "1,2", "--seeds", "2",
                        "--pretrain-iters", "100", "--iters", "300",
                        "--mc-samples", "50", "--jobs", "2",
                        "--out", str(work / "sweep")]),
        ("sample-a", [*cli, "sample", "--model", model, "--n", "8", "--seed", "3",
                      "--out", str(work / "samples-a")]),
        ("sample-b", [*cli, "sample", "--model", model, "--n", "8", "--seed", "4",
                      "--out", str(work / "samples-b")]),
        ("manipulate", [*cli, "manipulate", "--model", model, "--scale",
                        '{"per_class":[1.5],"temperature":0.8}',
                        "--out", str(work / "scaled.ssnt")]),
        ("metrics", [*cli, "metrics", "--gt", str(work / "samples-a"),
                     "--pred", str(work / "samples-b"),
                     "--out", str(work / "metrics.json")]),
        ("stitch", [sys.executable, "-c", STITCH, str(work)]),
        ("sample-stitched", [*cli, "sample", "--model", str(work / "stitched.ssnt"),
                             "--n", "6", "--seed", "5",
                             "--out", str(work / "samples-stitched")]),
        ("label-maps", [sys.executable, "-c", LABEL_MAPS, str(work)]),
        *((f"metrics-{classes}", [*cli, "metrics",
                                  "--gt", str(work / f"maps{classes}-gt"),
                                  "--pred", str(work / f"maps{classes}-pred"),
                                  "--out", str(work / f"metrics-{classes}.json")])
          for classes in (4, 300)),
        ("digests", [sys.executable, "-c", DIGESTS]),
        ("paper-trace", [sys.executable, "-c", TRACE]),
        ("gradcheck", [*cli, "gradcheck", "--trials", "50", "--seed", "1"]),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export(side: str, into: Path) -> Path:
    """The source tree of ``side``: a directory as it is, or a git revision
    exported into ``into``."""
    if Path(side).is_dir():
        return Path(side).resolve()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", side], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_side(root: Path, work: Path, level: str, prefix: list[str],
             blas: str) -> dict[str, str]:
    """SHA-256 per artifact of one side in one environment."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": blas}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if LEVELS[level] is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = LEVELS[level]
    work.mkdir(parents=True)
    digests = {}
    for name, argv in jobs(work):
        done = subprocess.run([*prefix, *argv], cwd=root, env=env,
                              capture_output=True, timeout=600)
        if done.returncode != 0:
            raise SystemExit(f"{name} failed in {root}:\n{done.stderr.decode()}")
        digests[f"{name}:stdout"] = sha256(done.stdout.replace(bytes(work), b"<work>"))
        if done.stderr:
            masked = done.stderr.replace(bytes(work), b"<work>")
            digests[f"{name}:stderr"] = sha256(masked)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digests[str(path.relative_to(work))] = sha256(path.read_bytes())
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision or directory")
    parser.add_argument("--head", default="HEAD", help="git revision or directory")
    args = parser.parse_args(argv)
    runs: dict[str, dict[str, str]] = {}
    levels: dict[str, str] = {}  # run label -> its dispatch level
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as temp:
        temp = Path(temp)
        roots = {side: export(rev, temp / side / "tree")
                 for side, rev in (("base", args.base), ("head", args.head))}
        for label, (level, prefix, blas) in ENVIRONMENTS.items():
            for side, root in roots.items():
                work = temp / side / label.replace(" ", "_").replace("=", "-")
                runs[f"{side} {label}"] = run_side(root, work, level, prefix, blas)
                levels[f"{side} {label}"] = level
                print(f"ran {side} {label}", file=sys.stderr)
    artifacts = sorted(set().union(*runs.values()))
    differ = split = 0
    for artifact in artifacts:
        by_level = {level: {run.get(artifact, "missing") for label, run in runs.items()
                            if levels[label] == level} for level in LEVELS}
        if any(len(seen) > 1 for seen in by_level.values()):
            differ += 1
            print(f"{artifact} DIFFERS")
            for label, run in runs.items():
                print(f"  {label}: {run.get(artifact, 'missing')}")
        elif len(set().union(*by_level.values())) == 1:
            print(f"{artifact} {by_level['default'].pop()}")
        else:
            split += 1
            print(f"{artifact} per level: " + " ".join(
                f"{level}={seen.pop()}" for level, seen in by_level.items()))
    verdict = "identical" if not differ else f"{differ} artifacts differ"
    print(f"verdict: {verdict} ({len(artifacts)} artifacts, {len(runs)} runs; "
          f"{split} differ between dispatch levels)")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
