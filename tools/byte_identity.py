"""Byte identity of two commits' outputs under one and two CPUs and one and
two BLAS threads.

Run from the root of a checkout:

    python3 tools/byte_identity.py --base 2e14b37 --head HEAD

Each side is a git revision, exported with ``git archive``, or a directory
holding a source tree. Every job runs in its own subprocess with that side's
``src`` on ``PYTHONPATH``, once per environment: ``taskset`` to CPU 0 or to
CPUs 0 and 1, crossed with ``OPENBLAS_NUM_THREADS`` 1 and 2. The jobs:

- ``toy-train --seed 1 --pretrain-iters 200 --iters 3000``;
- ``toy-eval`` of that model at ``--samples 3000 --lik-samples 3000 --seed 11``
  and at ``--samples 10000 --lik-samples 10000``;
- a short ``rank-sweep`` with ``--jobs 2``;
- ``sample`` twice, ``manipulate`` and ``metrics`` on the two sample sets;
- ``metrics`` on generated JSON label maps of 4 classes, and on maps that
  declare 300 classes (16-bit labels), some of them absent from every map;
- the paper-size digests of ``tests/test_likelihood.py``
  (``GOLDEN_PAPER_DIGESTS`` and ``GOLDEN_COLLAPSED_DIGESTS``), recomputed;
- a paper-size training trace: 600 SGD steps at learning rate 0.01 and 20
  samples on ``paper_size_case(2, seed, 0.3)`` of that side's
  ``tests/test_likelihood.py``, at seeds 1, 2 and 7, with one SHA-256 per
  seed over every step's loss, per-sample log-likelihoods and gradients.

Every output file and every job's stdout (with the run's directory masked)
gets one SHA-256. The script prints one line per artifact, the digest if all
runs agree and every digest otherwise, then a verdict; it exits 0 when every
artifact is identical across both sides and all environments.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ENVIRONMENTS = {
    f"cpus={cpus} blas={blas}": (["taskset", "-c", cpus], blas)
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


def jobs(work: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) per job, in dependency order; each writes under ``work``."""
    model = str(work / "train" / "model.ssnt")
    cli = [sys.executable, "-m", "ssn_lab.cli"]
    return [
        ("toy-train", [*cli, "toy-train", "--seed", "1", "--pretrain-iters", "200",
                       "--iters", "3000", "--out", str(work / "train")]),
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
        ("label-maps", [sys.executable, "-c", LABEL_MAPS, str(work)]),
        *((f"metrics-{classes}", [*cli, "metrics",
                                  "--gt", str(work / f"maps{classes}-gt"),
                                  "--pred", str(work / f"maps{classes}-pred"),
                                  "--out", str(work / f"metrics-{classes}.json")])
          for classes in (4, 300)),
        ("digests", [sys.executable, "-c", DIGESTS]),
        ("paper-trace", [sys.executable, "-c", TRACE]),
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


def run_side(root: Path, work: Path, prefix: list[str], blas: str) -> dict[str, str]:
    """SHA-256 per artifact of one side in one environment."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": blas}
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
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as temp:
        temp = Path(temp)
        roots = {side: export(rev, temp / side / "tree")
                 for side, rev in (("base", args.base), ("head", args.head))}
        for label, (prefix, blas) in ENVIRONMENTS.items():
            for side, root in roots.items():
                work = temp / side / label.replace(" ", "_").replace("=", "-")
                runs[f"{side} {label}"] = run_side(root, work, prefix, blas)
                print(f"ran {side} {label}", file=sys.stderr)
    artifacts = sorted(set().union(*runs.values()))
    differ = 0
    for artifact in artifacts:
        seen = {run.get(artifact, "missing") for run in runs.values()}
        if len(seen) == 1:
            print(f"{artifact} {seen.pop()}")
            continue
        differ += 1
        print(f"{artifact} DIFFERS")
        for label, run in runs.items():
            print(f"  {label}: {run.get(artifact, 'missing')}")
    verdict = "identical" if not differ else f"{differ} artifacts differ"
    print(f"verdict: {verdict} ({len(artifacts)} artifacts, {len(runs)} runs)")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
