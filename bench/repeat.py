"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/repeat.py --workloads toy-eval,paper-eval --seeds 1-10

Runs ``bench/run.py`` one process at a time from the checkout root, then
prints, per workload and metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the interquartile spread as a
share of the median, next to the bound in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            ), flush=True)
        report[workload] = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            report[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": series,
            }
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f" bound {bound} " + ("ok" if spread < bound / 3 else "WIDE")
            )
            print(f"  {workload} {name}: median {median:.6g} "
                  f"iqr [{q1:.6g}, {q3:.6g}] spread {spread:.4f}{verdict}")
    out = Path("bench/out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
