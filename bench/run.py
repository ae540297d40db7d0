"""Benchmark of ssn-lab: toy and paper-size training and evaluation.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-train --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: a single caller issues each
op after the previous one returns. BLAS threads are pinned to 1. The
workloads, their inputs and their output checks are in ``workloads.py``.

``--trace 0`` times the ops untraced and prints the end-to-end metrics:

- ``setup_s``: import time plus the median of three set-ups, each of which
  generates the inputs from the seed and runs one untimed warm-up op;
- ``ops_per_s``: ops completed per second of summed op time (on toy-train an
  op is one training iteration, counted from ``loss.csv``);
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

Lines before the result also give ``op_ms_p50``, ``op_ms_tail`` (the highest
percentile with at least ten ops beyond it), ``failed_ratio`` and, on
toy-train, ``nll_per_map``, plus the environment. They stay out of the
result line: with one caller, the median latency says what ``ops_per_s``
says but swings more with the host's speed, the tail rests on few ops,
``failed_ratio`` is 0 on working code (the result carries ``attempted`` and
``failed``), and ``nll_per_map`` exists on one workload only and is gated by
the op check's acceptance band.

``--trace 1`` runs half the time untraced and half traced, replays where
needed, measures allocation under tracemalloc, and prints the per-layer
metrics of ``tracing.py``; spans go to ``bench/out/spans``.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every run also writes its result and environment to ``bench/out/results``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("toy-train", "toy-eval", "paper-train", "paper-eval")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Call:
    seconds: float
    ops: int
    error: str | None
    nll_per_map: float | None


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_loop(workload, inputs, seconds: float, tracer, first: int) -> list[Call]:
    """Issue ops one after another until the next would overrun ``seconds``."""
    calls = []
    started = time.perf_counter()
    index = first
    while True:
        began = time.perf_counter()
        try:
            with tracer.op_span(index):
                result = workload.op(inputs, index, tracer)
            took = time.perf_counter() - began
            with tracer.pause():
                outcome = workload.check(inputs, result)
            call = Call(took, outcome.ops, outcome.error, outcome.nll_per_map)
        except Exception:  # an op that raises is a failed op; keep measuring
            took = time.perf_counter() - began
            error = traceback.format_exc(limit=3)
            call = Call(took, workload.ops_per_call, error, None)
        if call.error:
            print(f"op {index} failed: {call.error}", file=sys.stderr)
        calls.append(call)
        index += 1
        if time.perf_counter() - started + took > seconds:
            return calls


def rate(calls: list[Call]) -> float:
    return sum(c.ops for c in calls) / sum(c.seconds for c in calls)


def tail(latencies_ms: list[float]):
    """Highest whole percentile with at least TAIL_BEYOND ops above it, at
    least the median."""
    n = len(latencies_ms)
    percentile = max(50, 100 * (n - TAIL_BEYOND) // n)
    rank = max(1, -(-percentile * n // 100))
    return sorted(latencies_ms)[rank - 1], percentile, n


def end_to_end(workload, calls: list[Call], setup_s: float) -> tuple[dict, list[str]]:
    per_op_ms = [1e3 * c.seconds / c.ops for c in calls]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate(calls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = sum(c.ops for c in calls)
    failed = sum(c.ops for c in calls if c.error)
    lines = [f"op_ms_p50 {statistics.median(per_op_ms):.6g} ms"]
    if workload.ops_per_call == 1:
        value, percentile, n = tail(per_op_ms)
        lines.append(f"op_ms_tail {value:.6g} ms (p{percentile} of {n} ops)")
    else:
        lines.append("op_ms_tail n/a (each timed call is a whole training run)")
    lines.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    nlls = [c.nll_per_map for c in calls if c.nll_per_map is not None]
    if nlls:
        lines.append(f"nll_per_map {statistics.median(nlls):.6g} nats (median of {len(nlls)} runs)")
    return metrics, lines


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "git_commit": _git_commit(root),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (-1, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ssn_lab" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/ssn_lab", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))

    import ssn_lab

    if Path(ssn_lab.__file__).resolve().parent != (root / "src" / "ssn_lab").resolve():
        print(f"error: imported ssn_lab from {ssn_lab.__file__}", file=sys.stderr)
        return 2
    import tracing
    from workloads import EXCLUDED, WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = root / "bench" / "out"
    work = out / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            inputs = workload.setup(args.seed, work)
            setups.append(time.perf_counter() - began)
        setup_s = import_s + statistics.median(setups)

        extra_lines = []
        if args.trace:
            half = args.seconds / 2
            plain = timed_loop(workload, inputs, half, tracing.NULL_TRACER, 0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_loop(workload, inputs, half, tracer, len(plain))
                if workload.replay is not None:
                    workload.replay(inputs, tracer)
                alloc_op = workload.alloc_op or (lambda inp, tr: workload.op(inp, -2, tr))
                tracer.measure_alloc(lambda: alloc_op(inputs, tracer))
            finally:
                tracer.uninstall()
            calls = plain + traced
            layer = tracing.layer_metrics(
                tracer, rate(plain) / rate(traced), inputs.get("golden_rel_dev", 0.0)
            )
            metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
            spans_dir = out / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            calls = timed_loop(workload, inputs, args.seconds, tracing.NULL_TRACER, 0)
            metrics, extra_lines = end_to_end(workload, calls, setup_s)

        run_error = workload.run_check(inputs) if workload.run_check else None
        if run_error:
            print(f"run check failed: {run_error}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.ops for c in calls)
    failed = sum(c.ops for c in calls if c.error)
    env = environment(root)
    result = {
        "correct": failed == 0 and run_error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, calls=len(calls), lines=extra_lines,
                  environment=env, why=workload.why, excluded=EXCLUDED)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload}: {workload.why}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in extra_lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
