"""Spans around the package's public functions, and the per-layer metrics
derived from them.

The traced run wraps every public function of the package's layers, and
the methods in ``METHODS``, from this file and only for that run, so that
calls an op makes through other functions get spans too and each layer's
time is attributed to it. The package source is untouched. A span is
``[name, start, end, parent, op]``; spans stay in memory and are written out
when the run ends. A layer's self time is its spans' durations minus the
parts their child spans cover. A named function the package no longer has
reads 0, as do the metrics of layers a workload does not call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

_CLOCK = time.perf_counter

# Every public module-level function of these layers gets a span named
# "<layer>.<function>", wherever a package module imported it from.
LAYERS = ("rng", "lowrank", "likelihood", "metrics", "assembly", "toy", "formats")
# Methods get spans too: (span name, layer, class, method).
METHODS = (
    ("rng.uniform_open", "rng", "PortableRng", "uniform_open"),
    ("rng.standard_normal", "rng", "PortableRng", "standard_normal"),
    ("lowrank.construct", "lowrank", "LowRankGaussian", "__init__"),
    ("lowrank.sample", "lowrank", "LowRankGaussian", "sample"),
    ("metrics.sample_set", "metrics", "SampleSet", "__init__"),
)

# Layers whose peak allocation per call is taken under tracemalloc.
ALLOC_LAYERS = ("likelihood", "metrics")
# Sample sets whose rows are checked for duplicates, per traced run.
_DEDUP_SAMPLES = 4


class Tracer:
    """Collects spans and per-op counts for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)
        self.op = None
        self.paused = False
        self.alloc_peak_mb: dict[str, float] = {}
        self.dedup_sets: list = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._alloc_layer: str | None = None

    # spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _CLOCK(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = _CLOCK()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def op_span(self, op):
        """The span around one op; spans opened inside it carry its id."""
        self.op = op
        return _Span(self, "op", ends_op=True)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside run unwrapped, as output checks must."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op][name] += amount

    # instrumentation -------------------------------------------------------

    def install(self) -> None:
        package = [
            module for name, module in list(sys.modules.items())
            if name == "ssn_lab" or name.startswith("ssn_lab.")
        ]
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"ssn_lab.{layer}")
            except ImportError:
                continue
            for attr, original in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(original)
                    or original.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, original, _HOOKS.get(name))
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        for name, layer, class_name, method in METHODS:
            owner = getattr(sys.modules.get(f"ssn_lab.{layer}"), class_name, None)
            original = getattr(owner, method, None)
            if original is not None:
                self._patch(owner, method, original, self._wrap(name, original, _HOOKS.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, hook):
        layer = name.partition(".")[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            measure = tracer._alloc_layer is None and layer in ALLOC_LAYERS
            if measure and tracemalloc.is_tracing():
                tracer._alloc_layer = layer
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            else:
                measure = False
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                if measure:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    previous = tracer.alloc_peak_mb.get(layer, 0.0)
                    tracer.alloc_peak_mb[layer] = max(previous, peak)
                    tracer._alloc_layer = None
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def measure_alloc(self, fn) -> None:
        """Run ``fn`` under tracemalloc, recording per-layer peak allocation."""
        self.op = "alloc"
        tracemalloc.start()
        try:
            fn()
        finally:
            tracemalloc.stop()
            self.op = None

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


class _NullTracer:
    """Tracer stand-in for untraced runs: every span is one shared no-op."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def op_span(self, op):
        return self._null

    def pause(self):
        return self._null


NULL_TRACER = _NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "index", "ends_op")

    def __init__(self, tracer: Tracer, name: str, ends_op: bool = False):
        self.tracer = tracer
        self.name = name
        self.ends_op = ends_op

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        if self.ends_op:
            self.tracer.op = None
        return False


def _count_noise(tracer, args, result) -> None:
    noise = result.noise
    tracer.count("likelihood.noise_objects", len(noise) if isinstance(noise, list) else 1)


def _keep_sample_sets(tracer, args, result) -> None:
    if len(tracer.dedup_sets) < _DEDUP_SAMPLES:
        tracer.dedup_sets.extend(args)


def _count_trace_rows(tracer, args, result) -> None:
    tracer.count("toy.trace_rows", len(result.loss_trace))


_HOOKS = {
    "likelihood.ssn_mc_loss": _count_noise,
    "metrics.ged_squared": _keep_sample_sets,
    "metrics.sample_diversity": _keep_sample_sets,
    "toy.train_toy": _count_trace_rows,
}


# ----------------------------------------------------------------- metrics


_DERIVED = ("likelihood.ssn_mc_loss", "likelihood.grad_ssn_mc_loss")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _distinct_ratio(sample_sets) -> float:
    """Distinct label rows over rows, across the sample sets metrics deduped."""
    rows = distinct = 0
    for sample_set in sample_sets:
        matrix = sample_set.label_matrix()
        rows += matrix.shape[0]
        distinct += len({row.tobytes() for row in matrix})
    return distinct / rows if rows else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float, trajectory_dev: float) -> dict:
    """Per-layer metrics from the spans of the traced ops and replays.

    ``.ms``/``.us``/``.s`` are medians per call over every traced call; the
    ``.calls`` and count metrics are per op (median over ops); ``.share`` is
    time in the layer summed over ops divided by summed op time, self time
    for a layer and inclusive time for a named function.
    ``cli.overhead_ms`` is the self time of ``cli.main``: its wall minus the
    library calls it makes.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = defaultdict(list)
    cli_self = []
    per_op_calls = defaultdict(Counter)
    inclusive_in_ops = Counter()
    self_in_ops = Counter()
    op_total = 0.0
    ops = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op == "alloc":
            continue
        duration = end - start
        own = duration - child_time[index]
        durations[name].append(duration)
        if name == "cli.main":
            cli_self.append(own)
        if op is None:
            continue
        if name == "op":
            op_total += duration
            ops.append(op)
            continue
        per_op_calls[op][name] += 1
        inclusive_in_ops[name] += duration
        self_in_ops[name.partition(".")[0]] += own

    def ms(name: str) -> float:
        return _median(durations[name]) * 1e3

    def per_op(name: str, table=per_op_calls) -> float:
        return _median([table[op][name] for op in ops])

    def share(amount: float) -> float:
        return amount / op_total if op_total else 0.0

    # Derived stages: the likelihood-layer time of the loss (gradient) call
    # left after the label log-likelihood, that is the logsumexp reduction,
    # checks and per-sample noise records (the residual and gradient
    # products); the draw and the reconstruction are other layers' spans.
    remainder = defaultdict(float)
    for index, (name, start, end, parent, op) in enumerate(spans):
        if not name.startswith("likelihood.") or name == "likelihood.batch_label_loglik":
            continue
        enclosing = index
        while enclosing >= 0 and spans[enclosing][0] not in _DERIVED:
            enclosing = spans[enclosing][3]
        if enclosing >= 0:
            remainder[enclosing] += end - start - child_time[index]
    derived = defaultdict(list)
    for index, (name, start, end, parent, op) in enumerate(spans):
        if name in _DERIVED and op != "alloc":
            derived[name].append(remainder[index])
    mc_reduce = _median(derived["likelihood.ssn_mc_loss"]) * 1e3
    residual = _median(derived["likelihood.grad_ssn_mc_loss"]) * 1e3
    train_s = _median(durations["toy.train_toy"])
    rows = per_op("toy.trace_rows", tracer.counts)
    return {
        "rng.uniform_open.ms": ms("rng.uniform_open"),
        "rng.standard_normal.ms": ms("rng.standard_normal"),
        "rng.standard_normal.share": share(inclusive_in_ops["rng.standard_normal"]),
        "lowrank.construct.us": ms("lowrank.construct") * 1e3,
        "lowrank.construct.calls": per_op("lowrank.construct"),
        "lowrank.sample.ms": ms("lowrank.sample"),
        "lowrank.sample.share": share(inclusive_in_ops["lowrank.sample"]),
        "likelihood.ssn_mc_loss.ms": ms("likelihood.ssn_mc_loss"),
        "likelihood.grad_ssn_mc_loss.ms": ms("likelihood.grad_ssn_mc_loss"),
        "likelihood.batch_label_loglik.ms": ms("likelihood.batch_label_loglik"),
        "likelihood.batch_label_loglik.calls": per_op("likelihood.batch_label_loglik"),
        "likelihood.mc_reduce.ms": mc_reduce,
        "likelihood.residual_grads.ms": residual,
        "likelihood.share": share(self_in_ops["likelihood"]),
        "likelihood.noise_objects": per_op("likelihood.noise_objects", tracer.counts),
        "likelihood.alloc_peak_mb": tracer.alloc_peak_mb.get("likelihood", 0.0),
        "metrics.ged_squared.ms": ms("metrics.ged_squared"),
        "metrics.sample_diversity.ms": ms("metrics.sample_diversity"),
        "metrics.sample_set.ms": ms("metrics.sample_set"),
        "metrics.distinct_ratio": _distinct_ratio(tracer.dedup_sets),
        "metrics.share": share(self_in_ops["metrics"]),
        "metrics.alloc_peak_mb": tracer.alloc_peak_mb.get("metrics", 0.0),
        "assembly.stitch.ms": ms("assembly.stitch"),
        "assembly.apply_deviation_scale.ms": ms("assembly.apply_deviation_scale"),
        "assembly.share": share(self_in_ops["assembly"]),
        "toy.train_toy.s": train_s,
        "toy.iter_us": train_s / rows * 1e6 if rows else 0.0,
        "toy.evaluate_toy.ms": ms("toy.evaluate_toy"),
        "toy.trajectory_max_rel_dev": trajectory_dev,
        "formats.save_distribution.ms": ms("formats.save_distribution"),
        "formats.load_distribution.ms": ms("formats.load_distribution"),
        "formats.write_pgm_plot.ms": ms("formats.write_pgm_plot"),
        "cli.overhead_ms": _median(cli_self) * 1e3,
        "trace.overhead_ratio": overhead_ratio,
    }


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    for suffix, unit in ((".ms", "ms"), ("_ms", "ms"), (".us", "us"), (".s", "s"),
                         ("_us", "us"), ("_mb", "MB"), (".calls", "count"), ("noise_objects", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"
