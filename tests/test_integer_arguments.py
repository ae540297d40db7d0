"""The one integer rule, fuzzed over the public API.

Every count, dimension, draw size, seed and label a public callable takes
goes through ``errors.check_count``: a numpy integer gives the same result
as the equal ``int``, and a bool, a float (an integral one too), a string,
a value below the argument's least, a seed past 2**64 or a float label
array raises exactly ``ValidationError``, with no warning. Sizes stay
small (rank at most 5, at most a few hundred elements), and no process is
started: ``jobs`` only ever gets invalid values, which are rejected before
a pool is made.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssn_lab import (
    LabelMap,
    LowRankGaussian,
    Patch,
    PatchedParams,
    PortableRng,
    SampleSet,
    TrainConfig,
    ValidationError,
    dsc,
    evaluate_toy,
    gradient_check_suite,
    labels_from_logits,
    mix_seed,
    rank_sweep,
    ssn_mc_loss,
    stitch,
)


def _model():
    """3 pixels, 2 classes, rank 2."""
    rng = PortableRng(5)
    return LowRankGaussian(rng.standard_normal(6), 0.5 * rng.standard_normal((6, 2)),
                           rng.standard_normal(6), 3, 2, 2)


def _dims(dims, name, value):
    """A model of small dimensions, ``name`` passed as ``value``; the tensors
    are sized by the valid ``dims``."""
    dim = dims["num_pixels"] * dims["num_classes"]
    tensors = (np.zeros(dim), np.ones((dim, dims["rank"])), np.zeros(dim))
    return LowRankGaussian(*tensors, **{**dims, name: value})


def _patched(part, base, value):
    """Two patches of 2 pixels tiling a 1-d image of 4, ``part`` (valid at
    ``base``) passed as ``value``."""
    valid = {"offset": 2, "extent": 2, "full": 4, "num_classes": 1, "rank": 1,
             part: base}
    given = {**valid, part: value}
    rows, rank = 2 * valid["num_classes"], valid["rank"]
    patches = [
        Patch((offset,), (extent,), np.zeros(rows), np.ones((rows, rank)),
              np.zeros(rows))
        for offset, extent in ((0, 2), (given["offset"], given["extent"]))
    ]
    return stitch(PatchedParams(patches, (given["full"],), given["num_classes"],
                                given["rank"]))


_TOY = LowRankGaussian(np.linspace(-2, 2, 21), np.full((21, 1), 0.5),
                       np.zeros(21), 21, 1, 1)
_QUICK = {"pretrain_iterations": 2, "iterations": 2, "mc_samples": 3}


def _rng_after(seed, count=0):
    rng = PortableRng(seed)
    rng.advance(count)
    return rng.seed, rng.standard_normal(3)


# name: (kind, the valid values an example starts from, call(base, value)).
# A kind is "count" (or "labels") with its least, "seed", or "jobs".
CASES = {
    "LowRankGaussian.num_pixels": (("count", 1), (1, 2, 3),
        lambda b, v: _dims({"num_pixels": b, "num_classes": 2, "rank": 2},
                           "num_pixels", v)),
    "LowRankGaussian.num_classes": (("count", 1), (1, 2, 3),
        lambda b, v: _dims({"num_pixels": 3, "num_classes": b, "rank": 2},
                           "num_classes", v)),
    "LowRankGaussian.rank": (("count", 1), (1, 3, 5),
        lambda b, v: _dims({"num_pixels": 3, "num_classes": 2, "rank": b},
                           "rank", v)),
    "LowRankGaussian.sample.n": (("count", 1), (1, 2, 5),
        lambda b, v: _model().sample(v, 3)),
    "LowRankGaussian.sample.seed": (("seed",), (0, 7, 2**64 - 1),
        lambda b, v: _model().sample(2, v)),
    "ssn_mc_loss.num_samples": (("count", 1), (1, 4),
        lambda b, v: ssn_mc_loss(_model(), LabelMap([0, 1, 1], 2), v, 3)),
    "ssn_mc_loss.rng_seed": (("seed",), (0, 9),
        lambda b, v: ssn_mc_loss(_model(), LabelMap([0, 1, 1], 2), 3, v)),
    "LabelMap.num_classes": (("count", 1), (1, 2, 300),
        lambda b, v: LabelMap([0, 1, 1], v)),
    "LabelMap.labels": (("labels", 0), ([0, 1, 1], [2, 0, 1]),
        lambda b, v: LabelMap(v, 3)),
    "SampleSet.num_classes": (("count", 1), (1, 2, 300),
        lambda b, v: SampleSet(labels=[[0, 1], [1, 1]], num_classes=v)),
    "SampleSet.labels": (("labels", 0), ([[0, 1], [1, 1]], [[2, 2], [0, 1]]),
        lambda b, v: SampleSet(labels=v, num_classes=3)),
    "labels_from_logits.num_classes": (("count", 1), (1, 2, 3, 4),
        lambda b, v: labels_from_logits(
            PortableRng(b).standard_normal((3, 12)), v)),
    "dsc.cls": (("count", 0), (0, 1, 2),
        lambda b, v: dsc(LabelMap([0, 1, 2, 1], 3), LabelMap([1, 1, 2, 0], 3), v)),
    "gradient_check_suite.trials": (("count", 1), (1, 2),
        lambda b, v: gradient_check_suite(v, 4)),
    "gradient_check_suite.seed": (("seed",), (0, 4),
        lambda b, v: gradient_check_suite(1, v)),
    "PortableRng.seed": (("seed",), (0, 3, 2**64 - 1),
        lambda b, v: _rng_after(v)),
    "PortableRng.advance.count": (("count", 0), (0, 1, 40),
        lambda b, v: _rng_after(1, v)),
    **{f"PortableRng.{method}.size": (("count", 0), (0, 1, 4),
        lambda b, v, method=method, low=low: getattr(PortableRng(6), method)(*low, v))
       for method, low in (("standard_normal", ()), ("uniform_open", ()),
                           ("integers", (0, 9)))},
    "mix_seed.part": (("seed",), (0, 3, 2**64 - 1),
        lambda b, v: mix_seed(1, v, 2)),
    **{f"TrainConfig.{field}": (("count", least), (least, least + 2),
        lambda b, v, field=field: TrainConfig(**{field: v}))
       for field, least in (("rank", 1), ("mc_samples", 1), ("iterations", 0),
                            ("pretrain_iterations", 0))},
    "TrainConfig.seed": (("seed",), (0, 2**64 - 1),
        lambda b, v: TrainConfig(seed=v)),
    "evaluate_toy.n_samples": (("count", 1), (1, 3, 6),
        lambda b, v: evaluate_toy(_TOY, n_samples=v, n_lik_samples=3, seed=2)),
    "evaluate_toy.n_lik_samples": (("count", 1), (1, 4),
        lambda b, v: evaluate_toy(_TOY, n_samples=4, n_lik_samples=v, seed=2)),
    "evaluate_toy.seed": (("seed",), (0, 2**64 - 1),
        lambda b, v: evaluate_toy(_TOY, n_samples=4, n_lik_samples=3, seed=v)),
    "rank_sweep.jobs": (("jobs",), (1,),
        lambda b, v: rank_sweep([1], [1], TrainConfig(**_QUICK), jobs=v)),
    **{f"PatchedParams.{part}": (("count", least), bases,
        lambda b, v, part=part: _patched(part, b, v))
       for part, least, bases in (("offset", 0, (2,)), ("extent", 1, (2,)),
                                  ("full", 1, (4,)), ("num_classes", 1, (1, 3)),
                                  ("rank", 1, (1, 4)))},
}

_NOT_INTEGERS = [2.5, 2.0, True, "2", -1]


def _replacements(kind, base):
    """The values that must be rejected in place of ``base``, and the numpy
    integer form of ``base`` that must give the same result (None for
    ``jobs``, which would make a pool)."""
    if kind[0] == "labels":
        array = np.asarray(base)
        return [*_NOT_INTEGERS, 2**64, array.astype(np.float64),
                array.astype(bool)], array.astype(np.int32)
    if kind[0] == "seed":
        return [*_NOT_INTEGERS, 2**64], np.uint64(base)
    if kind[0] == "jobs":
        return [*_NOT_INTEGERS, 0], None
    below = kind[1] - 1
    return [*_NOT_INTEGERS, below], np.int64(base)


def _comparable(value):
    """``value`` as nested tuples that tell an ``int`` from a numpy integer
    and compare arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, SampleSet):
        return ("SampleSet", _comparable(value.num_classes),
                _comparable(value.label_matrix()))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_comparable(getattr(value, field.name))
                                        for field in dataclasses.fields(value)))
    if isinstance(value, dict):
        return tuple((key, _comparable(item)) for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(_comparable(item) for item in value)
    return (type(value).__name__, repr(value))


def _call_quietly(call, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return call(*args)
        finally:
            assert not caught, [str(w.message) for w in caught]


@settings(max_examples=600, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CASES)))
def test_integer_arguments_follow_one_rule(data, name):
    kind, bases, call = CASES[name]
    base = data.draw(st.sampled_from(bases), label="base")
    rejected, numpy_form = _replacements(kind, base)
    choices = rejected if numpy_form is None else [numpy_form, *rejected]
    value = data.draw(st.sampled_from(choices), label="value")
    if value is numpy_form:
        expected = _comparable(_call_quietly(call, base, base))
        assert _comparable(_call_quietly(call, base, value)) == expected
        return
    with pytest.raises(ValidationError) as caught:
        _call_quietly(call, base, value)
    assert type(caught.value) is ValidationError
