"""The normal stream's contract: each variate is one 64-bit PCG64 output put
through the inverse normal CDF, whatever the draw's size, chunking or split
across threads, and the stream continues as after one serial draw."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import ssn_lab
from ssn_lab import PortableRng, ValidationError, mix_seed, rng as rng_module

SMALL_CHUNK = 7
SMALL_SPLIT = 40


def one_shot(seed, size):
    """The stream's definition, in one call over the whole size."""
    bits = np.random.Generator(np.random.PCG64(seed))
    k = bits.integers(0, 2**53, size, dtype=np.int64)
    return ndtri((k + 0.5) * 2.0**-53)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, and a record of which threads
    filled: True for the calling thread."""
    monkeypatch.setattr(rng_module.os, "sched_getaffinity", lambda pid: {0, 1})
    fillers = []
    fill = rng_module._fill_normal

    def recording_fill(bits, out):
        fillers.append(threading.current_thread() is threading.main_thread())
        fill(bits, out)

    monkeypatch.setattr(rng_module, "_fill_normal", recording_fill)
    return fillers


@pytest.fixture
def small_thresholds(monkeypatch, two_cpus):
    """``two_cpus`` with chunk and split thresholds small enough for fast
    tests."""
    monkeypatch.setattr(rng_module, "_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(rng_module, "_SPLIT_MIN", SMALL_SPLIT)
    return two_cpus


SIZES = [
    0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 3 * SMALL_CHUNK + 2,
    SMALL_SPLIT - 1, SMALL_SPLIT, SMALL_SPLIT + 1, 5 * SMALL_SPLIT + 3,
    (4, 9), (3, 5, 7), (0, 50),
]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", [0, 12345])
def test_sized_draw_equals_one_shot_reference(small_thresholds, seed, size):
    got = PortableRng(seed).standard_normal(size)
    want = one_shot(seed, size)
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    split = np.prod(size) >= SMALL_SPLIT
    assert (False in small_thresholds) == split


@pytest.mark.parametrize("size", [1 << 15, (1 << 15) + 3, (1 << 20) + 1])
def test_default_thresholds_equal_one_shot_reference(size):
    got = PortableRng(size).standard_normal(size)
    assert got.tobytes() == one_shot(size, size).tobytes()


@pytest.mark.parametrize(
    "size, split", [(2**19, True), ((20, 32778), True), (2**19 - 1, False)]
)
def test_default_split_threshold(two_cpus, size, split):
    """From 2**19 variates up a draw splits over two CPUs, the noise block of
    a paper-size training step (20 samples, rank 10, 2 x 128 x 128 logits)
    among them; one variate fewer stays on the calling thread."""
    got = PortableRng(19).standard_normal(size)
    assert got.tobytes() == one_shot(19, size).tobytes()
    assert two_cpus and (False in two_cpus) == split


@pytest.mark.parametrize("size", [SMALL_SPLIT, 3 * SMALL_SPLIT + 1])
@pytest.mark.parametrize("buffered", [False, True])
def test_split_draw_continues_the_stream(small_thresholds, size, buffered):
    split = PortableRng(21)
    serial = np.random.Generator(np.random.PCG64(21))
    if buffered:
        # A 32-bit range leaves half of a 64-bit output buffered for the
        # next one; the split draw must keep it as a serial draw does.
        assert split.integers(0, 2) == serial.integers(0, 2)
    split.standard_normal(size)
    serial.integers(0, 2**53, size, dtype=np.int64)
    assert False in small_thresholds
    k = serial.integers(0, 2**53, 3, dtype=np.int64)
    assert split.uniform_open(3).tobytes() == ((k + 0.5) * 2.0**-53).tobytes()
    assert split.draw_seed() == int(serial.integers(0, 2**63, dtype=np.int64))
    assert split.integers(0, 2, 9).tolist() == serial.integers(0, 2, 9).tolist()


@pytest.mark.parametrize("count", [0, 1, 5, 3 * SMALL_CHUNK + 1])
@pytest.mark.parametrize("buffered", [False, True])
def test_advance_continues_as_a_draw(small_thresholds, count, buffered):
    """Advancing past ``count`` variates leaves the stream where drawing
    them leaves it, a buffered 32-bit output included."""
    ahead, serial = PortableRng(23), PortableRng(23)
    if buffered:
        assert ahead.integers(0, 2) == serial.integers(0, 2)
    ahead.advance(count)
    serial.standard_normal(count)
    assert ahead.standard_normal(9).tobytes() == serial.standard_normal(9).tobytes()
    assert ahead.integers(0, 2, 9).tolist() == serial.integers(0, 2, 9).tolist()


@pytest.mark.parametrize("count", [-1, 2.5, True])
def test_advance_count_validated(count):
    """A negative count once moved the stream back."""
    with pytest.raises(ValidationError, match="count must be an integer >= 0"):
        PortableRng(1).advance(count)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5])
def test_seed_outside_the_domain_is_rejected(seed):
    """One seed domain, the integers in [0, 2**64): no seed past it aliases
    its low bits, and no fraction is truncated to one."""
    with pytest.raises(ValidationError, match="seed must be"):
        PortableRng(seed)
    with pytest.raises(ValidationError, match="seed must be"):
        mix_seed(1, seed)


def test_seed_domain_ends_are_accepted():
    assert PortableRng(2**64 - 1).seed == 2**64 - 1
    assert len({mix_seed(0), mix_seed(2**64 - 1), mix_seed(1, 2**64 - 1)}) == 3


def test_one_cpu_keeps_the_draw_on_the_calling_thread(small_thresholds, monkeypatch):
    monkeypatch.setattr(rng_module.os, "sched_getaffinity", lambda pid: {0})
    got = PortableRng(2).standard_normal(4 * SMALL_SPLIT)
    assert got.tobytes() == one_shot(2, 4 * SMALL_SPLIT).tobytes()
    assert small_thresholds and all(small_thresholds)


def test_one_cpu_splits_by_size_and_starts_no_thread(two_cpus, monkeypatch):
    """With one CPU a draw of ``_SPLIT_MIN`` still splits by its size, and
    ``_side_by_side`` fills both halves on the calling thread, in order,
    with the serial bytes and no pool."""
    monkeypatch.setattr(rng_module.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(rng_module, "ThreadPoolExecutor", None)  # not callable
    threads = threading.active_count()
    got = PortableRng(3).standard_normal(rng_module._SPLIT_MIN)
    assert got.tobytes() == one_shot(3, rng_module._SPLIT_MIN).tobytes()
    assert two_cpus == [True, True]
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    "size, error",
    [((10**18, 2), MemoryError), (10**20, MemoryError), (-1, ValueError),
     ((3, -1), ValueError)],
)
def test_size_past_numpys_limit_is_a_memory_error(size, error):
    """numpy refuses these sizes before allocating: past its array-size
    limit nothing can hold the draw, while a negative size is a bad value."""
    with pytest.raises(error):
        PortableRng(0).standard_normal(size)


def test_failure_in_second_half_is_raised(small_thresholds, monkeypatch):
    fill = rng_module._fill_normal

    def failing_fill(bits, out):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("second half")
        fill(bits, out)

    monkeypatch.setattr(rng_module, "_fill_normal", failing_fill)
    with pytest.raises(MemoryError, match="second half"):
        PortableRng(1).standard_normal(SMALL_SPLIT)


def test_failure_in_first_half_is_raised(small_thresholds, monkeypatch):
    """A failure on the calling thread reaches the caller, and the pool's
    thread is gone when the draw returns."""
    fill = rng_module._fill_normal

    def failing_fill(bits, out):
        if threading.current_thread() is threading.main_thread():
            raise MemoryError("first half")
        fill(bits, out)

    monkeypatch.setattr(rng_module, "_fill_normal", failing_fill)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="first half"):
        PortableRng(1).standard_normal(SMALL_SPLIT)
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_side_by_side_passes_see_the_callers_error_state(monkeypatch, cpus):
    """Serially every pass runs under the caller's numpy error state; on the
    pool's thread, too. Here only the second pass underflows."""
    monkeypatch.setattr(rng_module.os, "sched_getaffinity", lambda pid: cpus)
    passes = (lambda: 1.0, lambda: np.float64(1e-300) * np.float64(1e-300))
    assert rng_module._side_by_side(*passes) == [1.0, 0.0]
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        rng_module._side_by_side(*passes)


def test_side_by_side_inside_a_pass_runs_serially(monkeypatch):
    """A ``_side_by_side`` called from either pass of another runs its own
    passes on that pass's thread: one pool in all, and the next outer call
    makes a pool again."""
    monkeypatch.setattr(rng_module.os, "sched_getaffinity", lambda pid: {0, 1})
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(threading.current_thread().name)
            super().__init__(max_workers)

    monkeypatch.setattr(rng_module, "ThreadPoolExecutor", RecordingPool)

    def thread_name():
        return threading.current_thread().name

    def inner():
        return rng_module._side_by_side(thread_name, thread_name)

    (low, low_again), (high, high_again) = rng_module._side_by_side(inner, inner)
    assert pools == ["MainThread"]
    assert low == low_again == "MainThread" and high == high_again != low
    assert rng_module._side_by_side(thread_name, thread_name)[1] != "MainThread"
    assert pools == ["MainThread", "MainThread"]


DRAWS = {
    "standard_normal": lambda rng, size: rng.standard_normal(size),
    "uniform_open": lambda rng, size: rng.uniform_open(size),
    "integers": lambda rng, size: rng.integers(0, 1000, size),
}


@pytest.mark.parametrize("size", [2.5, 2.0, True, "2", -1, (3, 2.5), (2, True),
                                  (3, -1), [2, "3"]],
                         ids=["float", "integral-float", "bool", "str", "negative",
                              "float-extent", "bool-extent", "negative-extent",
                              "str-in-list"])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_size_follows_the_integer_rule(draw, size):
    with pytest.raises(ValidationError, match="size must be an integer >= 0") as caught:
        DRAWS[draw](PortableRng(1), size)
    assert type(caught.value) is ValidationError


def test_normal_draw_needs_a_size():
    with pytest.raises(ValidationError, match="no scalar draw"):
        PortableRng(1).standard_normal(None)


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_integer_sizes_keep_their_bytes(draw):
    """numpy integers, tuples and lists give the bytes of plain ints, and
    leave the stream where they do; ``size=None`` keeps the scalar draw."""
    forms = {(2, 3): [(np.int64(2), 3), [2, np.uint8(3)]], 5: [np.int32(5)]}
    for size, same in forms.items():
        rng = PortableRng(4)
        want = (np.asarray(DRAWS[draw](rng, size)), rng.standard_normal(2))
        for other in same:
            rng = PortableRng(4)
            got = (np.asarray(DRAWS[draw](rng, other)), rng.standard_normal(2))
            assert all(g.dtype == w.dtype and g.shape == w.shape
                       and g.tobytes() == w.tobytes() for g, w in zip(got, want))
    bits = np.random.Generator(np.random.PCG64(4))
    if draw == "uniform_open":
        scalar = (bits.integers(0, 2**53, dtype=np.int64) + 0.5) * 2.0**-53
        assert PortableRng(4).uniform_open() == scalar
    if draw == "integers":
        assert PortableRng(4).integers(0, 1000) == bits.integers(0, 1000)


FORK_AFTER_SPLIT = """
import threading
from ssn_lab import PortableRng, rng
from ssn_lab.toy import TrainConfig, rank_sweep
rng.os.sched_getaffinity = lambda pid: {0, 1}
threads = threading.active_count()
PortableRng(5).standard_normal(rng._SPLIT_MIN)
assert threading.active_count() == threads
config = TrainConfig(pretrain_iterations=20, iterations=20, mc_samples=10)
parallel = rank_sweep([1, 2], [1], config=config, jobs=2)
print(parallel == rank_sweep([1, 2], [1], config=config, jobs=1))
"""


def test_forked_sweep_after_split_draw_matches_serial():
    """Worker processes forked after a split draw inherit no live thread or
    pool, so a parallel sweep neither hangs nor changes its rows. It runs in
    a child process, so a hang ends in a timeout, not a stuck suite."""
    src = str(Path(ssn_lab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", FORK_AFTER_SPLIT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"
