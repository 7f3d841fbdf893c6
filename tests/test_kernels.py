import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundfilter import kernels

from .oracles import block_count, splitmix64_py, uniform_block, uniform_py

# probabilities at the edges of the integer threshold: never, the smallest
# nonzero uniform, the largest uniform, just above 1 (skipped) and NaN
EDGE_PROBS = [
    0.0,
    2.0**-53,
    float(np.nextafter(1.0, 0.0)),
    1.0000000000000002,
    float("nan"),
]
# probabilities at which every draw rejects some shots
SPLIT_PROBS = [0.9, 0.8, 0.7, 0.95]


def test_uniform_block_matches_pure_python():
    seed = 987654321
    block = uniform_block(seed, start=0, shots=5)
    for shot in range(5):
        for k in range(4):
            assert block[shot, k] == uniform_py(seed, 4 * shot + k)


def test_uniform_block_start_offset():
    seed = 42
    whole = uniform_block(seed, 0, 100)
    tail = uniform_block(seed, 60, 40)
    assert np.array_equal(whole[60:], tail)


def test_uniforms_in_unit_interval():
    for seed in (0, 1, 2**63, (1 << 64) - 1):
        u = uniform_block(seed, 0, 1000)
        assert u.min() >= 0.0
        assert u.max() < 1.0


def test_accept_count_partition_invariant():
    seed, probs = 2024, [0.5, 0.6, 0.7, 0.8]
    total = kernels.accept_count(seed, probs, 10_000)
    for cut in (1, 137, 5000, 9999):
        left = kernels.accept_count(seed, probs, cut)
        right = kernels.accept_count(seed, probs, 10_000 - cut, start=cut)
        assert left + right == total


def test_accept_count_extremes():
    assert kernels.accept_count(9, [1.0, 1.0, 1.0, 1.0], 500) == 500
    assert kernels.accept_count(9, [1.0, 0.0, 1.0, 1.0], 500) == 0
    assert kernels.accept_count(9, [0.5] * 4, 0) == 0
    top, above_one, nan = EDGE_PROBS[2], EDGE_PROBS[3], EDGE_PROBS[4]
    assert kernels.accept_count(9, [above_one] * 4, 500) == 500
    assert kernels.accept_count(9, [top] * 4, 500) == 500
    assert kernels.accept_count(9, [0.5, nan, 0.5, 0.5], 500) == 0
    assert kernels.accept_count(9, [0.5, 0.5, 0.5, 0.0], 500) == 0
    for p in EDGE_PROBS + [0.995]:
        probs = [0.8, p, 0.9, 0.7]
        got = kernels.accept_count(9, probs, 5000)
        assert got == block_count(9, probs, 5000)
    # a probability equal to a drawn uniform rejects that shot and the next
    # double up accepts it; a word whose low 11 bits are zero lands exactly
    # on the integer threshold
    shots = 3000
    u = uniform_block(9, 0, shots)
    on_threshold = [
        j for j in range(shots) if splitmix64_py(9, 4 * j + 2) & 0x7FF == 0
    ]
    assert on_threshold
    for j in [0, 17, shots - 1] + on_threshold:
        at = [1.0, 1.0, float(u[j, 2]), 1.0]
        above = [1.0, 1.0, float(np.nextafter(u[j, 2], 1.0)), 1.0]
        below = block_count(9, at, shots)
        assert kernels.accept_count(9, at, shots) == below
        assert kernels.accept_count(9, above, shots) == below + 1
    # independent recount straight from the pure-python splitmix64
    probs = [top, 0.55, above_one, 0.8]
    expected = sum(
        all(uniform_py(4242, 4 * shot + k) < probs[k] for k in range(4))
        for shot in range(300)
    )
    assert kernels.accept_count(4242, probs, 300) == expected


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    start=st.integers(0, 1 << 63),
    shots=st.integers(0, 300),
    probs=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PROBS)),
        min_size=4,
        max_size=4,
    ),
)
def test_accept_count_blocks_match_uniform_block(
    block, seed, start, shots, probs
):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "LOTTERY_BLOCK", block)
        got = kernels.accept_count(seed, probs, shots, start=start)
    assert got == block_count(seed, probs, shots, start)


def test_accept_count_memory_is_bounded_by_the_block():
    # 10^6 shots materialized as a (shots, 4) stream would take > 100 MiB;
    # the lottery's working set is a few arrays of one block
    tracemalloc.start()
    try:
        kernels.accept_count(5, [0.9, 0.95, 0.99, 0.999], shots=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_two_workers_stay_within_the_memory_bound(monkeypatch):
    # with two workers each range has its own block buffers
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 64)
    tracemalloc.start()
    try:
        kernels.accept_count(5, [0.9, 0.95, 0.99, 0.999], shots=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_small_calls_stay_below_one_block():
    # a 1000-shot call (the default simulate) sizes its buffers to the call,
    # not to LOTTERY_BLOCK
    tracemalloc.start()
    try:
        kernels.accept_count(5, [0.9, 0.95, 0.99, 0.999], shots=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


@pytest.mark.parametrize(
    "probs",
    [
        [0.7, 1.0, 1.0, 1.0],
        [1.0, 0.8, 1.0, 0.6],
        [0.9, 0.8, 0.7, 0.95],
        [0.2, 0.9, 0.9, 0.9],
        [0.55, 0.6, 0.65, 0.7],
        [0.3, 0.3, 0.3, 0.3],
    ],
    ids=[
        "one-draw",
        "two-draws",
        "four-draws",
        "low-first-compacts",
        "graded-first-compacts",
        "compacts-twice",
    ],
)
def test_shipped_block_partial_final_block_and_wrap(probs):
    # two full blocks and a partial one, with shot indices that cross 2^63
    # so 4i * GAMMA wraps modulo 2^64 inside the run
    start = 2**63 - 5
    shots = 2 * kernels.LOTTERY_BLOCK + 17
    got = kernels.accept_count(77, probs, shots, start=start)
    assert got == block_count(77, probs, shots, start)


def test_accept_count_matches_uniform_block():
    seed, shots = 55, 2000
    probs = np.array([0.4, 0.9, 0.65, 0.85])
    expected = block_count(seed, probs, shots)
    assert kernels.accept_count(seed, probs, shots) == expected


def test_accept_count_requires_four_probs():
    with pytest.raises(ValueError):
        kernels.accept_count(1, [0.5, 0.5], 10)


def test_seed_wraps_modulo_64_bits():
    probs = [0.5] * 4
    a = kernels.accept_count(123, probs, 1000)
    b = kernels.accept_count(123 + (1 << 64), probs, 1000)
    assert a == b


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_counts_do_not_depend_on_the_worker_count(monkeypatch, cpus):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    b = kernels.LOTTERY_BLOCK
    for shots in (1, b, b + 1, 2 * b + 17, 5 * b - 3):
        got = kernels.accept_count(2024, SPLIT_PROBS, shots)
        assert got == block_count(2024, SPLIT_PROBS, shots)
    # the second range starts past 2^63, and a seed one word short of 2^64
    # wraps in both ranges
    for seed, start in [(77, 2**63 - b - 5), ((1 << 64) - 3, 0)]:
        got = kernels.accept_count(seed, SPLIT_PROBS, 2 * b + 17, start)
        assert got == block_count(seed, SPLIT_PROBS, 2 * b + 17, start)
    for block in (1, 3):
        monkeypatch.setattr(kernels, "LOTTERY_BLOCK", block)
        for shots in (1, 2, 3, 4, 7 * block + 2):
            got = kernels.accept_count(9, SPLIT_PROBS, shots, start=11)
            assert got == block_count(9, SPLIT_PROBS, shots, start=11)


@pytest.mark.parametrize("cpus", [1, 2])
def test_range_words_wrap_past_two_to_the_64(monkeypatch, cpus):
    # each range advances its draw words in place after every block; from
    # seed 2^64 - 1 and a start near 2^63 every word passes 2^64 at least
    # once, and the add must wrap without a warning
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    seed, start = (1 << 64) - 1, 2**63 - 5
    shots = 3 * kernels.LOTTERY_BLOCK + 5
    for probs in ([0.7, 1.0, 0.8, 1.0], SPLIT_PROBS):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.accept_count(seed, probs, shots, start)
        assert got == block_count(seed, probs, shots, start)
    # the shared 0-d operands are read-only, so no range can change them
    shared = [
        kernels._SHOT_STRIDE,
        kernels._MIX1,
        kernels._MIX2,
        kernels._S30,
        kernels._S27,
        kernels._S31,
    ]
    for c in shared:
        assert c.shape == () and c.dtype == np.uint64
        with pytest.raises(ValueError, match="read-only"):
            c += 1


def test_many_workers_under_fast_switching_keep_the_count(monkeypatch):
    # more workers than cores, and a switch interval short enough that a
    # lost per-range count would show
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(kernels, "_MAX_WORKERS", 8)
    monkeypatch.setattr(kernels, "LOTTERY_BLOCK", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for shots in (64 * 8, 64 * 8 + 1, 64 * 20 - 5):
            got = kernels.accept_count(31, SPLIT_PROBS, shots)
            assert got == block_count(31, SPLIT_PROBS, shots)
    finally:
        sys.setswitchinterval(interval)


class _ThreadSpy(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize(
    "shots, cpus",
    [
        (kernels.LOTTERY_BLOCK, None),
        (3 * kernels.LOTTERY_BLOCK, 1),
        (3 * kernels.LOTTERY_BLOCK, 2),
    ],
)
def test_threads_start_only_for_a_split(monkeypatch, shots, cpus):
    def query():
        # a one-block call does not ask how many CPUs there are
        assert cpus is not None
        return cpus

    monkeypatch.setattr(kernels, "_usable_cpus", query)
    monkeypatch.setattr(_ThreadSpy, "started", 0)
    monkeypatch.setattr(threading, "Thread", _ThreadSpy)
    got = kernels.accept_count(5, SPLIT_PROBS, shots)
    assert _ThreadSpy.started == (1 if cpus == 2 else 0)
    assert got == block_count(5, SPLIT_PROBS, shots)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_an_error_in_either_range_reaches_the_caller(monkeypatch, failing):
    real = kernels._mix64

    def mix64(z, tmp):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (failing == "caller"):
            raise RuntimeError(f"{failing} failed")
        return real(z, tmp)

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(kernels, "_mix64", mix64)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        kernels.accept_count(5, SPLIT_PROBS, 3 * kernels.LOTTERY_BLOCK)
    assert threading.active_count() == before
