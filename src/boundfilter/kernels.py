"""The shot lottery of the Monte-Carlo protocol simulator.

Randomness comes from one counter-addressed splitmix64 stream: draw n of a
run is mix64(seed + n * GAMMA) mod 2^64, and shot i consumes draws
4i + 1 .. 4i + 4, so the four uniforms of any shot depend only on (seed,
shot index).  Runs are reproducible and the accept count over [0, N) equals
the sum over any partition of the index range.  The stream materialized as
uniforms, the reference the lottery is tested against, is
`tests/oracles.uniform_block`.

Each draw is decided on the raw 64-bit word: with u = (z >> 11) * 2^-53,
u < p holds exactly when z < ceil(p * 2^53) << 11, because p * 2^53 is exact
in binary64 for p < 1.  A probability of 1 or more passes every shot and is
skipped, so a call whose draws are all skipped returns at once; one that is
zero, negative or NaN passes none.

The lottery walks the shots in blocks of LOTTERY_BLOCK.  A call of more than
one block splits its blocks into contiguous ranges, one per worker, with
workers = min(2, CPUs this process may run on, blocks).  The calling thread
counts the first range; each other range runs on a thread started for the
call and joined before it returns, and an error raised there is raised
again in the caller.  The result is the sum of the per-range counts, which
is exact because the count over [0, N) equals the sum over any partition:
a count does not depend on how many CPUs the process has.  A one-block call
starts no thread and does not ask for the CPU count.

Each range allocates its working buffers once, at min(shots, LOTTERY_BLOCK)
words (about 0.6 MB at 2^15), and makes their full-size views once; only a
short last block slices them again.  The finalizer runs in place with a
scratch buffer.  The words of a block are one shared arange(size) * 4 *
GAMMA plus one word per draw; a range keeps its draws' words in one uint64
array, and one in-place add advances them all, mod 2^64, after each block.
Every draw that can reject is computed over the whole block and its pass
mask is ANDed into one running boolean mask; the block's count is that
mask's count.

The split pays because the uint64 ufuncs of the hash release the GIL, but
each call holds it while numpy dispatches it, and a block makes eleven
calls per draw.  Three cuts keep that held time short.  Every operand is an
array: a shift or multiply by a read-only 0-d uint64 array dispatches in
0.3-0.4 us, against 0.6-0.8 us by an np.uint64 scalar.  Nothing is sliced
or allocated between the calls of a block.  And one add after a block
advances every draw's word, so no word is built from Python ints per draw.
On a 2*10^6-shot call the three cuts save 13-18% of the time on two workers
and 2-7% on one, and two workers now cut the call by 18-38% against one.
The block stays 2^15 shots.  With two workers, 2^14 ran 1.5-1.6x slower,
because the threads handed the GIL back and forth twice as often, and 2^16
was 9-12% faster but raised the peak RSS of a 2*10^6-shot simulate by a
further 1.3 MB (4%).  The cap is two workers: each one adds a range's
buffers, the GIL-bound dispatch keeps the gain of a second well short of
2x, and a third has not been measured on a host with more than two CPUs.
"""

import math
import os
import threading

import numpy as np

MASK64 = (1 << 64) - 1
GENERATOR_NAME = "splitmix64"
LOTTERY_BLOCK = 1 << 15
_MAX_WORKERS = 2

_GAMMA_INT = 0x9E3779B97F4A7C15


def _const(value: int) -> np.ndarray:
    """A read-only 0-d uint64 array holding value mod 2^64: a cheaper ufunc
    operand than an np.uint64 scalar, and safe to share between threads."""
    c = np.array(value & MASK64, dtype=np.uint64)
    c.flags.writeable = False
    return c


# one shot advances the stream by four draws
_SHOT_STRIDE = _const(4 * _GAMMA_INT)
_MIX1 = _const(0xBF58476D1CE4E5B9)
_MIX2 = _const(0x94D049BB133111EB)
_S30 = _const(30)
_S27 = _const(27)
_S31 = _const(31)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied in place to a uint64 array; `tmp`
    is a scratch buffer of the same shape."""
    np.right_shift(z, _S30, tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, _S27, tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, _S31, tmp)
    z ^= tmp
    return z


def _usable_cpus() -> int:
    """CPUs this process may run on; all of them where the OS cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def _count(seed: int, draws, stride: np.ndarray, lo: int, hi: int) -> int:
    """Accept count of the shots in [lo, hi), walked in blocks of
    len(stride) through buffers of its own; `stride` is only read."""
    size = len(stride)
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    passed = np.empty(size, dtype=np.bool_)
    running = np.empty(size, dtype=np.bool_)
    # the word of draw k at block b is seed + (4b + k + 1) * GAMMA: one
    # array of this range's words, each draw reading a 0-d view of its own,
    # advanced in place by one block's worth of draws after every block
    words = np.array(
        [(seed + (4 * lo + k + 1) * _GAMMA_INT) & MASK64 for k, _ in draws],
        dtype=np.uint64,
    )
    step = _const(4 * size * _GAMMA_INT)
    (word, threshold), *rest = [
        (words[i, ...], t) for i, (_, t) in enumerate(draws)
    ]
    count = 0
    for b in range(lo, hi, size):
        if hi - b < size:  # the range's short last block
            m = hi - b
            stride, z, tmp, passed, running = (
                stride[:m], z[:m], tmp[:m], passed[:m], running[:m]
            )
        np.add(stride, word, z)
        np.less(_mix64(z, tmp), threshold, running)
        for w, t in rest:
            np.add(stride, w, z)
            np.less(_mix64(z, tmp), t, passed)
            running &= passed
        count += int(np.count_nonzero(running))
        np.add(words, step, words)
    return count


def accept_count(seed: int, probs, shots: int, start: int = 0) -> int:
    """Number of shots in [start, start+shots) that pass all four lotteries.

    A shot is accepted iff its k-th uniform is strictly below probs[k] for
    every k.  The count is the same on any number of CPUs.
    """
    p = [float(x) for x in probs]
    if len(p) != 4:
        raise ValueError("expected exactly four branch probabilities")
    if shots <= 0:
        return 0
    if not all(pk > 0.0 for pk in p):  # also catches NaN
        return 0
    # (k, integer threshold) of every draw that can reject a shot
    draws = [
        (k, _const(math.ceil(pk * (1 << 53)) << 11))
        for k, pk in enumerate(p)
        if pk < 1.0
    ]
    if not draws:
        return shots
    size = min(shots, LOTTERY_BLOCK)
    blocks = -(-shots // size)
    workers = 1 if blocks == 1 else min(_MAX_WORKERS, _usable_cpus(), blocks)
    # shot b + i hashes word(b) + i * 4 * GAMMA, so a block's words are
    # this one arange plus a scalar per draw
    stride = np.arange(size, dtype=np.uint64)
    stride *= _SHOT_STRIDE
    # contiguous whole-block ranges, one per worker; the last may end short
    cuts = [start + blocks * w // workers * size for w in range(workers)]
    cuts.append(start + shots)
    counts = [0] * workers
    errors = []

    def work(w):
        try:
            counts[w] = _count(seed, draws, stride, cuts[w], cuts[w + 1])
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            t = threading.Thread(target=work, args=(w,))
            t.start()
            threads.append(t)
        counts[0] = _count(seed, draws, stride, cuts[0], cuts[1])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return sum(counts)
