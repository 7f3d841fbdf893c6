"""The shot lottery of the Monte-Carlo protocol simulator.

Randomness comes from one counter-addressed splitmix64 stream: draw n of a
run is mix64(seed + n * GAMMA) mod 2^64, and shot i consumes draws
4i + 1 .. 4i + 4, so the four uniforms of any shot depend only on (seed,
shot index).  Runs are reproducible and the accept count over [0, N) equals
the sum over any partition of the index range.  `uniform_block` materializes
the stream as uniforms and is the reference the lottery is tested against.

Each draw is decided on the raw 64-bit word: with u = (z >> 11) * 2^-53,
u < p holds exactly when z < ceil(p * 2^53) << 11, because p * 2^53 is exact
in binary64 for p < 1.  A probability of 1 or more passes every shot and is
skipped, so a call whose draws are all skipped returns at once; one that is
zero, negative or NaN passes none.

The lottery walks the shots in blocks of LOTTERY_BLOCK.  It allocates its
working buffers once per call, at min(shots, LOTTERY_BLOCK) words, and every
block reuses them: the finalizer runs in place with a scratch buffer, and
the words of a block are one precomputed arange(size) * 4 * GAMMA plus a
scalar per draw.  Each draw is computed over the block's alive shots and its
pass mask is ANDed into one running boolean mask; the block's count is the
number of shots left in that mask.  AND is order-free, so which shots get
drawn never changes a count.  The survivors are compacted with np.compress
only after a draw where that pays (see `_draws`, which weighs one compacted
element as one draw): draws passing 70-85% of shots, as for rho-xt under
choi-example or bell under gisin, never compact, while a draw that rejects
most shots still does.  The block is 2^15 shots (about 1 MB of buffers):
2^14 and 2^16 were slower, and 2^16 raised the peak RSS of a 2*10^6-shot
simulate by about 4%.
"""

import math

import numpy as np

MASK64 = (1 << 64) - 1
GENERATOR_NAME = "splitmix64"
LOTTERY_BLOCK = 1 << 15

_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
# one shot advances the stream by four draws
_SHOT_STRIDE = np.uint64((4 * _GAMMA_INT) & MASK64)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_FOUR = np.uint64(4)
_INV53 = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied in place to a uint64 array; `tmp`
    is a scratch buffer of the same shape."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def uniform_block(seed: int, start: int, shots: int) -> np.ndarray:
    """The (shots, 4) array of uniforms consumed by shots [start, start+shots).

    Column k holds the k-th conditional draw of each shot.  This is the
    documented stream; the lottery computes the same words block by block.
    """
    n = np.arange(start, start + shots, dtype=np.uint64)[:, None] * _FOUR
    n = n + np.arange(1, 5, dtype=np.uint64)[None, :]
    z = np.uint64(seed & MASK64) + n * _GAMMA
    return (_mix64(z, np.empty_like(z)) >> _S11) * _INV53


def _draws(p: list) -> list:
    """(k, integer threshold, compact) of every draw that can reject a shot.

    `compact` marks the draws after which the lottery compacts its
    survivors.  Compacting after draw j saves the draws still to come on the
    shots it drops, so it pays when remaining * (1 - s) > 1, with s the
    product of the pass probabilities since the last compaction.  The 1 is
    the cost of compacting one element, counted in draws: inside the block
    loop np.compress took 0.4-0.6 draws per element on masks passing up to
    76% of a block and 1.5-2 above, where each call faults in fresh pages
    for its index and output arrays.  With 1, draws passing 70-85% of
    shots, which compacting slowed, never compact.
    """
    kept = [(k, pk) for k, pk in enumerate(p) if pk < 1.0]
    draws = []
    s = 1.0
    for j, (k, pk) in enumerate(kept):
        s *= pk
        compact = (len(kept) - 1 - j) * (1.0 - s) > 1.0
        if compact:
            s = 1.0
        draws.append((k, np.uint64(math.ceil(pk * (1 << 53)) << 11), compact))
    return draws


def accept_count(seed: int, probs, shots: int, start: int = 0) -> int:
    """Number of shots in [start, start+shots) that pass all four lotteries.

    A shot is accepted iff its k-th uniform is strictly below probs[k] for
    every k.
    """
    p = [float(x) for x in probs]
    if len(p) != 4:
        raise ValueError("expected exactly four branch probabilities")
    if shots <= 0:
        return 0
    if not all(pk > 0.0 for pk in p):  # also catches NaN
        return 0
    draws = _draws(p)
    if not draws:
        return shots
    size = min(shots, LOTTERY_BLOCK)
    # shot lo + i hashes word(lo) + i * 4 * GAMMA, so a block's words are
    # this one arange plus a scalar per draw
    stride = np.arange(size, dtype=np.uint64)
    stride *= _SHOT_STRIDE
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    passed = np.empty(size, dtype=np.bool_)
    running = np.empty(size, dtype=np.bool_)

    def draw(alive, lo, k, threshold, out):
        """Mask (a view of `out`) of the alive shots that pass draw k."""
        m = alive.size
        word = np.uint64((seed + (4 * lo + k + 1) * _GAMMA_INT) & MASK64)
        np.add(alive, word, out=z[:m])
        _mix64(z[:m], tmp[:m])
        return np.less(z[:m], threshold, out=out[:m])

    count = 0
    stop = start + shots
    for lo in range(start, stop, size):
        alive = stride[: min(size, stop - lo)]
        # the first draw after a compaction starts a new running mask
        fresh = True
        for k, threshold, compact in draws:
            if fresh:
                mask = draw(alive, lo, k, threshold, running)
            else:
                mask &= draw(alive, lo, k, threshold, passed)
            if compact:
                alive = np.compress(mask, alive)
            fresh = compact
        count += int(np.count_nonzero(mask))
    return count
