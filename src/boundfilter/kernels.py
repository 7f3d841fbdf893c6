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

The lottery walks the shots in blocks of LOTTERY_BLOCK.  It allocates its
working buffers once per call, at min(shots, LOTTERY_BLOCK) words, and every
block reuses them: the finalizer runs in place with a scratch buffer, and
the words of a block are one precomputed arange(size) * 4 * GAMMA plus a
scalar per draw.  Every draw that can reject is computed over the whole
block and its pass mask is ANDed into one running boolean mask; the block's
count is that mask's count.  The block is 2^15 shots (about 1 MB of
buffers): 2^14 and 2^16 were slower, and 2^16 raised the peak RSS of a
2*10^6-shot simulate by about 4%.
"""

import math

import numpy as np

MASK64 = (1 << 64) - 1
GENERATOR_NAME = "splitmix64"
LOTTERY_BLOCK = 1 << 15

_GAMMA_INT = 0x9E3779B97F4A7C15
# one shot advances the stream by four draws
_SHOT_STRIDE = np.uint64((4 * _GAMMA_INT) & MASK64)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


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
    # (k, integer threshold) of every draw that can reject a shot
    draws = [
        (k, np.uint64(math.ceil(pk * (1 << 53)) << 11))
        for k, pk in enumerate(p)
        if pk < 1.0
    ]
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

    def draw(lo, m, k, threshold, out):
        """Mask (a view of `out`) of the block's m shots that pass draw k."""
        word = np.uint64((seed + (4 * lo + k + 1) * _GAMMA_INT) & MASK64)
        np.add(stride[:m], word, out=z[:m])
        _mix64(z[:m], tmp[:m])
        return np.less(z[:m], threshold, out=out[:m])

    first, *rest = draws
    count = 0
    stop = start + shots
    for lo in range(start, stop, size):
        m = min(size, stop - lo)
        mask = draw(lo, m, *first, running)
        for k, threshold in rest:
            mask &= draw(lo, m, k, threshold, passed)
        count += int(np.count_nonzero(mask))
    return count
