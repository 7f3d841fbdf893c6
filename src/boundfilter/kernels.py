"""The shot lottery of the Monte-Carlo protocol simulator.

Randomness comes from one counter-addressed splitmix64 stream: draw n of a
run is mix64(seed + (n + 1) * GAMMA) mod 2^64, and shot i consumes draws
4i .. 4i + 3, so the four uniforms of any shot depend only on (seed, shot
index).  Runs are reproducible and the accept count over [0, N) equals the
sum over any partition of the index range.  `uniform_block` materializes
the stream as uniforms and is the reference the lottery is tested against.

The lottery walks the shots in blocks of LOTTERY_BLOCK, so its memory is
bounded by the block size at any shot count.  Within a block it computes
draw k only for the shots that passed draws 1 .. k-1.  Each draw is decided
on the raw 64-bit word: with u = (z >> 11) * 2^-53, u < p holds exactly when
z < ceil(p * 2^53) << 11, because p * 2^53 is exact in binary64 for p < 1.
A probability of 1 or more passes every shot and is skipped; one that is
zero, negative or NaN passes none.
"""

import math

import numpy as np

MASK64 = (1 << 64) - 1
GENERATOR_NAME = "splitmix64"
LOTTERY_BLOCK = 1 << 16

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


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, applied in place to a uint64 array."""
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def uniform_block(seed: int, start: int, shots: int) -> np.ndarray:
    """The (shots, 4) array of uniforms consumed by shots [start, start+shots).

    Column k holds the k-th conditional draw of each shot.  This is the
    documented stream; the lottery computes the same words block by block.
    """
    n = np.arange(start, start + shots, dtype=np.uint64)[:, None] * _FOUR
    n = n + np.arange(1, 5, dtype=np.uint64)[None, :]
    z = np.uint64(seed & MASK64) + n * _GAMMA
    return (_mix64(z) >> _S11) * _INV53


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
    # draw k of shot i hashes 4i * GAMMA + offset_k; a draw with p >= 1
    # passes every shot and is left out
    draws = [
        (
            np.uint64((seed + (k + 1) * _GAMMA_INT) & MASK64),
            np.uint64(math.ceil(pk * (1 << 53)) << 11),
        )
        for k, pk in enumerate(p)
        if pk < 1.0
    ]
    count = 0
    stop = start + shots
    for lo in range(start, stop, LOTTERY_BLOCK):
        # 4i * GAMMA mod 2^64 for every shot i still alive in this block
        base = np.arange(lo, min(lo + LOTTERY_BLOCK, stop), dtype=np.uint64)
        base *= _SHOT_STRIDE
        for offset, threshold in draws:
            z = base + offset
            base = base[_mix64(z) < threshold]
        count += base.size
    return count
