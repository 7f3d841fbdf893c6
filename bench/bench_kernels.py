"""Timing harness for the two kernel paths.

With numba installed and enabled, compares the compiled Jacobi eigensolver
against the LAPACK fallback and the compiled acceptance lottery against its
vectorized numpy twin, after verifying that both paths agree.  Without it
only the numpy paths run, and the output says so.  Run from the repository
root:

    python3 bench/bench_kernels.py --reps 2000 --shots 1000000
"""

import argparse
import os
import time

import numpy as np

from boundfilter import kernels, linalg


def random_herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def time_call(fn, reps):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e6  # us per call


def bench_eigh(rng, reps, jit):
    print("eigensolver (us/call, lower is better)")
    if not jit:
        print(f"  {'size':>6} {'lapack':>12}")
    else:
        print(f"  {'size':>6} {'jacobi-jit':>12} {'lapack':>12} {'max |dw|':>12}")
    for n in (9, 18):
        mats = [random_herm(rng, n) for _ in range(16)]
        t_np = time_call(lambda: np.linalg.eigh(mats[0]), reps)
        if not jit:
            print(f"  {n:>4}x{n:<2} {t_np:>12.2f}")
            continue
        # agreement first: identical inputs through both paths
        worst = 0.0
        for m in mats:
            w_jit, _ = kernels.jacobi_eigh(m)
            w_np = np.linalg.eigvalsh(m)
            worst = max(worst, float(np.abs(w_jit - w_np).max()))
        t_jit = time_call(lambda: kernels.jacobi_eigh(mats[0]), reps)
        print(f"  {n:>4}x{n:<2} {t_jit:>12.2f} {t_np:>12.2f} {worst:>12.3e}")


def bench_lottery(rng, shots, reps, jit):
    probs = [0.7482476635514017, 0.7897150663544107, 1.0, 1.0]
    seed = 31337
    rows = []
    if jit:
        os.environ["BF_DISABLE_NUMBA"] = "0"
        n_jit = kernels.accept_count(seed, probs, shots)
        t_jit = time_call(
            lambda: kernels.accept_count(seed, probs, shots), reps
        )
        rows.append(("jit", t_jit, n_jit))
    os.environ["BF_DISABLE_NUMBA"] = "1"
    n_np = kernels.accept_count(seed, probs, shots)
    t_np = time_call(
        lambda: kernels.accept_count(seed, probs, shots), reps
    )
    os.environ["BF_DISABLE_NUMBA"] = "0"
    rows.append(("numpy", t_np, n_np))
    print(f"acceptance lottery ({shots} shots, ms/call)")
    print(f"  {'path':>6} {'ms/call':>12} {'accepted':>12}")
    for path, t, n in rows:
        print(f"  {path:>6} {t / 1e3:>12.2f} {n:>12}")
    if jit:
        agree = "identical" if rows[0][2] == rows[1][2] else "MISMATCH"
        print(f"  counts {agree}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=2000,
                        help="repetitions per eigensolver timing")
    parser.add_argument("--shots", type=int, default=1_000_000,
                        help="lottery shots per call")
    parser.add_argument("--lottery-reps", type=int, default=5,
                        help="repetitions per lottery timing")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    jit = kernels.numba_enabled()
    print(f"numba available: {kernels.HAVE_NUMBA}")
    if jit:
        print("paths timed: numba jit and numpy/LAPACK")
        print("warming up compiled kernels ...")
        kernels.warm_up()
    else:
        print("paths timed: numpy/LAPACK only (numba jit not enabled)")
    print()
    bench_eigh(rng, args.reps, jit)
    print()
    bench_lottery(rng, args.shots, args.lottery_reps, jit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
