"""A fixed reference kernel that tracks the host's speed.

On the shared host this benchmark was built on, the same request ran
35-50% slower for tens of seconds at a time, with CPU time equal to wall
time, so the slowdown is invisible to the process.  The benchmark times this
kernel between its requests and scales each request's latency by
REFERENCE_S / (recent kernel time): a request measured while the host ran
slow is reported at the speed the host had when REFERENCE_S was set.

The kernel does the package's kinds of work without calling the package:
Python loops over 3x3 blocks with small complex numpy arrays and Kronecker
products, a 9x9 Hermitian eigensolve, number formatting, building an
argparse parser, JSON encoding, and a pass over 64-bit integers like the
shot lottery's.  Its own code never changes, so a faster package shows as
a lower scaled latency.
"""

import argparse
import json
import time

import numpy as np

# kernel time, in seconds, at the speed the scaled figures are quoted at
REFERENCE_S = 0.015

_G = (np.arange(81).reshape(9, 9) % 7 - 3) * (1.0 + 0.5j) / 9.0
_H = _G + _G.conj().T
_STREAM = np.arange(1 << 17, dtype=np.uint64)


def _kernel():
    acc = 0.0
    for _ in range(40):
        out = np.zeros((9, 9), dtype=complex)
        unit = np.zeros((3, 3), dtype=complex)
        for a in range(3):
            for b in range(3):
                unit[a, b] = 1.0
                mapped = -unit + np.diag(np.diag(unit))
                out += np.kron(mapped, _H[a * 3:(a + 1) * 3, b * 3:(b + 1) * 3])
                unit[a, b] = 0.0
        acc += float(np.linalg.eigvalsh(out + out.conj().T)[0])
        acc += len(f"{acc:.15g}")
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    for k in range(5):
        p = sub.add_parser(f"c{k}")
        p.add_argument("--x", type=float)
        p.add_argument("y")
    pairs = [[[float(v.real), float(v.imag)] for v in row] for row in _H]
    acc += len(json.dumps({"matrix": pairs}, indent=2))
    z = _STREAM * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    acc += float((z >> np.uint64(11)).astype(np.float64).sum())
    return acc


def kernel_seconds():
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
