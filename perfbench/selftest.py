"""Self-test of the benchmark's checks; run from the root of a checkout:

    python3 perfbench/selftest.py

For every request shape of every workload it runs one request, requires
the check to accept the real output and to reject each corruption of it
(a flipped verdict, an accepted count off by one, an eigenvalue off by
1e-9, ...).  It also compares the vectorized lottery recount with a
pure-Python splitmix64, and confirms that the benchmark refuses to run,
printing no result, in a directory that holds only the benchmark.
Exits 0 when everything holds.
"""

import os
import shutil
import subprocess
import sys

import numpy as np

import oracles
import run
from checks import Checker, corruptions
from workloads import WORKLOADS

# enough requests to cover every shape in each stream
SHAPES = {"family-scan": 4, "mc-lottery": 3, "protocol-mix": 12,
          "verify-paper": 1}


def check_workloads(pkg, failures):
    for name, count in SHAPES.items():
        workdir = run.OUT / f"selftest-{os.getpid()}-{name}"
        wl = WORKLOADS[name](7, os.path.relpath(workdir, run.ROOT))
        checker = Checker(pkg)
        try:
            wl.prepare()
            for req in wl.first(count):
                rc, out, err, _ = run.call_cli(pkg, req.argv)
                reason = checker.check(req, rc, out)
                if reason is not None:
                    failures.append(f"{req.argv}: real output rejected: {reason}")
                    continue
                for what, bad in corruptions(req, out):
                    if checker.check(req, 0, bad) is None:
                        failures.append(f"{req.argv}: missed '{what}'")
                print(f"ok  {name:<13} {' '.join(req.argv)[:70]}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_recount(failures):
    rng = np.random.default_rng(11)
    for _ in range(6):
        probs = list(rng.uniform(0.5, 1.0, size=4))
        seed = int(rng.integers(0, 2**63))
        fast = oracles.accept_count(seed, probs, 3000, chunk=1000)
        slow = oracles.accept_count_py(seed, probs, 3000)
        if fast != slow:
            failures.append(f"lottery recount {fast} != pure-Python {slow}")
    print("ok  lottery recount matches pure-Python splitmix64")


def check_refuses_without_sources(failures):
    bare = run.OUT / f"selftest-{os.getpid()}-bare"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-paper",
             "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or '"correct"' in res.stdout:
        failures.append("benchmark ran without the package's sources")
    print(f"ok  refuses to run without sources (exit {res.returncode})")


def main():
    os.chdir(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    pkg = run.load_package()
    failures = []
    check_workloads(pkg, failures)
    check_recount(failures)
    check_refuses_without_sources(failures)
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
