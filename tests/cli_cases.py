"""One table of CLI cases, each run as `python -m boundfilter` in a fresh
process.

A cross-tree case is run on two source trees, a change's and its base
commit's; both must print the same stdout and stderr and exit with the same
code.  Printed figures depend on the LAPACK build, so the two trees are
compared with each other on one machine, never with committed text.  A
contract case states its exit code and, where given, its stdout and stderr:
a string is the exact text, a function is a predicate on the text, and a
Like is another case's stdout with one substitution.
tests/test_cli_cases.py runs every contract case.  A case may be both.

Every case runs with RuntimeWarnings as errors and without BF_SEED, in
the directory that write_inputs filled; `{tmp}` stands for that directory
as ".", so no output depends on where it is.
The runner writes <name>.out, <name>.err and <name>.rc for each cross-tree
case; run it on two trees and compare the two directories:

    python tests/cli_cases.py --src src --out /tmp/head
    python tests/cli_cases.py --src ../base/src --out /tmp/base
    diff -r /tmp/base /tmp/head

Standard library and numpy only: the runner imports nothing of the trees
it runs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

TMP = "."


def fill(text: str) -> str:
    return text.replace("{tmp}", TMP)


@dataclass(frozen=True)
class Like:
    """The stdout of case `name`, with its first `old` replaced by `new`."""

    name: str
    old: str = ""
    new: str = ""


Expect = Union[None, str, Like, Callable[[str], bool]]


@dataclass(frozen=True)
class Case:
    name: str
    argv: str  # split on whitespace; no argument holds a space
    cross_tree: bool = False
    rc: Optional[int] = None  # None: not a contract case
    out: Expect = None  # None: not checked
    err: Expect = None
    close_after: int = 0  # the reader closes stdout after this many lines

    def args(self) -> list:
        return [fill(a) for a in self.argv.split()]


def one_error_line(prefix: str = "") -> Callable[[str], bool]:
    def holds(err):
        return err.count("\n") == 1 and err.startswith(f"error: {prefix}")

    return holds


def all_ppt(out: str) -> bool:
    """A header and 101 rows, every one of them PPT."""
    rows = out.splitlines()
    return len(rows) == 102 and {r.split(",")[3] for r in rows[1:]} == {"true"}


HUGE_FILTER = (
    "error: filter factors L and M are too large: sigma_max(L) * "
    "sigma_max(M) = 1e+308 exceeds 1.3407807929942596e+154\n"
)

CASES = [
    # -- run on both trees ------------------------------------------------
    Case("verify", "verify-paper", cross_tree=True, rc=0,
         out=lambda out: out.endswith("\n8/8 checks passed\n"), err=""),
    Case("scan", "scan --t 0.05 --x-min 0 --x-max 0.98 --steps 101 "
         "--witness choi-phi:A --filter choi-example", cross_tree=True, rc=0,
         out=all_ppt, err=""),
    Case("analytic", "simulate rho-xt:0.63:0.05 choi-example --analytic",
         cross_tree=True, rc=0, err=""),
    Case("simulate", "simulate bell gisin:0.6 --seed 7", cross_tree=True),
    # a low-yield pair at 2*10^6 shots: about 9% of shots pass
    Case("low-yield", "simulate bell gisin:0.3 --shots 2000000 --seed 2024",
         cross_tree=True),
    # two skipped draws, a short last block, and per-range words that wrap
    # past 2^64 from the largest seed
    Case("lottery-wrap", "simulate rho-xt:0.63:0.05 choi-example "
         "--shots 1999999 --seed 18446744073709551615", cross_tree=True),
    Case("detect", "detect rho-upb choi-psi:B --filter upb-rotation",
         cross_tree=True),
    Case("export", "export", cross_tree=True),
    Case("file-analytic", "simulate {tmp}/state.json {tmp}/filter.json "
         "--analytic", cross_tree=True),
    Case("file-simulate", "simulate {tmp}/state.json {tmp}/filter.json "
         "--seed 7", cross_tree=True),
    Case("file-detect", "detect {tmp}/state.json choi-phi:A "
         "--filter {tmp}/filter.json", cross_tree=True),
    # 2^20 choi-example: the prescale keeps its filtered state exact
    Case("scaled-detect", "detect rho-xt:0.63:0.05 choi-phi:A "
         "--filter {tmp}/scaled-filter.json", cross_tree=True),
    # at t = 4 the grid leaves the PSD region: 51 rows, then the gate's
    # error, from a block the certificate fails
    Case("boundary", "scan --t 4 --x-min 0.3 --x-max 0.7 --steps 101 "
         "--witness choi-phi:B --filter choi-example", cross_tree=True,
         rc=2, err=one_error_line("positivity invariant failed: ")),
    # 65 points: the 65th sits alone in the last block, so its gate sees a
    # stack of one, inside the PSD region and, at t = 4, just past its edge
    # x = 0.5
    Case("lone-block", "scan --t 0.05 --x-min 0 --x-max 0.64 --steps 65 "
         "--witness choi-phi:A --filter choi-example", cross_tree=True, rc=0,
         err=""),
    Case("lone-block-boundary", "scan --t 4 --x-min 0.49 --x-max 0.5001 "
         "--steps 65 --witness choi-phi:B --filter choi-example",
         cross_tree=True, rc=2, out=lambda out: out.count("\n") == 65,
         err=one_error_line("positivity invariant failed: ")),
    # malformed copies of the state: the decoder's error for the first bad
    # row or cell
    Case("bad-true", "detect {tmp}/bad-true.json transpose:B",
         cross_tree=True, rc=2, out="",
         err="error: state matrix row 4 col 2: expected a [re, im] pair\n"),
    Case("bad-huge", "detect {tmp}/bad-huge.json transpose:B",
         cross_tree=True, rc=2, out="",
         err="error: state matrix row 7 col 5: entry is NaN or infinite\n"),
    Case("bad-ragged", "detect {tmp}/bad-ragged.json transpose:B",
         cross_tree=True, rc=2, out="",
         err="error: state matrix row 5: has 8 entries, expected 9\n"),
    # unequal sides show a wrong order of the axes
    Case("d23-transpose-A", "detect {tmp}/state23.json transpose:A",
         cross_tree=True),
    Case("d23-transpose-B", "detect {tmp}/state23.json transpose:B",
         cross_tree=True),
    Case("d23-choi-phi-B", "detect {tmp}/state23.json choi-phi:B",
         cross_tree=True),
    # -- the contract, run on one tree --------------------------------------
    Case("help", "--help", rc=0, out=lambda out: out.startswith("usage: "),
         err=""),
    Case("detect-directory", "detect {tmp}/ choi-phi:A", rc=2, out="",
         err="error: {tmp}/: Is a directory\n"),
    # scan checks t first, by catalog.require_t's rule and wording
    Case("scan-t-inf", "scan --t inf --x-min 0 --x-max 0.5 --steps 3 "
         "--witness choi-phi:A", rc=2, out="",
         err="error: t must be finite and positive, got inf\n"),
    Case("scan-t-negative", "scan --t -1 --x-min 0 --x-max 0.5 --steps 3 "
         "--witness choi-phi:A", rc=2, out="",
         err="error: t must be positive, got -1.0\n"),
    # then x, by catalog.require_x's rule and wording, before the order of
    # the range: the same line as the rho-xt label's
    Case("scan-x-above-1", "scan --t 0.05 --x-min 0 --x-max 1.5 --steps 3 "
         "--witness choi-phi:A", rc=2, out="",
         err="error: x must lie in [0, 1], got 1.5\n"),
    Case("detect-x-nan", "detect rho-xt:nan:0.05 choi-phi:A", rc=2, out="",
         err="error: x must be finite, got nan\n"),
    Case("detect-unknown-kind", "detect bell bogus:A", rc=2, out="",
         err="error: unknown witness kind 'bogus' "
         "(valid: choi-phi, choi-psi, transpose)\n"),
    Case("analytic-seed-negative", "simulate bell identity --analytic "
         "--seed -1", rc=2, out="",
         err="error: --seed must lie in [0, 2^64), got -1\n"),
    Case("choi-on-a-qubit", "detect bell choi-phi:A", rc=2, out="",
         err="error: choi-phi requires a 3-dimensional side, "
         "got local_dim=2\n"),
    # an integer beyond float range rounds to infinity
    Case("entry-10-to-400", "detect {tmp}/big.json transpose:A", rc=2,
         out="",
         err="error: state matrix row 0 col 0: entry is NaN or infinite\n"),
    Case("zero-trace", "detect {tmp}/zero.json transpose:A", rc=2, out="",
         err="error: trace invariant failed: trace = 0.0\n"),
    # finite entries whose eigensolve overflows: the error line alone,
    # without numpy's warnings
    Case("overflowing-solve", "detect {tmp}/off.json transpose:A", rc=2,
         out="",
         err="error: positivity invariant failed: min eigenvalue = nan\n"),
    Case("huge-filter-detect", "detect bell transpose:A "
         "--filter {tmp}/huge-filter.json", rc=2, out="", err=HUGE_FILTER),
    Case("huge-filter-simulate", "simulate bell {tmp}/huge-filter.json "
         "--analytic", rc=2, out="", err=HUGE_FILTER),
    # a factor of condition number 1e7 filters |1,0><1,0| at yield 1e-14
    Case("cond-1e7-detect", "detect {tmp}/e10.json choi-phi:A "
         "--filter {tmp}/cond-1e7.json", rc=0, err=""),
    Case("cond-1e7-simulate", "simulate {tmp}/e10.json {tmp}/cond-1e7.json "
         "--analytic", rc=0, err=""),
    # a filter's scale changes only its yield: 2^-60 choi-example prints
    # choi-example's output apart from the label
    Case("choi-example-detect", "detect rho-xt:0.63:0.05 choi-phi:A "
         "--filter choi-example", rc=0, err=""),
    Case("tiny-filter-detect", "detect rho-xt:0.63:0.05 choi-phi:A "
         "--filter {tmp}/tiny-filter.json", rc=0, err="",
         out=Like("choi-example-detect", "|choi-example",
                  "|{tmp}/tiny-filter.json")),
    Case("tiny-filter-simulate", "simulate rho-xt:0.63:0.05 "
         "{tmp}/tiny-filter.json --analytic", rc=0, err="",
         out=Like("analytic")),
    # a factor of condition number 1e17 is singular, whatever its sigma_min
    Case("cond-1e17", "detect rho-xt:0.63:0.05 choi-phi:A "
         "--filter {tmp}/cond-1e17.json", rc=2, out="",
         err="error: filter factor L is singular "
         "(smallest singular value 1.000e-11)\n"),
    Case("deep-json", "detect {tmp}/deep.json choi-phi:A", rc=2, out="",
         err="error: {tmp}/deep.json: JSON nested too deeply\n"),
    # a reader that leaves after two lines: one error line, no traceback
    Case("closed-stdout", "scan --t 0.05 --x-min 0 --x-max 0.98 "
         "--steps 20000 --witness choi-phi:A", rc=2, err=one_error_line(),
         close_after=2),
]


def write_inputs(directory) -> None:
    """Write the state and filter files the cases read, from one seeded
    generator, so that every run writes the same bytes."""
    d = Path(directory)

    def dump(name, obj):
        (d / name).write_text(json.dumps(obj))

    rng = np.random.default_rng(20)

    def gauss(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def pairs(m):
        return [[[z.real, z.imag] for z in row] for row in np.asarray(m).tolist()]

    def diag(v):
        return pairs(np.diag(np.asarray(v, dtype=float)))

    def unit_state(n):
        g = gauss(n)
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    rho = unit_state(9)
    dump("state.json", {"dimA": 3, "dimB": 3, "matrix": pairs(rho)})
    dump("filter.json", {"L": pairs(gauss(3) + 3 * np.eye(3)),
                         "M": pairs(gauss(3) + 3 * np.eye(3))})
    bad = {"true": pairs(rho), "huge": pairs(rho), "ragged": pairs(rho)}
    bad["true"][4][2][0] = True
    bad["huge"][7][5][1] = 10**400
    del bad["ragged"][5][3]
    for name, m in bad.items():
        dump(f"bad-{name}.json", {"dimA": 3, "dimB": 3, "matrix": m})
    dump("state23.json", {"dimA": 2, "dimB": 3, "matrix": pairs(unit_state(6))})
    dump("scaled-filter.json", {"L": diag([2.0**20, 2.0**20 * 5 / 8,
                                           2.0**20 * 5 / 8]),
                                "M": diag([1, 1, 1])})
    dump("big.json", {"dimA": 1, "dimB": 1, "matrix": [[[10**400, 0]]]})
    dump("zero.json", {"dimA": 1, "dimB": 1, "matrix": [[[0.0, 0.0]]]})
    dump("off.json", {"dimA": 2, "dimB": 1,
                      "matrix": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]})
    dump("huge-filter.json", {"L": diag([1e308, 1e308]), "M": diag([1, 1])})
    dump("tiny-filter.json", {"L": diag([2.0**-60, 2.0**-60 * 5 / 8,
                                         2.0**-60 * 5 / 8]),
                              "M": diag([1, 1, 1])})
    dump("cond-1e17.json", {"L": diag([1e6, 1, 1e-11]), "M": diag([1, 1, 1])})
    dump("cond-1e7.json", {"L": diag([1, 1e-7, 1]), "M": diag([1, 1, 1])})
    dump("e10.json", {"dimA": 3, "dimB": 3,
                      "matrix": diag([0, 0, 0, 1, 0, 0, 0, 0, 0])})
    (d / "deep.json").write_text("[" * 200000 + "]" * 200000)


def run(case: Case, src, cwd) -> tuple:
    """(stdout, stderr, exit code) of `case` run on the package under
    `src`, in the directory `cwd` that write_inputs filled, with
    RuntimeWarnings as errors and no BF_SEED."""
    env = {k: v for k, v in os.environ.items() if k != "BF_SEED"}
    env.update(
        PYTHONPATH=str(Path(src).resolve()),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    argv = [sys.executable, "-m", "boundfilter", *case.args()]
    if not case.close_after:
        res = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
        return res.stdout, res.stderr, res.returncode
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        out = b"".join(proc.stdout.readline() for _ in range(case.close_after))
        proc.stdout.close()
        return out, proc.stderr.read(), proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run every cross-tree CLI case on one source tree and "
        "write <name>.out, <name>.err and <name>.rc for each."
    )
    parser.add_argument("--src", required=True, type=Path,
                        help="the tree's src directory")
    parser.add_argument("--out", required=True, type=Path,
                        help="directory to write the outputs to")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for case in CASES:
            if case.cross_tree:
                out, err, rc = run(case, args.src, tmp)
                (args.out / f"{case.name}.out").write_bytes(out)
                (args.out / f"{case.name}.err").write_bytes(err)
                (args.out / f"{case.name}.rc").write_text(f"{rc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
