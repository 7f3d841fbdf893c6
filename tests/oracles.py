"""Independent reference routes used to check the package's answers.

Nothing here calls back into the package's numerical code paths, with three
exceptions: raw_density builds a DensityOperator while bypassing its
validation so tests can probe how downstream code treats bad input, the
per-case loops of two acceptance checks call the measure functions they
batch, and the matmul protocol walk calls the linalg helpers and the
normalize step that the walk itself calls.
main_per_call reruns the package's cmd_* functions: it is a reference for
the argument parsing and dispatch around them, not for their results.
spy_solves records which LAPACK solves a package call makes.
"""

import argparse
import math
import sys
import warnings

import numpy as np

from boundfilter import cli, linalg, measure, witness
from boundfilter.errors import BoundFilterError, ParseError
from boundfilter.states import DensityOperator, normalize

MASK64 = (1 << 64) - 1


def faddeev_leverrier(h):
    """Characteristic polynomial coefficients [1, c1, ..., cn] via the
    trace recursion (no eigensolver involved)."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ m) / k
    return coeffs


def brute_eigvals(h):
    """Eigenvalues of a Hermitian matrix as roots of its characteristic
    polynomial, sorted ascending."""
    roots = np.roots(faddeev_leverrier(h))
    return np.sort(roots.real)


def kron_loops(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def pt_b_loops(m, da, db):
    """Partial transpose on side B, written as explicit block loops; a
    stack of matrices is transposed matrix by matrix."""
    m = np.asarray(m)
    out = np.zeros_like(m, dtype=complex)
    for i in range(da):
        for k in range(da):
            rows = slice(i * db, (i + 1) * db)
            cols = slice(k * db, (k + 1) * db)
            out[..., rows, cols] = np.swapaxes(m[..., rows, cols], -1, -2)
    return out


def herm_defect(a):
    """Max absolute entrywise deviation from a == a^dag, per matrix."""
    a = np.asarray(a)
    return np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1))


def choi_phi(a):
    """First Choi-type map on a 3x3 matrix, written out entry by entry.

    Diagonal of the output mixes in the cyclically previous diagonal entry
    (pattern a11+a33, a22+a11, a33+a22); off-diagonal entries are negated.
    Overall factor 1/2 makes the map trace preserving.
    """
    a = np.asarray(a, dtype=complex)
    return 0.5 * np.array(
        [
            [a[0, 0] + a[2, 2], -a[0, 1], -a[0, 2]],
            [-a[1, 0], a[1, 1] + a[0, 0], -a[1, 2]],
            [-a[2, 0], -a[2, 1], a[2, 2] + a[1, 1]],
        ]
    )


def choi_psi(a):
    """Second Choi-type map: mixes in the cyclically next diagonal entry
    (pattern a11+a22, a22+a33, a33+a11), off-diagonals negated, factor 1/2.
    """
    a = np.asarray(a, dtype=complex)
    return 0.5 * np.array(
        [
            [a[0, 0] + a[1, 1], -a[0, 1], -a[0, 2]],
            [-a[1, 0], a[1, 1] + a[2, 2], -a[1, 2]],
            [-a[2, 0], -a[2, 1], a[2, 2] + a[0, 0]],
        ]
    )


def superoperator_by_units(kind, d):
    """The d^2 x d^2 matrix whose column k * d + l is the row-major
    flattening of the map `kind` (a witness kind, written out above or
    np.transpose) applied to the complex matrix unit E_kl."""
    mapf = {
        "choi-phi": choi_phi, "choi-psi": choi_psi, "transpose": np.transpose
    }[kind]
    s = np.empty((d * d, d * d), dtype=np.complex128)
    for k in range(d * d):
        unit = np.zeros(d * d, dtype=np.complex128)
        unit[k] = 1.0
        s[:, k] = mapf(unit.reshape(d, d)).reshape(-1)
    return s


def _regroup(m, d1, d2, e1, e2):
    """View each matrix of m with axes (d1, d2, e1, e2), swap the middle two
    and merge to (d1 * e1, d2 * e2)."""
    lead = m.shape[:-2]
    r = np.swapaxes(m.reshape(lead + (d1, d2, e1, e2)), -3, -2)
    return r.reshape(lead + (d1 * e1, d2 * e2))


def apply_witness_per_matrix(w, rho):
    """witness.apply_witness by regrouping: each density matrix is regrouped
    so that rows index side A's (i, j) pair and columns side B's (k, l)
    pair, multiplied by the superoperator from the left (side A) or by its
    transpose from the right (side B), one matrix at a time, and regrouped
    back."""
    da, db = rho.dim_a, rho.dim_b
    s = witness.superoperator(w.map, da if w.side is witness.Side.A else db)
    r = _regroup(rho.mat, da, db, da, db)
    r = s @ r if w.side is witness.Side.A else r @ s.T
    return _regroup(r, da, da, db, db)


def one_sided_phi_loops(rho, side, db_or_da):
    """Kraus-style route for the first Choi map on one side of a 3 x d or
    d x 3 state: phi = (1/2)(-id + 2 Pi_diag + Pi_shift) where Pi_diag
    sandwiches with E_ii and Pi_shift with E_{i, i-1 mod 3}."""
    return _one_sided_choi(rho, side, db_or_da, shift=-1)


def one_sided_psi_loops(rho, side, db_or_da):
    """Same construction for the second Choi map (shift +1)."""
    return _one_sided_choi(rho, side, db_or_da, shift=+1)


def _one_sided_choi(rho, side, other_dim, shift):
    rho = np.asarray(rho, dtype=complex)
    eye_other = np.eye(other_dim)
    acc = -rho.copy()
    for i in range(3):
        e_diag = np.zeros((3, 3))
        e_diag[i, i] = 1.0
        e_shift = np.zeros((3, 3))
        e_shift[i, (i + shift) % 3] = 1.0
        if side == "A":
            kd = np.kron(e_diag, eye_other)
            ks = np.kron(e_shift, eye_other)
        else:
            kd = np.kron(eye_other, e_diag)
            ks = np.kron(eye_other, e_shift)
        acc += 2.0 * kd @ rho @ kd.conj().T
        acc += ks @ rho @ ks.conj().T
    return 0.5 * acc


def _ancilla_projector(d):
    """[[D, Delta], [Delta, I - D]] with the ancilla coordinate first."""
    dm = np.diag(d)
    delta = np.diag(np.sqrt(d * (1.0 - d)))
    return np.block([[dm, delta], [delta, np.eye(d.size) - dm]])


def ancilla_protocol(l, m, rho, bob_first=False):
    """The filter L x M run as the two-ancilla measurement protocol, with the
    projection postulate on the extended spaces.

    Alice's qubit ancilla sits in front of her side (order anc, A, B) and
    Bob's between the two sides (order A, anc, B); each starts in |0>, is
    measured with the projector of its side's rescaled singular values and
    then read out in |0>.  Returns (final state, the four probabilities of
    those outcomes, each conditional on the earlier ones, in step order).
    """
    ul, sl, vl = np.linalg.svd(l)
    um, sm, vm = np.linalg.svd(m)
    da, db = l.shape[0], m.shape[0]
    ket0 = np.array([[1.0], [0.0]])
    alice = (
        np.kron(_ancilla_projector(sl / sl[0]), np.eye(db)),
        np.kron(ket0, np.eye(da * db)),
    )
    bob = (
        np.kron(np.eye(da), _ancilla_projector(sm / sm[0])),
        np.kron(np.kron(np.eye(da), ket0), np.eye(db)),
    )
    v = np.kron(vl, vm)
    state = v @ rho @ v.conj().T
    probs = []
    for proj, embed in (bob, alice) if bob_first else (alice, bob):
        ext = proj @ embed @ state @ embed.conj().T @ proj
        probs.append(np.trace(ext).real)
        kept = embed.conj().T @ (ext / probs[-1]) @ embed
        probs.append(np.trace(kept).real)
        state = kept / probs[-1]
    u = np.kron(ul, um)
    state = u @ state @ u.conj().T
    return state / np.trace(state).real, probs


# The randomized checks' draws taken one at a time, as the checks first
# took them: one standard_normal call per complex Gaussian matrix (real
# parts, then imaginary parts) and each filter factor redrawn until its
# smallest singular value exceeds the floor.


def gaussian_loop(rng, n):
    x = rng.standard_normal((2, n, n))
    return x[0] + 1j * x[1]


def invertible_loop(rng, n, floor):
    while True:
        g = gaussian_loop(rng, n)
        if np.linalg.svd(g, compute_uv=False)[-1] > floor:
            return g


def schmidt_draws_loop(rng, da, db, count, floor):
    """(ranks, A seeds, B seeds, Schmidt coefficients, L, M) of count
    cases: rank, two unitary seeds, coefficients, then L and M."""
    cases = []
    for _ in range(count):
        rank = int(rng.integers(1, min(da, db) + 1))
        ga = gaussian_loop(rng, da)
        gb = gaussian_loop(rng, db)
        coef = np.zeros(min(da, db))
        coef[:rank] = np.sort(rng.uniform(0.2, 1.0, size=rank))[::-1]
        coef = coef / np.linalg.norm(coef)
        l = invertible_loop(rng, da, floor)
        m = invertible_loop(rng, db, floor)
        cases.append((rank, ga, gb, coef, l, m))
    return tuple(np.array(v) for v in zip(*cases))


def ppt_draws_loop(rng, da, db, count, floor, terms=4):
    """(weights, A factors, B factors, L, M) of count cases: mixture
    weights, terms x (A factor, B factor), then L and M."""
    cases = []
    for _ in range(count):
        weights = rng.uniform(0.2, 1.0, size=terms)
        weights /= weights.sum()
        ga, gb = [], []
        for _ in range(terms):
            ga.append(gaussian_loop(rng, da))
            gb.append(gaussian_loop(rng, db))
        l = invertible_loop(rng, da, floor)
        m = invertible_loop(rng, db, floor)
        cases.append((weights, ga, gb, l, m))
    return tuple(np.array(v) for v in zip(*cases))


# The projector-algebra and postselection-block loops of the acceptance
# checks, one case at a time, as the checks first ran them.  They call the
# package's measure functions on lone cases: they are a reference for the
# checks' batching and draw order, not for those functions' results.


def projector_deviation_loop(diags):
    """Worst projector-algebra deviation, one diagonal at a time."""
    worst = 0.0
    for d in diags:
        p = measure.build_projector(d)
        n = d.size
        worst = max(worst, float(np.abs(p @ p - p).max()))
        worst = max(worst, float(np.abs(p - p.T.conj()).max()))
        worst = max(worst, abs(float(np.trace(p)) - n))
        terms = measure.rank_one_projectors(d)
        total = np.zeros_like(p)
        for i, ti in enumerate(terms):
            total += ti
            for j in range(i + 1, n):
                worst = max(worst, float(np.abs(ti @ terms[j]).max()))
        worst = max(worst, float(np.abs(total - p).max()))
    return worst


def worst_block_loop(rng, count):
    """Worst postselected-block deviation over count cases, each drawn and
    evaluated in turn."""
    worst_block = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 5))
        d = rng.uniform(0.05, 1.0, size=n)
        g = gaussian_loop(rng, n)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        block, _ = measure.postselect_diag(d, rho)
        oracle = np.diag(d) @ rho @ np.diag(d)
        worst_block = max(worst_block, float(np.abs(block - oracle).max()))
    return worst_block


def protocol_walk_matmul(f, rho):
    """measure.protocol_walk with each diagonal step as the matmuls by the
    kron'd diagonal matrix, as the walk first ran them: (output
    DensityOperator, weights)."""
    da, db = rho.dims
    d1 = measure.rescaled_diag(f.svd_l)
    d2 = measure.rescaled_diag(f.svd_m)
    state = linalg.sandwich(linalg.kron(f.svd_l.v, f.svd_m.v), rho.mat)
    # np.eye(k) * d[..., None, :] is diag(d), for each d of a stack
    weights = []
    for s in (
        linalg.kron(np.eye(da) * d1[..., None, :], np.eye(db)),
        linalg.kron(np.eye(da), np.eye(db) * d2[..., None, :]),
    ):
        weights.append(np.trace(s @ state, axis1=-2, axis2=-1).real)
        state = linalg.sandwich(s, state)
        weights.append(np.trace(state, axis1=-2, axis2=-1).real)
    state = linalg.sandwich(linalg.kron(f.svd_l.u, f.svd_m.u), state)
    out, _ = normalize(state, da, db)
    return out, np.stack(weights, axis=-1)


def pairs_to_matrix_loop(obj, what="matrix"):
    """formats.pairs_to_matrix as one loop over the cells, each checked and
    converted with complex(re, im) in turn, as it first decoded them."""
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{what}: expected a non-empty list of rows")
    ncols = None
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"{what} row {r}: expected a list")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ParseError(
                f"{what} row {r}: has {len(row)} entries, expected {ncols}"
            )
        vals = []
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, (list, tuple))
                or len(cell) != 2
                or not isinstance(cell[0], (int, float))
                or not isinstance(cell[1], (int, float))
                or isinstance(cell[0], bool)
                or isinstance(cell[1], bool)
            ):
                raise ParseError(
                    f"{what} row {r} col {c}: expected a [re, im] pair"
                )
            re, im = cell
            try:
                finite = math.isfinite(re) and math.isfinite(im)
            except OverflowError:
                finite = False
            if not finite:
                raise ParseError(
                    f"{what} row {r} col {c}: entry is NaN or infinite"
                )
            vals.append(complex(re, im))
        rows.append(vals)
    return np.array(rows, dtype=np.complex128)


def divide_parts(a, r):
    """Complex a / r for a real r: the real and imaginary parts divided
    apart, with no complex division."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(r)), complex)
    out.real = a.real / r
    out.imag = a.imag / r
    return out


def raw_density(mat, da, db) -> DensityOperator:
    """DensityOperator without invariant validation (tests only)."""
    obj = object.__new__(DensityOperator)
    object.__setattr__(obj, "dim_a", da)
    object.__setattr__(obj, "dim_b", db)
    object.__setattr__(obj, "mat", np.asarray(mat, dtype=complex))
    return obj


def splitmix64_py(seed, n):
    """The n-th (0-based) output of splitmix64 in pure Python integers."""
    z = (seed + (n + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def uniform_py(seed, n):
    return (splitmix64_py(seed, n) >> 11) / float(1 << 53)


def _mix64_np(z):
    """The splitmix64 finalizer on a uint64 array, out of place."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_block(seed, start, shots):
    """The (shots, 4) array of uniforms consumed by shots [start, start+shots).

    Column k holds the k-th conditional draw of each shot: the lottery's
    stream materialized, the reference its counts are checked against.
    """
    shot = np.arange(start, start + shots, dtype=np.uint64)[:, None]
    n = shot * np.uint64(4) + np.arange(1, 5, dtype=np.uint64)[None, :]
    z = np.uint64(seed & MASK64) + n * np.uint64(0x9E3779B97F4A7C15)
    return (_mix64_np(z) >> np.uint64(11)) * (1.0 / float(1 << 53))


def block_count(seed, probs, shots, start=0):
    """The accept count read off the materialized stream."""
    u = uniform_block(seed, start, shots)
    return int(np.all(u < np.asarray(probs)[None, :], axis=1).sum())


def spy_solves(monkeypatch):
    """Record (name, shape) of every factorization and eigenvalue solve."""
    calls = []
    for name in ("cholesky", "eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def random_herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T


def random_density_mat(rng, n):
    m = random_psd(rng, n)
    return m / np.trace(m).real


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# the CLI with a parser built per request
# ---------------------------------------------------------------------------


def build_parser_per_call() -> argparse.ArgumentParser:
    """A fresh argparse tree of the CLI, built as on every call before the
    CLI kept one parser; each subcommand carries its cmd_* function, read
    from the cli module now, as the `func` default."""
    parser = argparse.ArgumentParser(
        prog="boundfilter",
        description=(
            "Local filters, Choi-map witnesses and their measurement-based "
            "implementation for small bipartite states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "scan", help="witness sweep over the two-parameter family (CSV)"
    )
    p.add_argument("--t", type=float, required=True, help="family parameter t")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--witness", required=True, help="witness spec <kind>:<side>"
    )
    p.add_argument(
        "--filter", help="optional filter label or JSON file for a second column"
    )
    p.set_defaults(func=cli.cmd_scan)

    p = sub.add_parser("detect", help="one witness verdict (JSON)")
    p.add_argument("state", help="state label or JSON file")
    p.add_argument("witness", help="witness spec <kind>:<side>")
    p.add_argument("--filter", help="apply this filter before detecting")
    p.set_defaults(func=cli.cmd_detect)

    p = sub.add_parser(
        "simulate", help="run the measurement protocol (JSON)"
    )
    p.add_argument("state", help="state label or JSON file")
    p.add_argument("filter", help="filter label or JSON file")
    p.add_argument("--shots", type=int, default=cli.DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--analytic",
        action="store_true",
        help="closed-form protocol instead of Monte Carlo",
    )
    p.set_defaults(func=cli.cmd_simulate)

    p = sub.add_parser(
        "verify-paper", help="run the acceptance checks and print a table"
    )
    p.set_defaults(func=cli.cmd_verify_paper)

    p = sub.add_parser("export", help="dump catalog entries to JSON")
    p.set_defaults(func=cli.cmd_export)

    return parser


def main_per_call(argv) -> int:
    """cli.main as it ran with a parser built per request: parse with a
    fresh tree, then run the parsed `func`."""
    args = build_parser_per_call().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = cli._plain_warning
        try:
            return args.func(args)
        except FileNotFoundError as e:
            print(
                f"error: file not found: {e.filename or e}", file=sys.stderr
            )
            return 2
        except BoundFilterError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
