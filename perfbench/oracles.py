"""Independent reference routes for checking what the CLI prints.

Nothing here imports boundfilter.  States and filters are rebuilt from
their defining formulas, the Choi maps act through explicit Kraus
sandwiches, partial transposes swap blocks by hand, eigenvalues come from
np.linalg.eigvalsh, and the shot lottery is recounted with a splitmix64
written separately from the package's.  Matrix functions accept a stack
of shape (N, n, n) as well as a single (n, n) matrix, so one call checks a
whole scan.
"""

import numpy as np

SQ2 = 1.0 / np.sqrt(2.0)
MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# catalog states and filters, from their formulas
# ---------------------------------------------------------------------------

_XT_COUPLINGS = ((0, 4), (0, 8), (1, 3), (2, 6), (4, 8), (5, 7))


def rho_xt(xs, t):
    """Stack of the two-parameter family, one 9x9 matrix per x."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    m = np.zeros((xs.size, 9, 9), dtype=complex)
    diag = [1 + t, t, 1 / t, 1 / t, 1 + t, t, 1, 1 / t, 1]
    for i, d in enumerate(diag):
        m[:, i, i] = d
    for i, j in _XT_COUPLINGS:
        m[:, i, j] = xs
        m[:, j, i] = xs
    return m / (4.0 + 3.0 / t + 4.0 * t)


def rho_upb():
    """Uniform mixture on the complement of the five tile product vectors."""
    e = np.eye(3)
    minus01 = (e[0] - e[1]) * SQ2
    minus12 = (e[1] - e[2]) * SQ2
    uniform = np.ones(3) / np.sqrt(3.0)
    tiles = [
        np.kron(e[0], minus01),
        np.kron(e[2], minus12),
        np.kron(minus01, e[2]),
        np.kron(minus12, e[0]),
        np.kron(uniform, uniform),
    ]
    p = np.eye(9, dtype=complex)
    for v in tiles:
        p -= np.outer(v, v)
    return p / 4.0


def bell():
    v = np.array([SQ2, 0.0, 0.0, SQ2])
    return np.outer(v, v).astype(complex)


def catalog_filter(label):
    """(L, M) of a catalog filter label, parameters after a colon."""
    name, _, param = label.partition(":")
    if name == "choi-example":
        return np.diag([1.0, 5 / 8, 5 / 8]), np.eye(3)
    if name == "upb-rotation":
        rot = np.array([[SQ2, 0.0, -SQ2], [0.0, 1.0, 0.0], [SQ2, 0.0, SQ2]])
        return np.eye(3), rot
    if name == "gisin":
        k = float(param)
        return np.diag([k, 1.0]), np.diag([1.0, k])
    raise ValueError(f"no oracle for filter {label!r}")


# ---------------------------------------------------------------------------
# maps and filters
# ---------------------------------------------------------------------------


def _sandwich(k, rho):
    return k @ rho @ k.conj().T


def filtered(l, m, rho):
    """((L x M) rho (L x M)^dag / yield, yield) for a stack or a matrix."""
    out = _sandwich(np.kron(l, m), rho)
    weight = np.trace(out, axis1=-2, axis2=-1).real
    return out / weight[..., None, None], weight


def partial_transpose(rho, dims, side):
    """Transpose one factor by swapping blocks (side A) or transposing
    each block in place (side B)."""
    da, db = dims
    out = np.empty_like(rho)
    for i in range(da):
        for k in range(da):
            rows = slice(i * db, (i + 1) * db)
            cols = slice(k * db, (k + 1) * db)
            if side == "B":
                out[..., rows, cols] = np.swapaxes(rho[..., rows, cols], -1, -2)
            else:
                src_r = slice(k * db, (k + 1) * db)
                src_c = slice(i * db, (i + 1) * db)
                out[..., rows, cols] = rho[..., src_r, src_c]
    return out


def one_sided_map(rho, kind, side, dims):
    """(map x id) rho or (id x map) rho.

    The Choi maps are (1/2)(-X + 2 sum_i E_ii X E_ii + sum_i S_i X S_i^dag)
    with S_i = E_{i, i-1} for choi-phi and E_{i, i+1} for choi-psi (indices
    mod 3); transpose is the partial transpose.
    """
    if kind == "transpose":
        return partial_transpose(rho, dims, side)
    shift = {"choi-phi": -1, "choi-psi": 1}[kind]
    other = np.eye(dims[1] if side == "A" else dims[0])

    def lift(k):
        return np.kron(k, other) if side == "A" else np.kron(other, k)

    acc = -rho
    for i in range(3):
        diag = np.zeros((3, 3))
        diag[i, i] = 1.0
        step = np.zeros((3, 3))
        step[i, (i + shift) % 3] = 1.0
        acc = acc + 2.0 * _sandwich(lift(diag), rho) + _sandwich(lift(step), rho)
    return 0.5 * acc


def min_eig(h):
    return np.linalg.eigvalsh(h)[..., 0]


# ---------------------------------------------------------------------------
# measurement protocol and lottery
# ---------------------------------------------------------------------------


def _modulus(a):
    """|A| = (A^dag A)^(1/2) and sigma_max(A), from LAPACK's SVD."""
    _, s, vh = np.linalg.svd(a)
    return (vh.conj().T * s) @ vh, s[0]


def branch_probs(l, m, rho):
    """The four conditional acceptance probabilities of the protocol.

    Alice's outcome has probability tr((|L|/sL x I) rho), her ancilla
    readout brings the cumulative weight to tr((L^dag L/sL^2 x I) rho), and
    Bob's two steps do the same with M on top.  These operators do not
    depend on which SVD the package picked, so the comparison is exact up
    to rounding.
    """
    mod_l, sl = _modulus(l)
    mod_m, sm = _modulus(m)
    gram_l = l.conj().T @ l / sl**2
    gram_m = m.conj().T @ m / sm**2
    eye_a, eye_b = np.eye(l.shape[0]), np.eye(m.shape[0])
    cumulative = [
        np.trace(np.kron(op_a, op_b) @ rho).real
        for op_a, op_b in (
            (mod_l / sl, eye_b),
            (gram_l, eye_b),
            (gram_l, mod_m / sm),
            (gram_l, gram_m),
        )
    ]
    prev = [1.0] + cumulative[:-1]
    return [c / p for c, p in zip(cumulative, prev)]


def analytic_total_prob(l, m, rho):
    """yield / (sigma_max(L) sigma_max(M))^2."""
    _, weight = filtered(l, m, rho)
    sl = np.linalg.svd(l, compute_uv=False)[0]
    sm = np.linalg.svd(m, compute_uv=False)[0]
    return float(weight) / (sl * sm) ** 2


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _uniforms(seed, counters):
    """Uniforms of draws `counters` (1-based) of the seeded stream."""
    z = np.uint64(seed & MASK64) + counters * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def accept_count(seed, probs, shots, chunk=1 << 17):
    """Shots that pass all four draws; shot i uses draws 4i+1 .. 4i+4.

    Survivors of each draw go on to the next one, in fixed-size chunks, so
    the route and its memory differ from the package's.
    """
    total = 0
    for start in range(0, shots, chunk):
        alive = np.arange(start, min(start + chunk, shots), dtype=np.uint64)
        for k, p in enumerate(probs):
            draw = alive * np.uint64(4) + np.uint64(k + 1)
            alive = alive[_uniforms(seed, draw) < p]
        total += alive.size
    return total


def splitmix64_py(seed, n):
    """Draw n (1-based) of the stream in Python integers: a cross-check on
    the vectorized route."""
    z = (seed + n * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def accept_count_py(seed, probs, shots):
    count = 0
    for i in range(shots):
        if all(
            (splitmix64_py(seed, 4 * i + k + 1) >> 11) / float(1 << 53) < p
            for k, p in enumerate(probs)
        ):
            count += 1
    return count
