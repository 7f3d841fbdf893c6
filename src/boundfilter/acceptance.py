"""The eight reproduction checks behind `verify-paper`.

Each check returns a CheckResult row (name, expected, observed, pass); the
suite is deterministic, uses fixed seeds, and prints no timings, so two
runs with the same build produce byte-identical reports.  The detection
checks compare witness minima with TOL_NEG as this module and witness bound
it at import: patching acceptance.TOL_NEG and witness.TOL_NEG moves them,
patching tolerances.TOL_NEG does not.

The randomized checks draw all their cases first, from fixed seeds in a
fixed order, and evaluate them as stacks.  There is one draw path: the
whole batch, then _screened redraws, from the same generator, only the
filter factors that fail the invertibility screen.  No factor fails it
at the shipped seeds, so nothing is redrawn there.  A stack holds matrices
of one size, so the projector-algebra and postselection-block cases, whose
sizes vary, are evaluated as one stack per size.  Their figures are
maxima, which do not depend on the order of the cases, and the rank-one
terms are still summed term by term, so each figure is the one that
evaluating the cases one at a time gives.
"""

from dataclasses import dataclass

import numpy as np

from . import catalog, kernels, linalg, measure, mcsim
from .filters import apply_filter, filtered_pure, make_filter
from .formats import fmt_num
from .states import DensityOperator, PureState, is_ppt, normalize, schmidt_rank
from .tolerances import TOL_NEG
from .witness import (
    MAPS,
    TRANSPOSE_B,
    Side,
    Witness,
    apply_map,
    apply_witness,
    detect,
)

# frozen on the first verified run; the filtered tile state's negative
# eigenvalue under (choi-psi, side B)
UPB_FILTERED_MIN_EIG = -0.008806706057633812

# window edges as printed: at t = 1/20, the roots of the integer cubics
# 6400000x^3 + 11739600x^2 - 5702109 (lower edge, 0.60442849583057445...)
# and 8000x^3 + 16800x^2 - 9471 (upper edge, 0.65547305095615981...),
# truncated to 4 decimals
WINDOW_LO = 0.6044
WINDOW_HI = 0.6554


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    observed: str
    passed: bool


# a drawn filter factor is kept when its smallest singular value exceeds this
INVERTIBLE_FLOOR = 1e-3


def _complex(x) -> np.ndarray:
    """Complex matrices from normals of shape (..., 2, n, n): each matrix's
    real parts, then its imaginary parts."""
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def _gaussian(rng, n, count=None) -> np.ndarray:
    """Complex Gaussian n x n matrix, or a stack of count of them.

    Each matrix's n * n real parts are drawn first, then its n * n
    imaginary parts, the matrices one after another; one call fills the
    whole block in that order.
    """
    return _complex(
        rng.standard_normal((2, n, n) if count is None else (count, 2, n, n))
    )


def _pair_size(dim_a, dim_b) -> int:
    """Normals drawn for one A matrix and one B matrix."""
    return 2 * dim_a * dim_a + 2 * dim_b * dim_b


def _gaussian_pairs(x, dim_a, dim_b):
    """The (A, B) pair of complex matrices, each as _gaussian draws it, from
    each row of _pair_size(dim_a, dim_b) normals along x's last axis."""
    na = 2 * dim_a * dim_a
    a = x[..., :na].reshape(x.shape[:-1] + (2, dim_a, dim_a))
    b = x[..., na:].reshape(x.shape[:-1] + (2, dim_b, dim_b))
    return _complex(a), _complex(b)


def _random_densities(rng, dim_a, dim_b, count) -> DensityOperator:
    """count random states g g^dag / tr, drawn one after another, as a stack."""
    g = _gaussian(rng, dim_a * dim_b, count)
    return normalize(g @ linalg.adjoint(g), dim_a, dim_b)[0]


def _unitaries(g) -> np.ndarray:
    """Haar unitaries from a stack of complex Gaussian matrices (QR with
    the phases of R's diagonal moved into Q)."""
    q, r = np.linalg.qr(g)
    dr = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (dr / np.abs(dr))[..., None, :]


def _schmidt_coefficients(rng, size, rank):
    """rank drawn Schmidt coefficients, normalized, zero-padded to size."""
    coef = np.zeros(size)
    coef[:rank] = np.sort(rng.uniform(0.2, 1.0, size=rank))[::-1]
    return coef / np.linalg.norm(coef)


def _pure_states(ga, gb, coef, dim_a, dim_b) -> PureState:
    """The kets sum_i c_i ua[:, i] x ub[:, i], one per row of coef, from the
    stacked Gaussian seeds of their unitaries."""
    ua = _unitaries(ga)
    ub = _unitaries(gb)
    amps = np.zeros((coef.shape[0], dim_a * dim_b), dtype=np.complex128)
    for i in range(coef.shape[1]):
        # column i of every unitary as a (d, 1) matrix, paired ket by ket
        cols = linalg.kron(ua[..., i : i + 1], ub[..., i : i + 1])[..., 0]
        amps += coef[:, i, None] * cols
    return PureState(dim_a, dim_b, amps)


def _screened(rng, g) -> np.ndarray:
    """The stack g of filter factors with every factor whose smallest
    singular value (values-only SVD) is at most INVERTIBLE_FLOOR redrawn
    from rng, in stack order, until none is."""
    g = g.copy()
    bad = np.arange(g.shape[0])
    while True:
        smin = np.linalg.svd(g[bad], compute_uv=False)[:, -1]
        bad = bad[smin <= INVERTIBLE_FLOOR]
        if bad.size == 0:
            return g
        g[bad] = _gaussian(rng, g.shape[-1], bad.size)


def _schmidt_cases(rng, dim_a, dim_b, count):
    """Draws of the Schmidt check's cases for one dims group: (ranks, the
    A and B unitary seeds, Schmidt coefficients, L factors, M factors).

    Each case draws its rank, its two unitary seeds (one standard_normal
    call), its coefficients, then its factors L and M (one call).  After
    the batch, _screened redraws the L factors, then the M factors, that
    fail the invertibility screen.
    """
    size = min(dim_a, dim_b)
    ranks, coefs = [], []
    x = np.empty((count, 2, _pair_size(dim_a, dim_b)))
    for k in range(count):
        ranks.append(int(rng.integers(1, size + 1)))
        rng.standard_normal(out=x[k, 0])
        coefs.append(_schmidt_coefficients(rng, size, ranks[-1]))
        rng.standard_normal(out=x[k, 1])
    a, b = _gaussian_pairs(x, dim_a, dim_b)
    ls = _screened(rng, a[:, 1])
    ms = _screened(rng, b[:, 1])
    return np.array(ranks), a[:, 0], b[:, 0], np.array(coefs), ls, ms


def _ppt_cases(rng, dim_a, dim_b, count, terms=4):
    """Draws of the PPT check's cases: (mixture weights, the mixtures' A
    and B factors with a term axis, L factors, M factors).

    Each case draws its weights, then its mixture factors and its filter
    factors with one standard_normal call.  After the batch, _screened
    redraws the L factors, then the M factors, that fail the
    invertibility screen.
    """
    weights = np.empty((count, terms))
    x = np.empty((count, terms + 1, _pair_size(dim_a, dim_b)))
    for k in range(count):
        w = rng.uniform(0.2, 1.0, size=terms)
        weights[k] = w / w.sum()
        rng.standard_normal(out=x[k])
    ga, gb = _gaussian_pairs(x, dim_a, dim_b)
    ls = _screened(rng, ga[:, terms])
    ms = _screened(rng, gb[:, terms])
    return weights, ga[:, :terms], gb[:, :terms], ls, ms


def _separable_states(weights, ga, gb, dim_a, dim_b) -> DensityOperator:
    """sum_k w_k pa_k / tr x pb_k / tr with p = g g^dag, one state per row
    of weights, as one stack."""
    pa = ga @ linalg.adjoint(ga)
    pb = gb @ linalg.adjoint(gb)
    pa = pa / np.trace(pa, axis1=-2, axis2=-1).real[..., None, None]
    pb = pb / np.trace(pb, axis1=-2, axis2=-1).real[..., None, None]
    n = dim_a * dim_b
    m = np.zeros((weights.shape[0], n, n), dtype=np.complex128)
    for k in range(weights.shape[1]):
        m += weights[:, k, None, None] * linalg.kron(pa[:, k], pb[:, k])
    return normalize(m, dim_a, dim_b)[0]


def _by_size(items, size):
    """items in groups of equal size(item), sizes ascending, each group in
    item order."""
    groups = {}
    for item in items:
        groups.setdefault(size(item), []).append(item)
    return [groups[n] for n in sorted(groups)]


def _postselection_cases(rng, count):
    """count (d, g) cases of the postselection block, drawn one after
    another: a size n in 2..4, a diagonal d in [0.05, 1)^n, then the
    complex Gaussian n x n seed g of its state."""
    cases = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        cases.append((rng.uniform(0.05, 1.0, size=n), _gaussian(rng, n)))
    return cases


def _worst_block(rng, count) -> float:
    """Largest entrywise deviation of postselect_diag's block from the
    sandwich D rho D over count drawn cases, rho = g g^dag / tr.

    The cases are drawn first; each size is then one stack.
    """
    worst = 0.0
    cases = _postselection_cases(rng, count)
    for group in _by_size(cases, lambda c: len(c[0])):
        d, g = (np.array(v) for v in zip(*group))
        rho = g @ linalg.adjoint(g)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        block, _ = measure.postselect_diag(d, rho)
        dm = np.eye(d.shape[1]) * d[:, None, :]
        worst = max(worst, float(np.abs(block - dm @ rho @ dm).max()))
    return worst


def _worst_projector_deviation(diags) -> float:
    """Largest deviation of the projector algebra over the diagonals:
    P^2 - P, P - P^dag, tr P - n, the overlaps of distinct rank-one terms
    and their running sum minus P.  Each size is one stack."""
    worst = 0.0
    for group in _by_size(diags, len):
        d = np.array(group)
        n = d.shape[1]
        p = measure.build_projector(d)
        worst = max(worst, float(np.abs(p @ p - p).max()))
        worst = max(worst, float(np.abs(p - linalg.adjoint(p)).max()))
        worst = max(
            worst, float(np.abs(np.trace(p, axis1=1, axis2=2) - n).max())
        )
        terms = measure.rank_one_projectors(d)
        # summed term by term, in order, as the residue is printed
        total = np.zeros_like(p)
        for i, ti in enumerate(terms):
            total += ti
            for j in range(i + 1, n):
                worst = max(worst, float(np.abs(ti @ terms[j]).max()))
        worst = max(worst, float(np.abs(total - p).max()))
    return worst


# ---------------------------------------------------------------------------
# the eight checks
# ---------------------------------------------------------------------------


def check_choi_window() -> CheckResult:
    """Filtered detection window of the two-parameter family at t = 1/20.

    Interior sampling: the printed left endpoint is a rounded-down edge (the
    exact filtered crossing is at x ~ 0.60442850), so the 50 probe points
    live strictly inside the open interval.
    """
    t = 0.05
    f = catalog.choi_example_filter()
    w = Witness(MAPS["choi-phi"], Side.A)

    def columns(xs, solve):
        # solve of the unfiltered and filtered witness images, one block of
        # points at a time
        unf, fil = [], []
        for start in range(0, xs.size, catalog.SWEEP_BLOCK):
            rho = catalog.rho_xt(xs[start : start + catalog.SWEEP_BLOCK], t)
            unf.append(solve(apply_witness(w, rho)))
            filtered, _ = apply_filter(f, rho)
            fil.append(solve(apply_witness(w, filtered)))
        return np.concatenate(unf), np.concatenate(fil)

    unf_vals, fil_vals = columns(
        np.linspace(WINDOW_LO, WINDOW_HI, 52)[1:-1], linalg.min_eigenvalue
    )
    unf_floor = unf_vals.min()
    fil_ceil = fil_vals.max()
    window_ok = bool(unf_floor >= -TOL_NEG and fil_ceil < -TOL_NEG)

    # on the grid only whether each minimum is at least zero is read
    grid = np.linspace(0.58, 0.68, 1000)
    unf_ok, fil_ok = columns(grid, lambda h: linalg.min_at_least(h, 0.0))

    def crossings(ok):
        idx = np.flatnonzero(ok[:-1] != ok[1:])
        return [(grid[i] + grid[i + 1]) / 2 for i in idx]

    # the filtered verdict flips at the lower edge, the unfiltered one at
    # the upper edge
    lo_edges = crossings(fil_ok)
    hi_edges = crossings(unf_ok)
    edges_ok = (
        len(lo_edges) == 1
        and len(hi_edges) == 1
        and abs(lo_edges[0] - WINDOW_LO) <= 0.002
        and abs(hi_edges[0] - WINDOW_HI) <= 0.002
    )
    passed = window_ok and edges_ok
    observed = (
        f"unfiltered floor {fmt_num(unf_floor)}, "
        f"filtered ceil {fmt_num(fil_ceil)}, "
        f"edges {fmt_num(lo_edges[0]) if lo_edges else 'none'} / "
        f"{fmt_num(hi_edges[0]) if hi_edges else 'none'}"
    )
    return CheckResult(
        name="choi-window",
        expected=(
            f"unfiltered >= {fmt_num(-TOL_NEG)} and filtered < "
            f"{fmt_num(-TOL_NEG)} across 50 interior points; edges within "
            f"0.002 of {WINDOW_LO} and {WINDOW_HI}"
        ),
        observed=observed,
        passed=passed,
    )


def check_upb() -> CheckResult:
    """Tile state: PPT, invisible to choi-psi:B, visible after the rotation."""
    rho = catalog.rho_upb()
    # printed, so from detect's eigh; is_ppt would give the same verdict
    pt = detect(TRANSPOSE_B, rho)
    w = Witness(MAPS["choi-psi"], Side.B)
    before = detect(w, rho)
    filtered, _ = apply_filter(catalog.upb_rotation_filter(), rho)
    after = detect(w, filtered)
    regression_ok = abs(after.min_eigenvalue - UPB_FILTERED_MIN_EIG) <= 1e-10
    passed = (
        not pt.detected
        and not before.detected
        and after.detected
        and regression_ok
    )
    observed = (
        f"pt min {fmt_num(pt.min_eigenvalue)}, "
        f"before {fmt_num(before.min_eigenvalue)}, "
        f"after {fmt_num(after.min_eigenvalue)}"
    )
    return CheckResult(
        name="upb-filter",
        expected=(
            f"PPT; undetected before; detected after with min eig within "
            f"1e-10 of {fmt_num(UPB_FILTERED_MIN_EIG)}"
        ),
        observed=observed,
        passed=passed,
    )


def check_schmidt_invariance() -> CheckResult:
    """Filtering never changes the Schmidt rank of a pure state.

    Each dims group draws its 100 cases first, then ranks them as stacks.
    """
    rng = np.random.default_rng(20240811)
    bad = 0
    cases = 0
    for da, db in ((2, 2), (3, 3)):
        ranks, ga, gb, coef, ls, ms = _schmidt_cases(rng, da, db, 100)
        psi = _pure_states(ga, gb, coef, da, db)
        f = make_filter(ls, ms)
        before = schmidt_rank(psi)
        after = schmidt_rank(filtered_pure(f, psi))
        cases += len(ranks)
        bad += int(np.count_nonzero((before != ranks) | (after != before)))
    return CheckResult(
        name="schmidt-invariance",
        expected="rank preserved in 200/200 filtered pure states",
        observed=f"{cases - bad}/{cases} preserved",
        passed=bad == 0,
    )


def check_ppt_invariance() -> CheckResult:
    """Filtering preserves PPT, and the partial transpose of the filtered
    state equals the conjugated-filter sandwich of the partial transpose.

    The 100 cases (a separable mixture and a filter each) are drawn first
    and evaluated as stacks.  A case whose input is not PPT counts as one
    bad case and nothing else; its filter is drawn all the same.
    """
    rng = np.random.default_rng(20240812)
    weights, ga, gb, ls, ms = _ppt_cases(rng, 3, 3, 100)
    rho = _separable_states(weights, ga, gb, 3, 3)
    f = make_filter(ls, ms)
    ppt_in = is_ppt(rho)
    filtered, weight = apply_filter(f, rho)
    ppt_out = is_ppt(filtered)
    lhs = apply_witness(TRANSPOSE_B, filtered) * weight[:, None, None]
    conj = linalg.kron(f.l, f.m.conj())
    rhs = linalg.sandwich(conj, apply_witness(TRANSPOSE_B, rho))
    dev = np.abs(lhs - rhs).max(axis=(1, 2))[ppt_in]
    bad = int(
        np.count_nonzero(~ppt_in)
        + np.count_nonzero(~ppt_out[ppt_in])
        + np.count_nonzero(dev > 1e-10)
    )
    worst = float(dev.max(initial=0.0))
    return CheckResult(
        name="ppt-invariance",
        expected=(
            "100/100 PPT mixtures stay PPT; conjugation identity within "
            "1e-10 entrywise"
        ),
        observed=f"{100 - bad}/100 clean, worst identity deviation "
        f"{fmt_num(worst)}",
        passed=bad == 0,
    )


def check_measurement_equivalence() -> CheckResult:
    """Closed-form protocol output equals direct filtering; ancilla
    postselection block equals the diagonal sandwich.

    Each filter's 20 random states are drawn first and run as one stack;
    then the 50 postselection cases are drawn and run as one stack per
    size.
    """
    rng = np.random.default_rng(20240813)
    worst_state = 0.0
    worst_prob = 0.0
    bad = 0
    for label, (kind, _, _) in catalog.LABELS.items():
        if kind != "filter":
            continue
        f = catalog.from_label("filter", label)
        rho = _random_densities(rng, *f.dims, 20)
        direct, weight = apply_filter(f, rho)
        via_protocol, prob = measure.protocol_analytic(f, rho)
        scale = (f.svd_l.sigma_max * f.svd_m.sigma_max) ** 2
        dev = np.abs(direct.mat - via_protocol.mat).max(axis=(1, 2))
        pdev = np.abs(prob - weight / scale)
        worst_state = max(worst_state, float(dev.max()))
        worst_prob = max(worst_prob, float(pdev.max()))
        bad += int(np.count_nonzero((dev > 1e-10) | (pdev > 1e-10)))
    worst_block = _worst_block(rng, 50)
    passed = bad == 0 and worst_block <= 1e-12
    return CheckResult(
        name="measurement-equivalence",
        expected=(
            "protocol state within 1e-10 of filtered state for every "
            "catalog filter x 20 states; postselected block within 1e-12 "
            "of the diagonal sandwich"
        ),
        observed=(
            f"worst state dev {fmt_num(worst_state)}, worst prob dev "
            f"{fmt_num(worst_prob)}, worst block dev {fmt_num(worst_block)}"
        ),
        passed=passed,
    )


def check_projector_algebra() -> CheckResult:
    """P is a Hermitian projector of trace n with orthogonal rank-1 terms,
    for the catalog filters' diagonals and 50 drawn ones, one stack per
    length."""
    rng = np.random.default_rng(20240814)
    diags = []
    for label, (kind, _, _) in catalog.LABELS.items():
        # the identity filter adds only trivial all-ones diagonals
        if kind != "filter" or label == "identity":
            continue
        f = catalog.from_label("filter", label)
        diags.append(measure.rescaled_diag(f.svd_l))
        diags.append(measure.rescaled_diag(f.svd_m))
    for _ in range(50):
        n = int(rng.integers(2, 6))
        diags.append(rng.uniform(0.02, 1.0, size=n))
    worst = _worst_projector_deviation(diags)
    return CheckResult(
        name="projector-algebra",
        expected=(
            f"P^2 = P, P = P^dag, tr P = n, orthogonal rank-1 terms for "
            f"{len(diags)} diagonals, all within 1e-10"
        ),
        observed=f"worst deviation {fmt_num(worst)}",
        passed=worst <= 1e-10,
    )


def check_monte_carlo() -> CheckResult:
    """Acceptance rates concentrate on the analytic probability and the
    accepted branch state matches the filtered state."""
    f = catalog.choi_example_filter()
    rho = catalog.rho_xt(0.63, 0.05)
    shots = 10_000
    # the branch probabilities and the accepted state do not depend on the
    # seed: walk the protocol once, then rerun only the lottery per seed
    run = mcsim.run_protocol(f, rho, shots, seed=1)
    p = run.total_prob
    se = np.sqrt(p * (1 - p) / shots)
    accepted = [run.accepted] + [
        kernels.accept_count(seed, run.branch_probs, shots)
        for seed in range(2, 21)
    ]
    within = sum(abs(a / shots - p) <= 4 * se for a in accepted)
    worst_state = float(np.abs(run.estimated_state - run.reference.mat).max())
    passed = within >= 19 and worst_state <= 1e-10
    return CheckResult(
        name="monte-carlo",
        expected=(
            "acceptance within 4 binomial SE of analytic prob in >= 19/20 "
            "seeds at 10^4 shots; branch state within 1e-10 of filtered"
        ),
        observed=(
            f"{within}/20 seeds within band around p = {fmt_num(p)}, worst "
            f"branch dev {fmt_num(worst_state)}"
        ),
        passed=passed,
    )


def check_positive_not_cp() -> CheckResult:
    """One-sided Choi maps push the maximally entangled state negative but
    keep every plain PSD input positive."""
    amps = np.zeros(9)
    amps[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    omega = DensityOperator(3, 3, np.outer(amps, amps))
    maps = (MAPS["choi-phi"], MAPS["choi-psi"])
    negs = [
        linalg.min_eigenvalue(apply_witness(Witness(m, Side.A), omega))
        for m in maps
    ]
    entangled_seen = all(v < -TOL_NEG for v in negs)
    rng = np.random.default_rng(20240815)
    g = _gaussian(rng, 3, 200)
    psd = g @ linalg.adjoint(g)
    mapped = np.concatenate([apply_map(m, psd) for m in maps])
    worst = linalg.min_eigenvalue(mapped).min()
    positivity_ok = worst >= -1e-10
    return CheckResult(
        name="positive-not-cp",
        expected=(
            "both maps negative on the maximally entangled state; "
            "200 random PSD inputs stay PSD within 1e-10"
        ),
        observed=(
            f"entangled-state min eigs {fmt_num(negs[0])} / "
            f"{fmt_num(negs[1])}, PSD floor {fmt_num(worst)}"
        ),
        passed=bool(entangled_seen and positivity_ok),
    )


ALL_CHECKS = (
    check_choi_window,
    check_upb,
    check_schmidt_invariance,
    check_ppt_invariance,
    check_measurement_equivalence,
    check_projector_algebra,
    check_monte_carlo,
    check_positive_not_cp,
)


def run_all() -> list:
    """Run the whole suite, one CheckResult per check, in table order."""
    return [chk() for chk in ALL_CHECKS]
