import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundfilter import catalog, linalg, states
from boundfilter.witness import TRANSPOSE_B, apply_witness
from boundfilter.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotHermitianError,
    NotPSDError,
    ParseError,
    ZeroTraceError,
)
from boundfilter.tolerances import TOL_NEG

from .oracles import (
    brute_eigvals,
    herm_defect,
    pt_b_loops,
    random_density_mat,
    random_unitary,
    raw_density,
    spy_solves,
)


def bell_mat():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_density_operator_accepts_valid():
    rho = states.DensityOperator(2, 2, bell_mat())
    assert rho.dims == (2, 2)
    assert rho.dim == 4


def test_density_operator_matrix_readonly():
    rho = states.DensityOperator(2, 2, np.eye(4) / 4)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0


def test_density_operator_rejects_bad_shape():
    with pytest.raises(InvariantViolationError):
        states.DensityOperator(2, 2, np.eye(3) / 3)


def test_density_operator_rejects_nonhermitian():
    m = np.eye(4) / 4
    m[0, 1] = 0.1
    with pytest.raises(NotHermitianError):
        states.DensityOperator(2, 2, m)


def test_density_operator_rejects_bad_trace():
    with pytest.raises(InvariantViolationError):
        states.DensityOperator(2, 2, np.eye(4) / 2)


def test_density_operator_rejects_negative():
    m = np.diag([0.75, 0.75, -0.25, -0.25])
    with pytest.raises(NotPSDError):
        states.DensityOperator(2, 2, m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_operator_rejects_non_finite(bad):
    m = np.eye(4, dtype=complex) / 4
    m[2, 2] = bad
    with pytest.raises(InvariantViolationError, match="finiteness"):
        states.DensityOperator(2, 2, m)
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = m[3, 0] = complex(0, bad)
    with pytest.raises(InvariantViolationError, match="finiteness"):
        states.DensityOperator(2, 2, m)


def test_density_operator_stack():
    rng = np.random.default_rng(25)
    mats = np.stack([random_density_mat(rng, 6) for _ in range(4)])
    rho = states.DensityOperator(2, 3, mats)
    assert rho.mat.shape == (4, 6, 6) and rho.dims == (2, 3)
    assert not rho.mat.flags.writeable
    verdict = states.is_ppt(rho)
    for k in range(4):
        one = states.is_ppt(states.DensityOperator(2, 3, mats[k]))
        assert type(one) is bool and verdict[k] == one


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.diag([0.75, 0.75, -0.25, -0.25]), NotPSDError),
        (np.eye(4) / 2, InvariantViolationError),
        (np.eye(4) / 4 + 0.1 * np.eye(4, k=1), NotHermitianError),
        # entries that overflow the Hermitian part: a NaN minimum
        (np.eye(4) / 4 + 1e308 * (np.eye(4, k=1) + np.eye(4, k=-1)),
         NotPSDError),
    ],
)
def test_density_operator_stack_reports_like_a_lone_matrix(bad, error):
    with pytest.raises(error) as lone:
        states.DensityOperator(2, 2, bad)
    stack = np.stack([np.eye(4) / 4, bad, np.eye(4) / 4, bad])
    with pytest.raises(error) as stacked:
        states.DensityOperator(2, 2, stack)
    assert str(stacked.value) == str(lone.value)


def _spectrum_with_min(rng, n, wmin):
    """A random unit-trace Hermitian n x n matrix whose smallest eigenvalue
    is wmin."""
    w = rng.uniform(0.1, 1.0, size=n)
    w[0] = wmin
    w[1:] *= (1.0 - wmin) / w[1:].sum()
    u = random_unitary(rng, n)
    return (u * w) @ u.conj().T


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([4, 9]),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=6),
)
def test_values_only_positivity_gate_matches_eigh(seed, n, signs):
    # the minimum eigenvalue sits at -TOL_NEG (1 +- 1e-3), nudged by k * 1e-4
    # so that every offender prints a different figure
    rng = np.random.default_rng(seed)
    mats = np.stack(
        [
            _spectrum_with_min(rng, n, -TOL_NEG * (1 + s * 1e-3) * (1 + k * 1e-4))
            for k, s in enumerate(signs)
        ]
    )
    ref = np.linalg.eigh(0.5 * (mats + mats.conj().transpose(0, 2, 1)))[0][:, 0]
    offenders = np.flatnonzero(ref < -TOL_NEG)
    assert list(offenders) == [k for k, s in enumerate(signs) if s > 0]
    dims = (2, 2) if n == 4 else (3, 3)
    if offenders.size == 0:
        states.DensityOperator(*dims, mats)
        return
    with pytest.raises(NotPSDError) as stacked:
        states.DensityOperator(*dims, mats)
    first = offenders[0]
    with pytest.raises(NotPSDError) as lone:
        states.DensityOperator(*dims, mats[first])
    assert str(stacked.value) == str(lone.value)
    printed = float(str(stacked.value).rsplit("= ", 1)[1])
    assert abs(printed - ref[first]) < 1e-15


def _partition_of_9(parts):
    """Block sizes summing to 9, cut from a list of positive ints."""
    sizes, left = [], 9
    for p in parts:
        if left == 0:
            break
        sizes.append(min(p, left))
        left -= sizes[-1]
    return sizes + ([left] if left else [])


def _blocked_stack(rng, sizes, wmins, unit_trace):
    """One 9 x 9 Hermitian matrix per entry of wmins, block-diagonal with
    the given block sizes up to a permutation that the stack shares; each
    block is dense, and matrix k's smallest eigenvalue is wmins[k]."""
    perm = rng.permutation(9)
    mats = np.zeros((len(wmins), 9, 9), dtype=complex)
    for k, wmin in enumerate(wmins):
        w = rng.uniform(0.1, 1.0, size=9)
        w[0] = wmin
        if unit_trace:
            w[1:] *= (1.0 - wmin) / w[1:].sum()
        w = w[rng.permutation(9)]
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            u = random_unitary(rng, size)
            mats[k, block, block] = (u * w[block]) @ u.conj().T
            start += size
    return mats[:, perm][:, :, perm]


# distances of a minimum from its decision edge: 2e-12 lies outside the
# re-solve margin; 1e-13 is edge * 1e-3 at the positivity edge; 0 and 1e-16
# sit within rounding of the edge, where only eigh's own answer is safe
NEAR_EDGE = [-2e-12, -9e-13, -1e-13, -1e-16, 0.0, 1e-16, 1e-13, 9e-13, 2e-12]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    parts=st.lists(st.integers(1, 9), min_size=1, max_size=9),
    dense=st.booleans(),
    dists=st.lists(st.sampled_from(NEAR_EDGE), min_size=2, max_size=6),
)
def test_decision_solves_match_eigh_at_the_edges(seed, parts, dense, dists):
    rng = np.random.default_rng(seed)
    sizes = [9] if dense else _partition_of_9(parts)

    def reference(mats):
        herm = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
        return np.linalg.eigh(herm)[0][:, 0]

    # choi-window grid (edge 0) and is_ppt (edge -TOL_NEG): eigh's verdicts
    # exactly, for a stack and for each lone matrix
    mats = _blocked_stack(rng, sizes, dists, False)
    ref = reference(mats)
    assert np.array_equal(linalg.min_at_least(mats, 0.0), ref >= 0.0)
    assert [linalg.min_at_least(m, 0.0) for m in mats] == list(ref >= 0.0)
    mats = _blocked_stack(rng, sizes, [-TOL_NEG + d for d in dists], True)
    ref = reference(mats)
    assert np.array_equal(linalg.min_at_least(mats, -TOL_NEG), ref >= -TOL_NEG)
    rho = raw_density(pt_b_loops(mats, 3, 3), 3, 3)
    assert np.array_equal(states.is_ppt(rho), ref >= -TOL_NEG)
    for k in range(len(dists)):
        lone = raw_density(pt_b_loops(mats[k], 3, 3), 3, 3)
        assert states.is_ppt(lone) == (ref[k] >= -TOL_NEG)

    # an affine sweep a + x b across the edge 0, with b = a + I, keeps one
    # lowest eigenvector: its test vector proves every x < 0 below, and one
    # values-only solve of the rest proves every x > 0 above
    xs = [(k + 1) * (1e-3 if d >= 0 else -1e-3) for k, d in enumerate(dists)]
    a = _blocked_stack(rng, sizes, [0.0], False)[0]
    sweep = np.stack([a + x * (a + np.eye(9)) for x in xs])
    below, above = sum(x < 0 for x in xs), sum(x > 0 for x in xs)
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_solves(mp)
        ok = linalg.min_at_least(sweep, 0.0)
    assert np.array_equal(ok, reference(sweep) >= 0.0)
    assert list(ok) == [x > 0 for x in xs]
    rest = [("eigvalsh", (above, 9, 9))] * (above > 0)
    assert calls == [("cholesky", (len(xs), 9, 9))] + \
        ([("eigh", (9, 9))] + rest) * (below > 0)

    # unrelated negative matrices: the test vector proves only its own
    # matrix below, and the rest take the values-only solve
    mats = _blocked_stack(rng, [9], [-1e-3 - abs(d) for d in dists], False)
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_solves(mp)
        ok = linalg.min_at_least(mats, 0.0)
    assert np.array_equal(ok, reference(mats) >= 0.0) and not ok.any()
    left = len(dists) - 1
    assert calls == [("cholesky", (len(dists), 9, 9)), ("eigh", (9, 9))] + \
        [("eigvalsh", (left, 9, 9))]

    # a matrix that is not finite, first in a failing sweep, would have a
    # NaN Gershgorin bound, which argmin picks: it is never the test
    # vector's matrix, never proved below, and fails, with no RuntimeWarning
    bad = sweep[0].copy()
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        real = np.linalg.eigh
        seen = []
        mp.setattr(np.linalg, "eigh", lambda h: seen.append(h) or real(h))
        mixed = np.concatenate([bad[None], sweep])
        ok = linalg.min_at_least(mixed, 0.0)
        proved = linalg._below(mixed, 0.0)
    assert list(ok) == [False] + [x > 0 for x in xs]
    assert list(proved) == [False] + [x < 0 for x in xs]
    assert all(np.isfinite(h).all() for h in seen)

    # the gate's verdict is eigh's at every distance, also within rounding
    # of the edge; nudges of k * 1e-15 away from the edge make the
    # offenders print different figures
    gate = [d + np.sign(d) * k * 1e-15 for k, d in enumerate(dists)]
    mats = _blocked_stack(rng, sizes, [-TOL_NEG + d for d in gate], True)
    ref = reference(mats)
    offenders = np.flatnonzero(ref < -TOL_NEG)
    clear = [k for k, d in enumerate(gate) if abs(d) >= 1e-13]
    assert [k for k in clear if ref[k] < -TOL_NEG] \
        == [k for k in clear if gate[k] < 0]
    for k, m in enumerate(mats):
        if ref[k] < -TOL_NEG:
            with pytest.raises(NotPSDError):
                states.DensityOperator(3, 3, m)
        else:
            states.DensityOperator(3, 3, m)
    if offenders.size == 0:
        states.DensityOperator(3, 3, mats)
        return
    with pytest.raises(NotPSDError) as stacked:
        states.DensityOperator(3, 3, mats)
    with pytest.raises(NotPSDError) as lone:
        states.DensityOperator(3, 3, mats[offenders[0]])
    assert str(stacked.value) == str(lone.value)
    printed = float(str(stacked.value).rsplit("= ", 1)[1])
    assert abs(printed - ref[offenders[0]]) < 1e-15


def test_pure_state_validation():
    psi = states.pure([1, 0, 0, 0], 2, 2)
    assert psi.dims == (2, 2)
    with pytest.raises(InvariantViolationError):
        states.PureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(InvariantViolationError):
        states.PureState(2, 2, np.array([1.0, 0.0, 0.0]))
    renorm = states.pure([2, 0, 0, 0], 2, 2, normalize_input=True)
    assert abs(np.linalg.norm(renorm.amps) - 1) < 1e-14
    with pytest.raises(ZeroTraceError):
        states.pure([0, 0, 0, 0], 2, 2, normalize_input=True)


def test_pure_state_stack_names_first_non_unit_ket():
    amps = np.zeros((4, 4))
    amps[:, 0] = 1.0
    amps[2, 1] = 1e-3
    amps[3, 1] = 1.0
    with pytest.raises(InvariantViolationError) as err:
        states.PureState(2, 2, amps)
    assert str(err.value) == (
        f"norm invariant failed: |psi[2]| = {float(np.sqrt(1 + 1e-6))!r}"
    )
    with pytest.raises(InvariantViolationError):
        states.PureState(2, 2, np.ones((3, 3)) / np.sqrt(3))


def test_pure_state_stack_projector_and_rank():
    kets = np.array([[1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 1, 0]]) / np.array(
        [[np.sqrt(2)], [1.0], [np.sqrt(2)]]
    )
    psi = states.PureState(2, 2, kets)
    rho = psi.projector()
    assert rho.mat.shape == (3, 4, 4)
    assert list(states.schmidt_rank(psi)) == [2, 1, 2]
    for k in range(3):
        one = states.PureState(2, 2, kets[k])
        assert np.array_equal(rho.mat[k], one.projector().mat)
        assert np.array_equal(psi.coefficient_matrix()[k], one.coefficient_matrix())


def test_projector_of_pure_state():
    rho = states.pure([1, 0, 0, 0], 2, 2).projector()
    assert rho.mat[0, 0] == 1.0
    assert np.trace(rho.mat).real == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# partial transpose and PPT
# ---------------------------------------------------------------------------


def pt_b(m, da, db):
    """The transpose:B witness applied to m as a validated state."""
    return apply_witness(TRANSPOSE_B, states.DensityOperator(da, db, m))


def test_pt_matches_block_loops():
    rng = np.random.default_rng(21)
    for da, db in ((2, 2), (2, 3), (3, 2), (3, 3)):
        m = random_density_mat(rng, da * db)
        out = pt_b(m, da, db)
        assert np.abs(out - pt_b_loops(m, da, db)).max() < 1e-14
    # a stack transposes matrix by matrix, bit for bit
    mats = np.stack([random_density_mat(rng, 6) for _ in range(3)])
    out = pt_b(mats, 2, 3)
    for k in range(3):
        assert np.array_equal(out[k], pt_b(mats[k], 2, 3))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    da=st.integers(2, 3),
    db=st.integers(2, 3),
)
def test_pt_is_involution(seed, da, db):
    rng = np.random.default_rng(seed)
    m = random_density_mat(rng, da * db)
    once = raw_density(pt_b(m, da, db), da, db)
    assert np.abs(apply_witness(TRANSPOSE_B, once) - m).max() < 1e-12


def test_pt_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(22)
    m = random_density_mat(rng, 9)
    out = pt_b(m, 3, 3)
    assert abs(np.trace(out) - np.trace(m)) < 1e-12
    assert herm_defect(out) < 1e-12


def test_bell_pt_spectrum():
    # the partially transposed Bell projector has eigenvalues {-1/2, 1/2^3}
    pt = pt_b(bell_mat(), 2, 2)
    assert abs(linalg.min_eigenvalue(pt) + 0.5) < 1e-12
    roots = brute_eigvals(pt)
    # the simple root is sharp; the triple root at 1/2 is only conditioned
    # to eps^(1/3) through the characteristic polynomial
    assert abs(roots[0] + 0.5) < 1e-9
    assert np.allclose(roots[1:], 0.5, atol=1e-4)


def test_is_ppt_verdicts():
    assert states.is_ppt(catalog.max_mixed()) is True
    bell = states.DensityOperator(2, 2, bell_mat())
    assert states.is_ppt(bell) is False


def _mixed_3x3_stack(rng):
    """Six rho-xt points (t = 0.05), each followed by a random separable
    state and a random NPT state (a noisy random pure state)."""
    family = catalog.rho_xt(np.linspace(0.0, 0.98, 6), 0.05).mat
    mats = []
    for point in family:
        weights = rng.dirichlet(np.ones(3))
        sep = sum(
            w * np.kron(random_density_mat(rng, 3), random_density_mat(rng, 3))
            for w in weights
        )
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        psi /= np.linalg.norm(psi)
        npt = 0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(9) / 9
        mats += [point, sep, npt]
    return np.stack(mats)


def _spy_min_at_least(monkeypatch):
    """Record the shape of every linalg.min_at_least argument."""
    calls = []
    real = linalg.min_at_least

    def spy(h, *args, **kwargs):
        calls.append(np.shape(h))
        return real(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "min_at_least", spy)
    return calls


def test_is_ppt_on_a_mixed_stack_is_the_solved_verdict():
    mats = _mixed_3x3_stack(np.random.default_rng(41))
    rho = states.DensityOperator(3, 3, mats)
    ref = linalg.min_at_least(apply_witness(TRANSPOSE_B, rho), -TOL_NEG)
    # the family and the separable states pass, the NPT states fail
    assert ref.tolist() == [True, True, False] * 6
    verdict = states.is_ppt(rho)
    assert verdict.dtype == bool and np.array_equal(verdict, ref)
    for k, m in enumerate(mats):
        lone = states.is_ppt(states.DensityOperator(3, 3, m))
        assert type(lone) is bool and lone == ref[k]


def test_is_ppt_solves_only_states_unlike_their_transpose(monkeypatch):
    family = catalog.rho_xt(np.linspace(0.0, 0.98, 130), 0.05)
    lone = [catalog.rho_xt(0.63, 0.05), catalog.rho_upb(), catalog.max_mixed()]
    mixed = states.DensityOperator(
        3, 3, _mixed_3x3_stack(np.random.default_rng(42))
    )
    calls = _spy_min_at_least(monkeypatch)
    assert states.is_ppt(family).all()
    for rho in lone:
        assert states.is_ppt(rho) is True
    assert calls == []
    # the separable and NPT states go to the solve as one sub-stack
    assert states.is_ppt(mixed).tolist() == [True, True, False] * 6
    assert calls == [(12, 9, 9)]


def test_is_ppt_solves_a_state_unlike_its_transpose_in_a_zero_sign(
    monkeypatch,
):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = complex(-0.0, 0.0)  # the transpose on B moves it to [1, 0]
    rho = states.DensityOperator(2, 2, m)
    pair = states.DensityOperator(2, 2, np.stack([np.eye(4) / 4, m]))
    pt = apply_witness(TRANSPOSE_B, rho)
    assert np.array_equal(pt, rho.mat)  # equal as numbers, not as bits
    assert np.signbit(rho.mat[0, 1].real) != np.signbit(pt[0, 1].real)
    calls = _spy_min_at_least(monkeypatch)
    assert states.is_ppt(rho) is True
    assert states.is_ppt(pair).tolist() == [True, True]
    assert calls == [(4, 4), (1, 4, 4)]


def test_product_states_are_ppt():
    rng = np.random.default_rng(23)
    for _ in range(100):
        pa = random_density_mat(rng, 2)
        pb = random_density_mat(rng, 3)
        rho = states.DensityOperator(2, 3, np.kron(pa, pb))
        assert states.is_ppt(rho)


# ---------------------------------------------------------------------------
# Schmidt rank
# ---------------------------------------------------------------------------


def test_schmidt_rank_product_and_bell():
    assert states.schmidt_rank(states.pure([1, 0, 0, 0], 2, 2)) == 1
    bell = states.pure([1, 0, 0, 1], 2, 2, normalize_input=True)
    assert states.schmidt_rank(bell) == 2


def test_schmidt_rank_unitary_invariance():
    rng = np.random.default_rng(24)
    for _ in range(25):
        amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        psi = states.pure(amps, 3, 3, normalize_input=True)
        ua = random_unitary(rng, 3)
        ub = random_unitary(rng, 3)
        rotated = states.pure(np.kron(ua, ub) @ psi.amps, 3, 3)
        assert states.schmidt_rank(rotated) == states.schmidt_rank(psi)


def test_coefficient_matrix_orientation():
    # |e1 f0> must land at row 1, column 0
    psi = states.pure([0, 0, 0, 1, 0, 0], 2, 3)
    c = psi.coefficient_matrix()
    assert c.shape == (2, 3)
    assert c[1, 0] == 1.0


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_scales_and_reports_weight():
    rho, weight = states.normalize(2 * np.eye(4) / 4, 2, 2)
    assert weight == pytest.approx(2.0)
    assert np.abs(rho.mat - np.eye(4) / 4).max() < 1e-14


def test_normalize_unscaled_family_weight():
    # the two-parameter family before its normalization constant: the trace
    # equals 4 + 3/t + 4t, which is 64.2 at t = 1/20
    t, x = 0.05, 0.63
    m = np.zeros((9, 9))
    for i, d in enumerate([1 + t, t, 1 / t, 1 / t, 1 + t, t, 1, 1 / t, 1]):
        m[i, i] = d
    for i, j in [(0, 4), (0, 8), (1, 3), (2, 6), (4, 8), (5, 7)]:
        m[i, j] = m[j, i] = x
    rho, weight = states.normalize(m, 3, 3)
    assert weight == pytest.approx(64.2, abs=1e-12)
    assert np.abs(rho.mat - catalog.rho_xt(x, t).mat).max() < 1e-14


def test_normalize_stack_weights():
    mats = np.stack([2 * np.eye(4) / 4, 3 * bell_mat()])
    rho, weights = states.normalize(mats, 2, 2)
    assert np.allclose(weights, [2.0, 3.0])
    assert np.abs(rho.mat[1] - bell_mat()).max() < 1e-15
    with pytest.raises(ZeroTraceError):
        states.normalize(np.stack([np.eye(4), np.zeros((4, 4))]), 2, 2)


def test_normalize_rejects_zero_trace():
    # the trace prints as a plain float, not as a numpy repr
    with pytest.raises(
        ZeroTraceError, match=r"^cannot normalize: trace = 0\.0$"
    ):
        states.normalize(np.zeros((4, 4)), 2, 2)


def test_normalize_rejects_indefinite():
    with pytest.raises(NotPSDError):
        states.normalize(np.diag([2.0, -1.0, 1.0, 1.0]), 2, 2)


def test_normalize_rejects_bad_dims():
    with pytest.raises(DimensionMismatchError):
        states.normalize(np.eye(4), 3, 3)


def test_normalize_refuses_only_a_trace_that_is_not_positive():
    # a positive trace divides out however small it is
    e00 = np.diag([1.0, 0.0, 0.0, 0.0])
    for tr in (1e-14, 1e-48, 2.0**-1000):
        rho, w = states.normalize(tr * e00, 2, 2)
        assert w == tr and np.abs(rho.mat - e00).max() <= 1e-16
    # a subnormal trace divides out without overflow, and a stack's members
    # take the bits they take alone; 1e-320 reads 1 - 2^-53 at [0, 0], the
    # rounding of m * (1 / tr) (ROADMAP item 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tr in (5e-324, 3e-310, 1e-320):
            rho, w = states.normalize(tr * e00, 2, 2)
            assert w == tr and np.abs(rho.mat - e00).max() <= 2.0**-52, tr
        for tr in (5e-324, 3e-310):
            assert np.array_equal(states.normalize(tr * e00, 2, 2)[0].mat, e00)
        trs = [5e-324, 1e-300, 0.25]
        stack, ws = states.normalize(np.stack([t * e00 for t in trs]), 2, 2)
        for i, tr in enumerate(trs):
            rho, w = states.normalize(tr * e00, 2, 2)
            assert ws[i] == w and np.array_equal(stack.mat[i], rho.mat)
    with pytest.raises(ZeroTraceError, match=r"^cannot normalize: trace = -1\.0$"):
        states.normalize(np.diag([-1.0, 0.0, 0.0, 0.0]), 2, 2)
    # a tiny positive trace no longer hides what else is wrong
    with pytest.raises(NotPSDError):
        states.normalize(np.diag([1e-13, -1e-14, 0.0, 0.0]), 2, 2)
    # a NaN trace reaches the DensityOperator gate
    with np.errstate(invalid="ignore"), pytest.raises(
        InvariantViolationError, match="^finiteness invariant failed"
    ):
        states.normalize(np.full((4, 4), np.nan), 2, 2)


def test_pure_normalizes_any_positive_norm():
    for nrm in (1e-24, 2.0**-500):
        psi = states.pure([0, nrm, 0, 0], 2, 2, normalize_input=True)
        assert np.abs(psi.amps - [0, 1, 0, 0]).max() <= 1e-16
    with pytest.raises(ZeroTraceError):
        states.pure(np.zeros(4), 2, 2, normalize_input=True)
    # a NaN norm reaches the PureState gate, which refuses it
    with np.errstate(invalid="ignore"), pytest.raises(
        InvariantViolationError, match=r"^norm invariant failed: \|psi\| = nan$"
    ):
        states.pure([np.nan, 0, 0, 0], 2, 2, normalize_input=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pure_normalizes_kets_whose_norm_leaves_float_range():
    # the squared norm of 1e-160 underflows, of 3e-200 to zero, and of 1e200
    # overflows; a power of two first keeps each within range
    unit = np.array([0.6, 0.8j, 0, 0])
    for nrm in (1e-160, 3e-200, 1e200):
        psi = states.pure(nrm * unit, 2, 2, normalize_input=True)
        assert np.abs(psi.amps - unit).max() <= 2.0**-52, nrm
    stack = states.pure(
        [1e-160 * unit, 3e-200 * unit, 1e200 * unit], 2, 2,
        normalize_input=True,
    )
    assert np.abs(stack.amps - unit).max() <= 2.0**-52
    # kets of normal-range entries keep the bits of the unscaled division
    rng = np.random.default_rng(3)
    amps = rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))
    psi = states.pure(amps, 3, 3, normalize_input=True)
    assert np.array_equal(
        psi.amps, amps / np.linalg.norm(amps, axis=-1, keepdims=True)
    )


def test_raw_density_bypasses_validation():
    # the unchecked route exists for tests: downstream code still works on
    # the stored matrix
    bad = raw_density(np.diag([2.0, 0, 0, 0]), 2, 2)
    assert np.trace(bad.mat).real == 2.0


# ---------------------------------------------------------------------------
# JSON exchange
# ---------------------------------------------------------------------------


def test_state_json_round_trip():
    rho = catalog.rho_xt(0.5, 0.5)
    back = states.state_from_json_dict(states.state_to_json_dict(rho))
    assert back.dims == rho.dims
    assert np.abs(back.mat - rho.mat).max() < 1e-15


def test_state_json_missing_key():
    with pytest.raises(ParseError):
        states.state_from_json_dict({"dimA": 2, "matrix": []})


def test_state_json_dims_must_be_integers():
    obj = states.state_to_json_dict(catalog.bell_state())
    obj["dimA"] = 2.0
    with pytest.raises(ParseError):
        states.state_from_json_dict(obj)


def test_state_json_rejects_ragged_matrix():
    obj = {
        "dimA": 1,
        "dimB": 2,
        "matrix": [[[1, 0], [0, 0]], [[0, 0]]],
    }
    with pytest.raises(ParseError):
        states.state_from_json_dict(obj)


def test_state_json_rejects_bad_cell():
    obj = {"dimA": 1, "dimB": 1, "matrix": [["x"]]}
    with pytest.raises(ParseError):
        states.state_from_json_dict(obj)


def test_state_json_rejects_dim_mismatch():
    obj = states.state_to_json_dict(catalog.bell_state())
    obj["dimB"] = 3
    with pytest.raises(ParseError):
        states.state_from_json_dict(obj)


def test_state_json_rejects_non_finite():
    obj = states.state_to_json_dict(catalog.bell_state())
    obj["matrix"][3][0][0] = float("nan")
    with pytest.raises(ParseError, match="row 3 col 0"):
        states.state_from_json_dict(obj)


def test_state_json_validates_invariants():
    obj = {
        "dimA": 1,
        "dimB": 2,
        "matrix": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]],
    }
    with pytest.raises(InvariantViolationError):
        states.state_from_json_dict(obj)
