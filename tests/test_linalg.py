import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundfilter import linalg
from boundfilter.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotPSDError,
)
from boundfilter.states import DensityOperator
from boundfilter.tolerances import TOL_NEG, TOL_RECON, TOL_RESID

from .oracles import (
    brute_eigvals,
    herm_defect,
    kron_loops,
    random_herm,
    random_psd,
    random_unitary,
    spy_solves,
)


def test_eigh_identity(kernel_path):
    w, v = linalg.eigh(np.eye(3))
    assert np.allclose(w, [1, 1, 1], atol=1e-14)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12


def test_eigh_pauli_x(kernel_path):
    w, _ = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1, 1], atol=1e-14)


def test_eigh_degenerate_spectrum(kernel_path):
    d = np.diag([1.0, 5 / 8, 5 / 8])
    w, v = linalg.eigh((d @ d).astype(complex))
    assert np.allclose(w, [25 / 64, 25 / 64, 1.0], atol=1e-13)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12


def test_eigh_random_contracts(kernel_path):
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 9):
        for _ in range(10):
            h = random_herm(rng, n)
            w, v = linalg.eigh(h)
            assert np.all(np.diff(w) >= 0)
            # per-column residual and orthonormality
            for k in range(n):
                assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) < TOL_RESID
            assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
            recon = (v * w) @ v.conj().T
            assert np.abs(recon - h).max() < TOL_RECON
            assert abs(w.sum() - np.trace(h).real) < 1e-8


def test_eigh_matches_charpoly_roots(kernel_path):
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        h = random_herm(rng, n)
        assert np.abs(linalg.eigh(h)[0] - brute_eigvals(h)).max() < 1e-8


def test_eigh_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigh_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        linalg.eigh(np.zeros((2, 3)))


def test_min_eigenvalue():
    assert abs(linalg.min_eigenvalue(np.diag([3.0, -2.0, 1.0])) + 2.0) < 1e-14


def test_eigh_stack_matches_single_matrices():
    rng = np.random.default_rng(15)
    stack = np.stack([random_herm(rng, 9) for _ in range(5)])
    w, v = linalg.eigh(stack)
    assert w.shape == (5, 9) and v.shape == (5, 9, 9)
    for k in range(5):
        wk, vk = linalg.eigh(stack[k])
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
    assert np.array_equal(linalg.min_eigenvalue(stack), w[:, 0])
    assert linalg.min_eigenvalue(stack[0]) == w[0, 0]


def test_eigh_checks_each_matrix_of_a_stack():
    stack = np.stack([np.eye(2), np.array([[0, 0.5], [0, 0]]), np.eye(2)])
    with pytest.raises(NotHermitianError, match="5.000e-01"):
        linalg.eigh(stack)
    # a NaN defect ahead of it does not hide it from the whole-stack test
    nan = np.full((2, 2), np.nan)
    stack = np.stack([nan, np.array([[0, 0.5], [0, 0]]), np.eye(2)])
    with pytest.raises(NotHermitianError, match="5.000e-01"):
        linalg.eigh(stack)
    with pytest.raises(DimensionMismatchError):
        linalg.eigh(np.zeros((2, 2, 2, 2)))


def _with_spectrum(rng, w):
    u = random_unitary(rng, len(w))
    return (u * np.asarray(w)) @ u.conj().T


def test_min_at_least_whole_solve_without_a_split(monkeypatch):
    # a lone matrix, and a stack of unrelated matrices that neither the
    # factorization nor the test vector of the lowest Gershgorin bound
    # decides, take the plain values-only solve of each whole matrix
    rng = np.random.default_rng(16)
    stack = np.stack([random_herm(rng, 9) for _ in range(4)])
    ref = np.linalg.eigvalsh(stack)[:, 0]
    edge = np.median(ref)
    calls = spy_solves(monkeypatch)
    assert list(linalg.min_at_least(stack, edge)) == list(ref >= edge)
    assert linalg.min_at_least(stack[2], edge) == (ref[2] >= edge)
    assert calls == [
        ("cholesky", (4, 9, 9)), ("eigh", (9, 9)), ("eigvalsh", (4, 9, 9)),
        ("eigvalsh", (9, 9)),
    ]


def test_min_at_least_splits_on_exact_zeros_only(monkeypatch):
    # entries 0 and 5 hold the same value, coupled by a tiny eps: the pair's
    # eigenvalues are w +- eps, so the minimum sits 1.5e-12 below the edge
    # (outside the re-solve margin) only if eps is kept.  A test vector or a
    # solve that dropped small entries would see w, above the edge.
    edge, eps = -1e-10, 3e-12
    h = np.zeros((3, 9, 9), dtype=complex)
    h[:, range(9), range(9)] = np.arange(1, 10) / 10
    h[:, 0, 0] = h[:, 5, 5] = edge + 1.5e-12
    h[1:, 0, 5] = h[1:, 5, 0] = eps
    h[:, 1, 2] = h[:, 2, 1] = 0.05j
    h[:, 2, 1] *= -1
    ref = np.linalg.eigh(h)[0][:, 0]
    assert list(ref < edge) == [False, True, True]
    calls = spy_solves(monkeypatch)
    assert list(linalg.min_at_least(h, edge)) == [True, False, False]
    # the test vector proves matrices 1 and 2 below the edge; matrix 0 is
    # solved whole, with no re-solve
    assert calls == [
        ("cholesky", (3, 9, 9)), ("eigh", (9, 9)), ("eigvalsh", (1, 9, 9)),
    ]


def test_min_at_least_resolves_near_the_edge(monkeypatch):
    # minima within EDGE_MARGIN of the edge take eigh's verdict, in one
    # call for all of them; the others the values-only solve's.  The test
    # vector e_3 reads -1e-13, inside the margin, so it proves nothing.
    h = np.zeros((3, 4, 4))
    h[:, range(4), range(4)] = 1.0
    h[:, 3, 3] = [0.5, 1e-13, -1e-13]
    calls = spy_solves(monkeypatch)
    assert list(linalg.min_at_least(h, 0.0)) == [True, True, False]
    assert linalg.min_at_least(h[2], 0.0) is False
    assert calls == [
        ("cholesky", (3, 4, 4)), ("eigh", (4, 4)), ("eigvalsh", (3, 4, 4)),
        ("eigh", (2, 4, 4)), ("eigvalsh", (4, 4)), ("eigh", (1, 4, 4)),
    ]
    # the re-solved verdicts are eigh's own (its test vector e_0 reads 1)
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a: (
            np.full(a.shape[:-1], 7.0), np.broadcast_to(np.eye(4), a.shape)
        )
    )
    assert list(linalg.min_at_least(h, 0.0)) == [True, True, True]


def _gate(m):
    """The DensityOperator gate's verdict on m: None, or its error text."""
    try:
        DensityOperator(3, 3, m)
    except NotPSDError as e:
        return str(e)
    return None


def test_lone_verdicts_are_the_stack_of_one_verdicts(monkeypatch):
    # unit-trace 9 x 9 matrices whose minimum lies off the edge -TOL_NEG by
    # deltas outside the re-solve margin (1e-12 at scale 1), inside it, and
    # at it: a lone min_at_least and a lone DensityOperator give the verdict
    # and the error of a stack of one, from one values-only solve of shape
    # (9, 9), and eigh on (1, 9, 9) near the edge
    edge = -TOL_NEG
    calls = spy_solves(monkeypatch)
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        for delta in (-1e-3, -3e-12, -5e-13, 0.0, 5e-13, 3e-12, 1e-3):
            rest = rng.uniform(0.5, 1.0, 8)
            w = np.r_[edge + delta, rest * (1 - edge - delta) / rest.sum()]
            m = _with_spectrum(rng, w)
            near = abs(delta) < linalg.EDGE_MARGIN
            calls.clear()
            lone = linalg.min_at_least(m, edge)
            want = [("eigvalsh", (9, 9))] + [("eigh", (1, 9, 9))] * near
            assert calls == want
            assert [lone] == list(linalg.min_at_least(m[None], edge))
            assert lone is (delta >= 0) or near
            calls.clear()
            verdict = _gate(m)
            # a failed gate solves once more, to word its error
            assert calls == want + [("eigvalsh", (9, 9))] * (verdict is not None)
            assert (verdict is None) is lone
            assert verdict == _gate(m[None])


def test_min_at_least_certifies_a_positive_stack_without_solving(monkeypatch):
    rng = np.random.default_rng(17)
    stack = np.stack([random_psd(rng, 9) + 1e-3 * np.eye(9) for _ in range(8)])
    calls = spy_solves(monkeypatch)
    ok = linalg.min_at_least(stack, -1e-10)
    assert ok.dtype == bool and ok.shape == (8,) and ok.all()
    # a minimum 2e-12 above the edge clears the margin at scale 1
    assert list(linalg.min_at_least(np.stack([np.diag([1, 2e-12])] * 2), 0)) \
        == [True, True]
    assert calls == [("cholesky", (8, 9, 9)), ("cholesky", (2, 2, 2))]
    # one solve costs what one factorization does: a lone matrix is solved,
    # and a stack of one is factored like any other stack
    calls.clear()
    assert linalg.min_at_least(stack[3], -1e-10) is True
    assert list(linalg.min_at_least(stack[3:4], -1e-10)) == [True]
    assert calls == [("eigvalsh", (9, 9)), ("cholesky", (1, 9, 9))]


def test_min_at_least_falls_back_for_the_whole_stack(monkeypatch):
    # one matrix below the edge fails the stack's factorization.  The test
    # vector proves only its own matrix below (the others' eigenvectors are
    # unrelated), and every verdict left comes from the solve and equals
    # the lone verdict
    rng = np.random.default_rng(18)
    w = np.linspace(0.1, 1.0, 9)
    stack = np.stack([_with_spectrum(rng, w) for _ in range(5)])
    stack[2] = _with_spectrum(rng, np.r_[-1e-6, w[1:]])
    stack[4] = _with_spectrum(rng, np.r_[-2e-6, w[1:]])
    calls = spy_solves(monkeypatch)
    ok = linalg.min_at_least(stack, -1e-10)
    assert list(ok) == [True, True, False, True, False]
    assert calls == [
        ("cholesky", (5, 9, 9)), ("eigh", (9, 9)), ("eigvalsh", (4, 9, 9)),
    ]
    assert [linalg.min_at_least(m, -1e-10) for m in stack] == list(ok)
    with pytest.raises(NotHermitianError, match="^gate: "):
        linalg.min_at_least(np.array([[0, 1], [0, 0]]), 0.0, what="gate")


def test_min_at_least_fails_an_overflowing_matrix(monkeypatch):
    # the Hermitian part of the off-diagonal 1e308 pair is inf, whose
    # factor OpenBLAS returns as NaN without raising: no certificate
    off = np.array([[0.5, 1e308], [1e308, 0.5]])
    big = np.eye(3) + 1e308 * (np.eye(3, k=1) + np.eye(3, k=-1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert linalg.min_at_least(off, -1e-10) is False
        assert linalg.min_at_least(big, -1e-10) is False
        ok = linalg.min_at_least(np.stack([np.eye(2), off, np.eye(2)]), 0.5)
        assert list(ok) == [True, False, True]
        assert np.isnan(linalg.eigvalsh(off)).all()
        assert linalg.eigvalsh(off).shape == (2,)
        assert np.isnan(linalg.eigvalsh(big)).all()
        # also within a stack that fails the factorization
        split = np.stack([np.eye(4), np.eye(4)])
        split[1, 0, 1] = split[1, 1, 0] = 1e308
        assert list(linalg.min_at_least(split, 0.5)) == [True, False]
        # and as a stack of one, which takes the certificate path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for one in (off[None], big[None], np.full((1, 3, 3), np.nan)):
                assert list(linalg.min_at_least(one, -1e-10)) == [False]
    # a factor that is not finite is no certificate, on any LAPACK
    monkeypatch.setattr(
        np.linalg, "cholesky", lambda a: np.full(a.shape, np.nan, complex)
    )
    calls = spy_solves(monkeypatch)
    two = np.stack([np.eye(3)] * 2)
    assert list(linalg.min_at_least(two, 0.5)) == [True, True]
    assert list(linalg.min_at_least(two, 1.5)) == [False, False]
    # at 0.5 the test vector reads 1 and proves nothing, so the stack is
    # solved; at 1.5 it proves both matrices below, with nothing left
    assert [name for name, _ in calls] == [
        "cholesky", "eigh", "eigvalsh", "cholesky", "eigh"
    ]


def test_no_solve_for_a_stack_without_a_finite_matrix(monkeypatch):
    # a matrix that is not finite gets NaN values without a solve: a failing
    # stack whose test vector leaves only such a matrix, or a stack with no
    # finite matrix at all, takes no values-only solve
    nan = np.full((3, 3), np.nan)
    calls = spy_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ok = linalg.min_at_least(np.stack([nan, -np.eye(3), -np.eye(3)]), 0.0)
        assert calls == [("cholesky", (3, 3, 3)), ("eigh", (3, 3))]
        calls.clear()
        w = linalg.eigvalsh(np.stack([nan, nan]))
        assert calls == []
    assert ok.shape == (3,) and not ok.any()
    assert w.shape == (2, 3) and np.isnan(w).all()


def test_min_at_least_scales_its_margin(monkeypatch):
    # at max |H_ii| ~ 1e4 rounding is ~1e-12, beyond the unscaled margin: a
    # minimum just below the edge is left to eigh
    edge = -1e-10
    rng = np.random.default_rng(19)
    w = np.linspace(5e3, 1e4, 9)
    stack = np.stack([_with_spectrum(rng, w) for _ in range(4)])
    stack[1] = _with_spectrum(rng, np.r_[edge - 5e-11, w[1:]])
    ref = linalg.min_eigenvalue(stack) >= edge
    assert list(ref) == [True, False, True, True]
    assert list(linalg.min_at_least(stack, edge)) == list(ref)
    assert linalg.min_at_least(stack[1], edge) is False
    # the values-only and eigh minima differ by ~1e-12 here: a minimum that
    # close to the edge is re-solved with eigh, on a lone matrix and in a
    # stack the certificate fails
    for seed in range(16):
        for delta in (1e-12, 5e-13):
            u = random_unitary(np.random.default_rng(seed), 9)
            h = (u * np.r_[edge - delta, w[1:]]) @ u.conj().T
            want = linalg.min_eigenvalue(h) >= edge
            assert linalg.min_at_least(h, edge) == want
            pair = np.stack([h, (u * w) @ u.conj().T])
            assert list(linalg.min_at_least(pair, edge)) == [want, True]
    # the factored matrices are shifted by edge + EDGE_MARGIN * s, with
    # s = max(1, max |H_ii|): the margin that covers the rounding
    factored = []
    real = np.linalg.cholesky
    monkeypatch.setattr(
        np.linalg, "cholesky", lambda a: factored.append(a.copy()) or real(a)
    )
    small = stack / 1e5
    for h in (stack, small):
        linalg.min_at_least(h, edge)
        s = np.maximum(1.0, np.abs(np.diagonal(h, axis1=1, axis2=2)).max(1))
        assert s.max() > 5e3 if h is stack else (s == 1.0).all()
        shift = np.diagonal(h - factored.pop(), axis1=1, axis2=2).real
        want = np.broadcast_to(
            (edge + linalg.EDGE_MARGIN * s)[:, None], (4, 9)
        )
        assert np.allclose(shift, want, rtol=1e-3, atol=0)


def test_svd_identity(kernel_path):
    res = linalg.svd(np.eye(4))
    assert np.allclose(res.d, 1.0, atol=1e-14)
    assert np.abs(res.reconstruct() - np.eye(4)).max() < TOL_RECON


def test_svd_diagonal_example(kernel_path):
    res = linalg.svd(np.diag([1.0, 5 / 8, 5 / 8]))
    assert np.allclose(res.d, [1.0, 5 / 8, 5 / 8], atol=1e-13)
    assert res.sigma_max == pytest.approx(1.0, abs=1e-13)
    assert res.sigma_min == pytest.approx(5 / 8, abs=1e-13)


def test_svd_rotation_is_isometric(kernel_path):
    s = 1 / np.sqrt(2)
    rot = np.array([[s, 0, -s], [0, 1, 0], [s, 0, s]])
    res = linalg.svd(rot)
    assert np.allclose(res.d, 1.0, atol=1e-13)
    assert np.abs(res.reconstruct() - rot).max() < TOL_RECON


def test_svd_random_reconstruction(kernel_path):
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        for _ in range(10):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            res = linalg.svd(a)
            assert np.all(np.diff(res.d) <= 1e-13)
            assert np.all(res.d >= 0)
            assert np.abs(res.reconstruct() - a).max() < TOL_RECON
            assert np.abs(res.u.conj().T @ res.u - np.eye(n)).max() < 1e-10
            assert np.abs(res.v @ res.v.conj().T - np.eye(n)).max() < 1e-10


def test_svd_singular_matrix_completion(kernel_path):
    # one exactly-zero singular value: u must still come out unitary
    a = np.diag([2.0, 0.0, 1.0])
    res = linalg.svd(a)
    assert np.allclose(res.d, [2.0, 1.0, 0.0], atol=1e-12)
    assert np.abs(res.u.conj().T @ res.u - np.eye(3)).max() < 1e-10
    assert np.abs(res.reconstruct() - a).max() < TOL_RECON


def test_svd_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        linalg.svd(np.zeros((2, 3)))


def test_kron_agrees_with_loops():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.abs(linalg.kron(a, b) - kron_loops(a, b)).max() < 1e-14


def test_kron_indexing_convention():
    # composite row index i * dimB + k
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.eye(2)
    out = linalg.kron(a, b)
    assert out[0, 2] == 1.0 and out[1, 3] == 1.0
    assert out.sum() == 2.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 3),
    nb=st.integers(1, 3),
)
def test_kron_mixed_product_property(seed, na, nb):
    rng = np.random.default_rng(seed)
    a, c = (rng.standard_normal((na, na)) for _ in range(2))
    b, d = (rng.standard_normal((nb, nb)) for _ in range(2))
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-10


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_kron_bit_identical_to_numpy():
    rng = np.random.default_rng(15)
    # vectors, including an integer x float pair as the tile vectors use
    _assert_same_bits(linalg.kron([1, 0, 0], [0.5, -0.5, 0.0]),
                      np.kron([1, 0, 0], [0.5, -0.5, 0.0]))
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    _assert_same_bits(linalg.kron(u, v), np.kron(u, v))
    # matrices, rectangular, complex x complex, real x complex, real x real
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    r = rng.standard_normal((3, 3))
    for x, y in ((a, b), (r, b), (b, r), (r, r), (np.eye(2), r)):
        _assert_same_bits(linalg.kron(x, y), np.kron(x, y))


def test_kron_stacks_match_one_at_a_time():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    r = rng.standard_normal((2, 2))
    want = np.stack([np.kron(a[k], b[k]) for k in range(5)])
    _assert_same_bits(linalg.kron(a, b), want)
    # a single matrix broadcasts against a stack, on either side
    _assert_same_bits(
        linalg.kron(a, r), np.stack([np.kron(a[k], r) for k in range(5)])
    )
    _assert_same_bits(
        linalg.kron(r, a), np.stack([np.kron(r, a[k]) for k in range(5)])
    )


def test_kron_rejects_vector_with_matrix():
    with pytest.raises(DimensionMismatchError):
        linalg.kron(np.ones(2), np.eye(2))


def test_adjoint():
    m = np.array([[1 + 2j, 3], [4, 5 - 1j]])
    assert np.array_equal(linalg.adjoint(m), m.conj().T)
    stack = np.stack([m, 2j * m])
    assert linalg.adjoint(stack).shape == (2, 2, 2)
    for a, b in zip(linalg.adjoint(stack), stack):
        assert np.array_equal(a, b.conj().T)


def test_herm_defect():
    assert herm_defect(np.eye(2)) == 0.0
    assert herm_defect(np.array([[0, 1], [0, 0]])) == 1.0
