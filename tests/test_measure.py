import warnings

import numpy as np
import pytest

from boundfilter import catalog, linalg, measure, mcsim
from boundfilter.errors import (
    BadDiagonalError,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
)
from boundfilter.filters import apply_filter, make_filter
from boundfilter.states import DensityOperator

from .oracles import (
    ancilla_protocol,
    protocol_walk_matmul,
    random_density_mat,
    random_psd,
    random_unitary,
)


def catalog_filters():
    """Every filter of the catalog table, built with its defaults."""
    return [
        catalog.from_label("filter", label)
        for label, entry in catalog.LABELS.items()
        if entry[0] == "filter"
    ]


# ---------------------------------------------------------------------------
# projector assembly
# ---------------------------------------------------------------------------


def test_projector_blocks():
    d = np.array([1.0, 0.625, 0.625])
    p = measure.build_projector(d)
    assert p.shape == (6, 6)
    delta = np.sqrt(d * (1 - d))
    assert np.allclose(p[:3, :3], np.diag(d))
    assert np.allclose(p[:3, 3:], np.diag(delta))
    assert np.allclose(p[3:, :3], np.diag(delta))
    assert np.allclose(p[3:, 3:], np.eye(3) - np.diag(d))


def test_projector_is_projector():
    rng = np.random.default_rng(50)
    for _ in range(25):
        d = rng.uniform(0.05, 1.0, size=4)
        p = measure.build_projector(d)
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.T).max() == 0.0
        assert np.trace(p) == pytest.approx(4.0, abs=1e-12)


def test_rank_one_decomposition():
    rng = np.random.default_rng(51)
    d = rng.uniform(0.1, 1.0, size=5)
    terms = measure.rank_one_projectors(d)
    assert len(terms) == 5
    for i, ti in enumerate(terms):
        assert np.abs(ti @ ti - ti).max() < 1e-12
        for tj in terms[i + 1 :]:
            assert np.abs(ti @ tj).max() < 1e-12
    assert np.abs(sum(terms) - measure.build_projector(d)).max() < 1e-12


@pytest.mark.parametrize("bad", [[], [0.0, 0.5], [1.2], [-0.1], [float("nan")]])
def test_diag_guards(bad):
    with pytest.raises(BadDiagonalError):
        measure.build_projector(bad)


def test_diag_guard_names_the_entry_as_a_plain_float():
    with pytest.raises(BadDiagonalError) as err:
        measure.build_projector([0.5, 1.5])
    assert str(err.value) == "diagonal entry 1 = 1.5 is outside (0, 1]"


@pytest.mark.parametrize("wrap", [list, np.array], ids=["list", "array"])
def test_diag_guard_rejects_a_complex_entry(wrap):
    # a complex array once lost its imaginary parts with only a warning
    with pytest.raises(BadDiagonalError) as err:
        measure.build_projector(wrap([0.5, 0.5 + 0.3j]))
    assert str(err.value) == "diagonal entry 1 = (0.5+0.3j) is not real"
    # a complex dtype with zero imaginary parts is the real diagonal
    assert np.array_equal(
        measure.build_projector([0.5 + 0j, 0.25]),
        measure.build_projector([0.5, 0.25]),
    )


def test_diag_guard_names_the_first_bad_member_of_a_stack():
    d = np.full((4, 3), 0.5)
    d[2, 1] = 1.5
    d[3, 0] = 0.0
    with pytest.raises(BadDiagonalError) as err:
        measure.build_projector(d)
    assert str(err.value) == "diagonal 2 entry 1 = 1.5 is outside (0, 1]"
    d = np.full((2, 2), 0.5, dtype=complex)
    d[1, 0] += 1e-3j
    with pytest.raises(BadDiagonalError) as err:
        measure.rank_one_projectors(d)
    assert str(err.value) == "diagonal 1 entry 0 = (0.5+0.001j) is not real"
    with pytest.raises(DimensionMismatchError):
        measure.build_projector(np.full((2, 2, 2), 0.5))


# ---------------------------------------------------------------------------
# stacks
# ---------------------------------------------------------------------------


def _stack_cases(rng, count=5, n=3):
    d = rng.uniform(0.05, 1.0, size=(count, n))
    rho = np.stack([random_density_mat(rng, n) for _ in range(count)])
    return d, rho


def test_a_2d_diagonal_is_a_stack():
    p = measure.build_projector(np.full((2, 2), 0.5))
    assert p.shape == (2, 4, 4)
    assert np.array_equal(p[0], measure.build_projector([0.5, 0.5]))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_projectors_of_a_stack_match_one_at_a_time(n):
    d, _ = _stack_cases(np.random.default_rng(65), n=n)
    p = measure.build_projector(d)
    terms = measure.rank_one_projectors(d)
    assert p.shape == (5, 2 * n, 2 * n) and len(terms) == n
    for k in range(5):
        assert np.array_equal(p[k], measure.build_projector(d[k]))
        lone = measure.rank_one_projectors(d[k])
        assert isinstance(lone, list)
        for t, one in zip(terms, lone):
            assert np.array_equal(t[k], one)


def test_postselection_of_a_stack_matches_one_at_a_time():
    d, rho = _stack_cases(np.random.default_rng(66))
    full = measure.postselect_intermediate(d, rho)
    block, prob = measure.postselect_diag(d, rho)
    assert full.shape == (5, 6, 6) and block.shape == (5, 3, 3)
    assert prob.shape == (5,)
    for k in range(5):
        assert np.array_equal(
            full[k], measure.postselect_intermediate(d[k], rho[k])
        )
        one, p = measure.postselect_diag(d[k], rho[k])
        assert isinstance(p, float)
        assert np.array_equal(block[k], one) and prob[k] == p


def test_postselection_of_a_stack_checks_its_shapes():
    d, rho = _stack_cases(np.random.default_rng(67))
    with pytest.raises(DimensionMismatchError) as err:
        measure.postselect_intermediate(d[:4], rho)
    assert str(err.value) == (
        "state shape (5, 3, 3) does not match diagonal stack shape (4, 3)"
    )
    with pytest.raises(DimensionMismatchError):
        measure.postselect_diag(d[0], rho)


def test_postselection_of_a_stack_names_its_first_non_psd_member(monkeypatch):
    d, rho = _stack_cases(np.random.default_rng(68), count=6)
    rho[3] = np.diag([1.0, -0.5, 0.2])
    rho[4] = np.diag([1.0, -0.7, 0.2])
    calls = []
    real = linalg.min_at_least

    def spy(h, *args, **kwargs):
        calls.append(np.shape(h))
        return real(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "min_at_least", spy)
    with pytest.raises(NotPSDError) as err:
        measure.postselect_diag(d, rho)
    assert str(err.value) == (
        "postselection input 3 not PSD: min eigenvalue -5.000000e-01"
    )
    # one verdict call gates the whole stack
    assert calls == [(6, 3, 3)]


# ---------------------------------------------------------------------------
# postselection
# ---------------------------------------------------------------------------


def test_postselect_blocks_against_direct_formula():
    rng = np.random.default_rng(52)
    d = rng.uniform(0.2, 1.0, size=3)
    rho = random_density_mat(rng, 3)
    dm = np.diag(d)
    delta = np.diag(np.sqrt(d * (1 - d)))
    full = measure.postselect_intermediate(d, rho)
    assert np.abs(full[:3, :3] - dm @ rho @ dm).max() < 1e-13
    assert np.abs(full[:3, 3:] - dm @ rho @ delta).max() < 1e-13
    assert np.abs(full[3:, :3] - delta @ rho @ dm).max() < 1e-13
    assert np.abs(full[3:, 3:] - delta @ rho @ delta).max() < 1e-13


def test_postselect_probability_identity():
    # D^2 + Delta^2 = D makes the whole-projector probability tr(D rho)
    rng = np.random.default_rng(53)
    for _ in range(20):
        d = rng.uniform(0.05, 1.0, size=4)
        rho = random_density_mat(rng, 4)
        full = measure.postselect_intermediate(d, rho)
        assert np.trace(full).real == pytest.approx(
            float(np.sum(d * np.diagonal(rho).real)), abs=1e-12
        )


def test_postselect_diag_returns_block_and_prob():
    rng = np.random.default_rng(54)
    d = rng.uniform(0.2, 1.0, size=4)
    rho = random_density_mat(rng, 4)
    block, prob = measure.postselect_diag(d, rho)
    dm = np.diag(d)
    assert np.abs(block - dm @ rho @ dm).max() < 1e-13
    assert prob == pytest.approx(float(np.trace(dm @ rho @ dm).real), abs=1e-13)
    assert 0.0 < prob <= 1.0 + 1e-12


def test_postselect_diag_accepts_unnormalized_psd():
    rng = np.random.default_rng(55)
    block, prob = measure.postselect_diag(
        [0.5, 0.5, 1.0], 3.7 * random_psd(rng, 3)
    )
    assert prob > 0.0


def test_postselect_diag_rejects_bad_input():
    rng = np.random.default_rng(56)
    herm_not_psd = np.diag([1.0, -0.5, 0.2])
    with pytest.raises(NotPSDError):
        measure.postselect_diag([0.5, 0.5, 0.5], herm_not_psd)
    non_herm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        measure.postselect_diag([0.5, 0.5, 0.5], non_herm)
    with pytest.raises(DimensionMismatchError):
        measure.postselect_intermediate([0.5, 0.5], np.eye(3))


@pytest.mark.parametrize(
    "rho, shown",
    [
        (np.diag([1.0, -0.5, 0.2]), "-5.000000e-01"),
        # the Hermitian part overflows, so the minimum is NaN
        (np.array([[0.5, 1e308], [1e308, 0.5]]), "nan"),
        (np.full((3, 3), np.nan), "nan"),
    ],
    ids=["negative", "overflowing", "nan"],
)
def test_postselect_diag_rejects_a_nan_minimum(rho, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPSDError) as err:
            measure.postselect_diag(np.full(len(rho), 0.5), rho)
    assert str(err.value) == (
        f"postselection input not PSD: min eigenvalue {shown}"
    )


def test_embed_with_ancilla_layout():
    rng = np.random.default_rng(57)
    rho = random_density_mat(rng, 3)
    out = measure.embed_with_ancilla(rho)
    assert out.shape == (6, 6)
    assert np.abs(out[:3, :3] - rho).max() == 0.0
    assert np.abs(out[3:, :]).max() == 0.0
    assert np.abs(out[:, 3:]).max() == 0.0


# ---------------------------------------------------------------------------
# rescaling and the full protocol
# ---------------------------------------------------------------------------


def test_rescaled_diag():
    f = catalog.choi_example_filter()
    d = measure.rescaled_diag(f.svd_l)
    assert np.allclose(sorted(d), [0.625, 0.625, 1.0])
    d2 = measure.rescaled_diag(linalg.svd(np.diag([4.0, 2.0])))
    assert np.allclose(d2, [1.0, 0.5])


def test_protocol_matches_direct_filtering():
    rng = np.random.default_rng(58)
    rho = catalog.rho_xt(0.63, 0.05)
    for f in catalog_filters():
        if f.dims != rho.dims:
            continue
        direct, weight = apply_filter(f, rho)
        out, prob = measure.protocol_analytic(f, rho)
        assert np.abs(out.mat - direct.mat).max() < 1e-10
        scale = (f.svd_l.sigma_max * f.svd_m.sigma_max) ** 2
        assert prob == pytest.approx(weight / scale, rel=1e-10)


def test_protocol_on_a_stack_matches_one_at_a_time():
    rng = np.random.default_rng(61)
    mats = np.stack([random_density_mat(rng, 9) for _ in range(5)])
    rho = DensityOperator(3, 3, mats)
    for f in catalog_filters() + [
        make_filter(random_unitary(rng, 3) * 2, np.diag([1.0, 0.3, 0.7]))
    ]:
        if f.dims != rho.dims:
            continue
        out, prob = measure.protocol_analytic(f, rho)
        assert out.mat.shape == (5, 9, 9) and prob.shape == (5,)
        for k in range(5):
            one, p = measure.protocol_analytic(
                f, DensityOperator(3, 3, mats[k])
            )
            assert isinstance(p, float)
            assert np.array_equal(out.mat[k], one.mat) and prob[k] == p


def test_protocol_with_a_filter_stack():
    rng = np.random.default_rng(62)
    ls = np.stack([random_unitary(rng, 3) * s for s in (1.0, 2.0, 0.5)])
    ms = np.stack([np.diag([1.0, 0.2, 0.6])] * 3)
    f = make_filter(ls, ms)
    rho = DensityOperator(
        3, 3, np.stack([random_density_mat(rng, 9) for _ in range(3)])
    )
    out, prob = measure.protocol_analytic(f, rho)
    direct, weight = apply_filter(f, rho)
    scale = (f.svd_l.sigma_max * f.svd_m.sigma_max) ** 2
    assert np.abs(out.mat - direct.mat).max() < 1e-10
    assert np.allclose(prob, weight / scale, rtol=1e-10)
    for k in range(3):
        one, p = measure.protocol_analytic(
            make_filter(ls[k], ms[k]), DensityOperator(3, 3, rho.mat[k])
        )
        assert np.array_equal(out.mat[k], one.mat) and prob[k] == p


def test_protocol_order_independence():
    rng = np.random.default_rng(59)
    rho = DensityOperator(3, 3, random_density_mat(rng, 9))
    f = make_filter(
        rng.normal(size=(3, 3)) + np.eye(3) * 2,
        rng.normal(size=(3, 3)) + np.eye(3) * 2,
    )
    # the walk runs Alice's postselection first; the ancilla model with
    # Bob's first must reach the same state with the same total weight
    out, weights = measure.protocol_walk(f, rho)
    ref_state, ref_probs = ancilla_protocol(f.l, f.m, rho.mat, bob_first=True)
    assert weights[-1] == pytest.approx(np.prod(ref_probs), rel=1e-12)
    assert np.abs(out.mat - ref_state).max() < 1e-12


def test_protocol_with_unitary_factors_is_deterministic():
    rng = np.random.default_rng(60)
    rho = DensityOperator(3, 3, random_density_mat(rng, 9))
    f = make_filter(random_unitary(rng, 3), random_unitary(rng, 3))
    _, prob = measure.protocol_analytic(f, rho)
    assert prob == pytest.approx(1.0, abs=1e-10)


def test_protocol_example_probability():
    rho = catalog.rho_xt(0.63, 0.05)
    _, prob = measure.protocol_analytic(catalog.choi_example_filter(), rho)
    # sigma_max = 1 for both factors, so the probability is the yield itself
    assert prob == pytest.approx(37.9359375 / 64.2, rel=1e-12)


def walk_cases():
    """(filter, state) pairs: every catalog filter on every catalog state of
    matching dims, and random invertible complex 2x2 and 3x3 filters."""
    kinds = {label: entry[0] for label, entry in catalog.LABELS.items()}
    cases = []
    for state_label in [k for k, kind in kinds.items() if kind == "state"]:
        rho = catalog.from_label("state", state_label)
        for label, kind in kinds.items():
            if kind == "filter":
                f = catalog.from_label("filter", label, rho.dims)
                if f.dims == rho.dims:
                    cases.append((label, f, rho))
    rng = np.random.default_rng(63)
    for n in (2, 3):
        for _ in range(6):
            g = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
            rho = DensityOperator(n, n, random_density_mat(rng, n * n))
            cases.append(("random", make_filter(g[0], g[1]), rho))
    return cases


def conditional(weights):
    return weights / np.concatenate(([1.0], weights[:-1]))


@pytest.mark.parametrize("bob_first", [False, True])
def test_walk_matches_ancilla_oracle(bob_first):
    # bob_first orders only the oracle: the walk runs Alice first, so in
    # the other order only the state and the total weight must agree
    cases = walk_cases()
    filters = {k for k, e in catalog.LABELS.items() if e[0] == "filter"}
    assert {label for label, _, _ in cases} == filters | {"random"}
    for _, f, rho in cases:
        out, weights = measure.protocol_walk(f, rho)
        ref_state, ref_probs = ancilla_protocol(f.l, f.m, rho.mat, bob_first)
        assert weights.shape == (4,)
        assert np.abs(out.mat - ref_state).max() <= 1e-12
        if bob_first:
            assert abs(weights[-1] - np.prod(ref_probs)) <= 1e-12
            continue
        assert np.abs(conditional(weights) - ref_probs).max() <= 1e-12
        # the simulator's lottery runs on the same walk
        run = mcsim.run_protocol(f, rho, shots=1, seed=0)
        dev = np.subtract(run.branch_probs, ref_probs)
        assert np.abs(dev).max() <= 1e-12


def test_walk_weights_on_a_stack():
    rng = np.random.default_rng(64)
    mats = np.stack([random_density_mat(rng, 9) for _ in range(4)])
    f = make_filter(random_unitary(rng, 3) * 2, np.diag([1.0, 0.3, 0.7]))
    out, weights = measure.protocol_walk(f, DensityOperator(3, 3, mats))
    assert out.mat.shape == (4, 9, 9) and weights.shape == (4, 4)
    for k in range(4):
        one, w = measure.protocol_walk(f, DensityOperator(3, 3, mats[k]))
        assert np.array_equal(out.mat[k], one.mat)
        assert np.array_equal(weights[k], w)
    # each outcome can only lower the weight
    assert (np.diff(weights, axis=-1) <= 1e-15).all()


def _signed_zero_states(rng, n, count):
    """Diagonal-dominant states whose off-diagonal entries include +-0.0 and
    subnormals of either sign, in both parts."""
    odd = [
        complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
        complex(-5e-324, -5e-324), complex(-1e-323, 0.0), 5e-324 - 1e-310j,
        -2.2e-308 + 4e-320j, complex(1e-3, -0.0),
    ]
    mats = []
    for _ in range(count):
        p = rng.uniform(0.5, 1.0, n)
        m = np.diag(p / p.sum()).astype(complex)
        for i, j in rng.integers(n, size=(2 * n, 2)):
            if i != j:
                m[i, j] = odd[rng.integers(len(odd))]
                m[j, i] = np.conj(m[i, j])
        mats.append(m)
    return mats


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_walk_is_the_matmul_walk_bit_for_bit():
    # the diagonal steps scale rows and columns where the walk once
    # multiplied by the kron'd diagonal matrix: state and weights must keep
    # their bytes, for catalog pairs, random filters, lone states and
    # stacks.  With diagonal and permutation factors, d times a negative
    # subnormal underflows inside the walk to a zero whose sign the
    # scaling and the matmul (with or without FMA) may give differently;
    # the output must not show it
    rng = np.random.default_rng(65)
    cases = [(f, rho) for _, f, rho in walk_cases()]
    for da, db in ((2, 2), (3, 3), (2, 3)):
        mats = _signed_zero_states(rng, da * db, 3)
        mats.append(random_density_mat(rng, da * db))
        filters = [
            make_filter(
                rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da)),
                rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db)),
            ),
            make_filter(
                np.diag(rng.uniform(0.1, 1, da)),
                np.diag(rng.uniform(0.1, 1, db)),
            ),
            make_filter(
                np.eye(da)[rng.permutation(da)] * rng.uniform(0.1, 1, da),
                np.diag(rng.uniform(0.1, 1, db)),
            ),
            make_filter(
                np.stack([rng.normal(size=(da, da)) + 2 * np.eye(da)] * 4),
                np.stack([np.diag(rng.uniform(0.1, 1, db)) for _ in range(4)]),
            ),
        ]
        for f in filters:
            cases += [(f, DensityOperator(da, db, m)) for m in mats]
            cases.append((f, DensityOperator(da, db, np.stack(mats))))
    for f, rho in cases:
        out, weights = measure.protocol_walk(f, rho)
        ref, ref_weights = protocol_walk_matmul(f, rho)
        assert _same_bytes(out.mat, ref.mat)
        assert _same_bytes(weights, ref_weights)


def test_protocol_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        measure.protocol_analytic(
            catalog.gisin_filter(0.5), catalog.max_mixed()
        )
