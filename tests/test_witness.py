import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundfilter import catalog, linalg, witness
from boundfilter.errors import (
    DimensionMismatchError,
    NonSquareError,
    ParseError,
)
from boundfilter.filters import apply_filter, make_filter
from boundfilter.states import DensityOperator
from boundfilter.witness import MAPS, TRANSPOSE_B, Side, Witness

from .oracles import (
    apply_witness_per_matrix,
    herm_defect,
    one_sided_phi_loops,
    one_sided_psi_loops,
    pt_b_loops,
    random_density_mat,
    random_herm,
    random_psd,
    random_unitary,
    superoperator_by_units,
)

CHOI_KINDS = ("choi-phi", "choi-psi")


def max_entangled_3():
    amps = np.zeros(9)
    amps[[0, 4, 8]] = 1 / np.sqrt(3)
    return DensityOperator(3, 3, np.outer(amps, amps))


# ---------------------------------------------------------------------------
# the maps themselves
# ---------------------------------------------------------------------------


def test_choi_maps_fix_identity():
    for kind in CHOI_KINDS:
        out = witness.apply_map(MAPS[kind], np.eye(3))
        assert np.abs(out - np.eye(3)).max() < 1e-15


def test_choi_maps_on_matrix_units():
    e00 = np.zeros((3, 3))
    e00[0, 0] = 1.0
    # first map feeds a11 into the second diagonal slot, second map into
    # the third
    assert np.allclose(
        witness.apply_map(MAPS["choi-phi"], e00), np.diag([0.5, 0.5, 0.0])
    )
    assert np.allclose(
        witness.apply_map(MAPS["choi-psi"], e00), np.diag([0.5, 0.0, 0.5])
    )
    e01 = np.zeros((3, 3))
    e01[0, 1] = 1.0
    out = witness.apply_map(MAPS["choi-phi"], e01)
    assert out[0, 1] == -0.5
    assert np.count_nonzero(out) == 1


def test_choi_maps_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(31)
    h = np.stack([random_herm(rng, 3) for _ in range(25)])
    for kind in CHOI_KINDS:
        out = witness.apply_map(MAPS[kind], h)
        assert out.shape == h.shape
        tr = np.trace(out, axis1=1, axis2=2) - np.trace(h, axis1=1, axis2=2)
        assert np.abs(tr).max() < 1e-12
        assert herm_defect(out).max() < 1e-12


def test_choi_maps_positive_on_psd():
    rng = np.random.default_rng(32)
    for _ in range(50):
        psd = random_psd(rng, 3)
        for kind in CHOI_KINDS:
            out = witness.apply_map(MAPS[kind], psd)
            assert linalg.min_eigenvalue(out) > -1e-10


def test_choi_maps_reject_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        witness.apply_map(MAPS["choi-phi"], np.eye(2))
    with pytest.raises(DimensionMismatchError):
        witness.apply_map(MAPS["choi-psi"], np.eye(4))
    with pytest.raises(NonSquareError):
        witness.apply_map(MAPS["transpose"], np.ones((2, 3)))


def test_maps_not_completely_positive():
    # one-sided application drives the maximally entangled state to -1/6
    omega = max_entangled_3()
    for kind in CHOI_KINDS:
        w = Witness(MAPS[kind], Side.A)
        wmin = linalg.min_eigenvalue(witness.apply_witness(w, omega))
        assert wmin == pytest.approx(-1 / 6, abs=1e-12)


# ---------------------------------------------------------------------------
# one-sided application
# ---------------------------------------------------------------------------


def test_witness_requires_dim_three_for_choi():
    bell = catalog.bell_state()
    for kind in CHOI_KINDS:
        for side in Side:
            with pytest.raises(
                DimensionMismatchError,
                match=f"^{kind} requires a 3-dimensional side, "
                "got local_dim=2$",
            ):
                witness.apply_witness(Witness(MAPS[kind], side), bell)
    # the transpose acts on a side of any dimension; on side A it is the
    # full transpose of the partial transpose on B
    out = witness.apply_witness(Witness(MAPS["transpose"], Side.A), bell)
    pt_b = witness.apply_witness(TRANSPOSE_B, bell)
    assert np.abs(out - pt_b.T).max() < 1e-15


def test_witness_rejects_unknown_kind():
    # parse_witness_spec is the one place a kind is checked
    with pytest.raises(ParseError) as info:
        witness.parse_witness_spec("bogus:A")
    assert str(info.value) == (
        "unknown witness kind 'bogus' (valid: choi-phi, choi-psi, transpose)"
    )


def test_apply_witness_dim_guard():
    # the side the witness acts on decides: 3 on A passes, 2 on B does not
    rng = np.random.default_rng(37)
    rho = DensityOperator(3, 2, random_density_mat(rng, 6))
    phi = MAPS["choi-phi"]
    assert witness.apply_witness(Witness(phi, Side.A), rho).shape == (6, 6)
    with pytest.raises(DimensionMismatchError):
        witness.apply_witness(Witness(phi, Side.B), rho)


def test_transpose_witness_equals_partial_transpose():
    rng = np.random.default_rng(33)
    m = random_density_mat(rng, 9)
    rho = DensityOperator(3, 3, m)
    out = witness.apply_witness(
        Witness(MAPS["transpose"], Side.B), rho
    )
    assert np.abs(out - pt_b_loops(m, 3, 3)).max() < 1e-14


def test_transpose_witness_side_a():
    rng = np.random.default_rng(34)
    m = random_density_mat(rng, 6)
    rho = DensityOperator(2, 3, m)
    out = witness.apply_witness(
        Witness(MAPS["transpose"], Side.A), rho
    )
    oracle = m.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
    assert np.abs(out - oracle).max() < 1e-14


def test_one_sided_choi_matches_kraus_oracle():
    rng = np.random.default_rng(35)
    for _ in range(10):
        m = random_density_mat(rng, 9)
        rho = DensityOperator(3, 3, m)
        pairs = [
            ("choi-phi", Side.A, one_sided_phi_loops),
            ("choi-phi", Side.B, one_sided_phi_loops),
            ("choi-psi", Side.A, one_sided_psi_loops),
            ("choi-psi", Side.B, one_sided_psi_loops),
        ]
        for kind, side, oracle in pairs:
            out = witness.apply_witness(Witness(MAPS[kind], side), rho)
            ref = oracle(m, side.value, 3)
            assert np.abs(out - ref).max() < 1e-13


def kraus_oracle(kind, side, m, da, db):
    other = db if side is Side.A else da
    if kind == "choi-phi":
        return one_sided_phi_loops(m, side.value, other)
    if kind == "choi-psi":
        return one_sided_psi_loops(m, side.value, other)
    # the full transpose is the product of the two partial transposes
    pt_b = pt_b_loops(m, da, db)
    return pt_b if side is Side.B else pt_b.T


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
    other=st.integers(2, 3),
    kind=st.sampled_from(list(witness.MAPS)),
    side=st.sampled_from(list(Side)),
)
def test_stacked_apply_witness_matches_kraus_oracle(
    seed, count, other, kind, side
):
    rng = np.random.default_rng(seed)
    da, db = (3, other) if side is Side.A else (other, 3)
    mats = np.stack([random_density_mat(rng, da * db) for _ in range(count)])
    out = witness.apply_witness(
        Witness(MAPS[kind], side), DensityOperator(da, db, mats)
    )
    assert out.shape == mats.shape
    for m, got in zip(mats, out):
        assert np.abs(got - kraus_oracle(kind, side, m, da, db)).max() < 1e-13


def _byte_sources(dims):
    """(name, stack) of states on dims: seeded random complex states and,
    on 3 x 3, rho-xt grids (exact zeros) and rho-upb, on 2 x 2 bell."""
    rng = np.random.default_rng(sum(dims))
    n = dims[0] * dims[1]
    yield "random", np.stack([random_density_mat(rng, n) for _ in range(64)])
    if dims == (3, 3):
        yield "rho-xt", catalog.rho_xt(np.linspace(0, 1, 64), 0.05).mat
        yield "rho-xt-t2", catalog.rho_xt(np.linspace(0, 0.7, 64), 2.0).mat
        yield "rho-upb", catalog.rho_upb().mat[None]
    if dims == (2, 2):
        yield "bell", catalog.bell_state().mat[None]


@pytest.mark.parametrize(
    "kind, side, dims",
    [
        pytest.param(
            kind, side, dims, id=f"{kind}-{side.value}-{dims[0]}x{dims[1]}"
        )
        for kind in witness.MAPS
        for side in Side
        for dims in [(2, 2), (3, 3), (2, 3), (3, 2)]
        if kind == "transpose" or dims[side is Side.B] == 3
    ],
)
def test_apply_witness_is_the_per_matrix_product_byte_for_byte(
    kind, side, dims
):
    # every superoperator row holds at most two entries in {-1/2, 1/2, 1}
    # (test_superoperator_rows_round_exactly), so on normal-range input the
    # shape of the product cannot move a bit, signs of zeros included
    w = Witness(MAPS[kind], side)
    for name, stack in _byte_sources(dims):
        for mats in (stack[0], stack[:1], stack, stack[:0]):
            rho = DensityOperator(*dims, mats)
            got = witness.apply_witness(w, rho)
            ref = apply_witness_per_matrix(w, rho)
            assert got.shape == mats.shape, name
            assert got.tobytes() == ref.tobytes(), (name, mats.shape)


@pytest.mark.parametrize(
    "kind, side",
    [
        pytest.param(kind, side, id=f"{kind}-{side.value}")
        for kind in witness.MAPS
        for side in Side
    ],
)
def test_apply_witness_on_subnormal_entries_equals_the_per_matrix_product(
    kind, side
):
    # halving a subnormal rounds, and an entry that underflows to zero may
    # take its sign from the product's orientation: values are equal, bytes
    # need not be (on side A some zeros of the Choi maps can differ in sign)
    rng = np.random.default_rng(25)
    g = rng.integers(-3, 4, (40, 9, 9)) + 1j * rng.integers(-3, 4, (40, 9, 9))
    off = (g + linalg.adjoint(g)) * 5e-324
    mats = off + np.eye(9) / 9 - off * np.eye(9)
    small = np.abs(mats[:, ~np.eye(9, dtype=bool)])
    assert (small < np.finfo(float).tiny).all() and small.any()
    rho = DensityOperator(3, 3, mats)
    w = Witness(MAPS[kind], side)
    got = witness.apply_witness(w, rho)
    assert np.array_equal(got, apply_witness_per_matrix(w, rho))


def test_apply_witness_keeps_rows_and_columns_apart(monkeypatch):
    # every MAPS map commutes with the transpose, so only a map that does
    # not, here X -> G X with S = G x I in the row-major vec, can tell the
    # acted-on side's rows from its columns
    rng = np.random.default_rng(26)
    for side, dims in ((Side.A, (3, 2)), (Side.B, (2, 3))):
        s = np.kron(rng.standard_normal((3, 3)), np.eye(3))
        monkeypatch.setattr(witness, "superoperator", lambda m, d, s=s: s)
        mats = np.stack([random_density_mat(rng, 6) for _ in range(5)])
        for m in (mats, mats[0]):
            rho = DensityOperator(*dims, m)
            w = Witness(MAPS["transpose"], side)
            ref = apply_witness_per_matrix(w, rho)
            assert np.abs(witness.apply_witness(w, rho) - ref).max() < 1e-13


@pytest.mark.parametrize(
    "kind, d",
    [("choi-phi", 3), ("choi-psi", 3)]
    + [("transpose", d) for d in range(1, 6)],
)
def test_superoperator_rows_round_exactly(kind, d):
    s = witness.superoperator(MAPS[kind], d)
    assert (s.imag == 0).all()
    assert ((s != 0).sum(axis=1) <= 2).all()
    assert set(s.real[s != 0].tolist()) <= {-0.5, 0.5, 1.0}


@pytest.mark.parametrize(
    "kind, d",
    [("choi-phi", 3), ("choi-psi", 3)] + [("transpose", d) for d in (2, 3, 4)],
)
def test_superoperator_matches_unit_build(kind, d):
    # byte for byte, signs of zeros included: LAPACK's Householder step
    # reads them, so equal values alone could move a printed last digit
    s = witness.superoperator(MAPS[kind], d)
    assert s is witness.superoperator(MAPS[kind], d)
    assert not s.flags.writeable
    assert s.tobytes() == superoperator_by_units(kind, d).tobytes()


def test_apply_witness_preserves_trace():
    rng = np.random.default_rng(36)
    m = random_density_mat(rng, 9)
    rho = DensityOperator(3, 3, m)
    for kind in witness.MAPS:
        for side in Side:
            out = witness.apply_witness(Witness(MAPS[kind], side), rho)
            assert abs(np.trace(out) - 1.0) < 1e-12


def _conditioned(rng, cond):
    """A complex 3 x 3 matrix with singular values in [1, cond]."""
    s = rng.uniform(1.0, cond, 3)
    return (random_unitary(rng, 3) * s) @ random_unitary(rng, 3)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(list(witness.MAPS)),
    side=st.sampled_from(list(Side)),
    mix=st.floats(0.0, 1.0),
)
def test_opposite_factor_never_changes_a_verdict(seed, kind, side, mix):
    # the factor opposite the witness is a congruence of the witness image
    # (and the yield a positive scale), so by Sylvester's law of inertia it
    # keeps the count of negative eigenvalues.  States mix a random pure
    # state, entangled in general, into a full-rank one.
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    psi /= np.linalg.norm(psi)
    rho = DensityOperator(
        3, 3,
        mix * np.outer(psi, psi.conj())
        + (1 - mix) * random_density_mat(rng, 9),
    )
    w = Witness(MAPS[kind], side)
    near, far = _conditioned(rng, 10.0), _conditioned(rng, 10.0)

    def image(opposite):
        pair = (near, opposite) if side is Side.A else (opposite, near)
        filtered, _ = apply_filter(make_filter(*pair), rho)
        return linalg.eigvalsh(witness.apply_witness(w, filtered))

    plain = image(np.eye(3))
    assume(np.abs(plain).min() >= 1e-6)
    assert (image(far) < 0).sum() == (plain < 0).sum()


@pytest.mark.parametrize("kind", CHOI_KINDS)
def test_diagonal_filter_stays_in_the_choi_family(kind):
    # for D = diag(d), d > 0: D^-1 (1/2) Phi[C](D X D) D^-1 = (1/2)
    # (diag(C' x) - X) with C'_ij = C_ij d_j^2 / d_i^2, a generalized Choi
    # map whose C' is not circulant
    m = MAPS[kind]
    a, b, c = m.coef
    circ = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = np.exp(rng.uniform(-1.5, 1.5, 3))
        x = random_herm(rng, 3)
        got = witness.apply_map(m, d[:, None] * x * d) / np.outer(d, d)
        c_prime = circ * d**2 / (d**2)[:, None]
        want = 0.5 * (np.diag(c_prime @ np.diagonal(x).real) - x)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_family_state_in_window_is_undetected():
    rho = catalog.rho_xt(0.63, 0.05)
    w = Witness(MAPS["choi-phi"], Side.A)
    report = witness.detect(w, rho)
    assert not report.detected
    assert report.min_eigenvalue == pytest.approx(3.746072556899412e-4, abs=1e-9)


def test_family_state_detected_after_filter():
    rho = catalog.rho_xt(0.63, 0.05)
    filtered, _ = apply_filter(catalog.choi_example_filter(), rho)
    w = Witness(MAPS["choi-phi"], Side.A)
    report = witness.detect(w, filtered)
    assert report.detected
    assert report.min_eigenvalue == pytest.approx(
        -3.1097783531212e-4, abs=1e-9
    )


def test_tile_state_unfiltered_and_filtered():
    rho = catalog.rho_upb()
    w = Witness(MAPS["choi-psi"], Side.B)
    assert not witness.detect(w, rho).detected
    filtered, _ = apply_filter(catalog.upb_rotation_filter(), rho)
    after = witness.detect(w, filtered)
    assert after.detected
    assert after.min_eigenvalue == pytest.approx(
        -8.806706057633812e-3, abs=1e-10
    )


def test_detection_report_csv():
    rho = catalog.rho_upb()
    w = Witness(MAPS["choi-psi"], Side.B)
    report = witness.detect(w, rho)
    assert report == witness.DetectionReport(report.min_eigenvalue, False)
    assert report.min_eigenvalue == pytest.approx(
        8.520845622163181e-3, abs=1e-10
    )


def test_detect_threshold_is_injectable(monkeypatch):
    # detect reads TOL_NEG when called, so patching it moves the verdict
    rho = catalog.rho_upb()
    filtered, _ = apply_filter(catalog.upb_rotation_filter(), rho)
    w = Witness(MAPS["choi-psi"], Side.B)
    assert witness.detect(w, filtered).detected
    monkeypatch.setattr(witness, "TOL_NEG", 1e-2)
    assert not witness.detect(w, filtered).detected


# ---------------------------------------------------------------------------
# spec string parsing
# ---------------------------------------------------------------------------


def test_parse_witness_spec():
    assert witness.parse_witness_spec("choi-phi:A") == Witness(
        MAPS["choi-phi"], Side.A
    )
    assert witness.parse_witness_spec("transpose:B") == Witness(
        MAPS["transpose"], Side.B
    )


@pytest.mark.parametrize("name", list(MAPS))
def test_every_map_name_round_trips_through_its_spec(name):
    assert MAPS[name].name == name
    for side in Side:
        w = witness.parse_witness_spec(f"{name}:{side.value}")
        assert w.map is MAPS[name] and w.side is side


@pytest.mark.parametrize(
    "text", ["choi-phi", "choi-phi:A:B", "bogus:A", "choi-phi:C", ""]
)
def test_parse_witness_spec_rejects(text):
    with pytest.raises(ParseError):
        witness.parse_witness_spec(text)
