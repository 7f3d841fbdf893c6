import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundfilter import catalog, linalg, witness
from boundfilter.errors import (
    BadParamError,
    DimensionMismatchError,
    ParseError,
)
from boundfilter.filters import apply_filter
from boundfilter.states import DensityOperator, partial_transpose_b
from boundfilter.witness import Side, Witness, WitnessKind

from .oracles import (
    one_sided_phi_loops,
    one_sided_psi_loops,
    pt_b_loops,
    random_density_mat,
    random_herm,
    random_psd,
)


def max_entangled_3():
    amps = np.zeros(9)
    amps[[0, 4, 8]] = 1 / np.sqrt(3)
    return DensityOperator(3, 3, np.outer(amps, amps))


# ---------------------------------------------------------------------------
# the maps themselves
# ---------------------------------------------------------------------------


def test_choi_maps_fix_identity():
    assert np.abs(witness.choi_phi(np.eye(3)) - np.eye(3)).max() < 1e-15
    assert np.abs(witness.choi_psi(np.eye(3)) - np.eye(3)).max() < 1e-15


def test_choi_maps_on_matrix_units():
    e00 = np.zeros((3, 3))
    e00[0, 0] = 1.0
    # first map feeds a11 into the second diagonal slot, second map into
    # the third
    assert np.allclose(witness.choi_phi(e00), np.diag([0.5, 0.5, 0.0]))
    assert np.allclose(witness.choi_psi(e00), np.diag([0.5, 0.0, 0.5]))
    e01 = np.zeros((3, 3))
    e01[0, 1] = 1.0
    out = witness.choi_phi(e01)
    assert out[0, 1] == -0.5
    assert np.count_nonzero(out) == 1


def test_choi_maps_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(31)
    for _ in range(25):
        h = random_herm(rng, 3)
        for mapf in (witness.choi_phi, witness.choi_psi):
            out = mapf(h)
            assert abs(np.trace(out) - np.trace(h)) < 1e-12
            assert linalg.herm_defect(out) < 1e-12


def test_choi_maps_positive_on_psd():
    rng = np.random.default_rng(32)
    for _ in range(50):
        psd = random_psd(rng, 3)
        for mapf in (witness.choi_phi, witness.choi_psi):
            assert linalg.min_eigenvalue(mapf(psd)) > -1e-10


def test_choi_maps_reject_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        witness.choi_phi(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        witness.choi_psi(np.eye(4))


def test_maps_not_completely_positive():
    # one-sided application drives the maximally entangled state to -1/6
    omega = max_entangled_3()
    for kind in (WitnessKind.CHOI_PHI, WitnessKind.CHOI_PSI):
        w = Witness(kind, Side.A, 3)
        wmin = linalg.min_eigenvalue(witness.apply_witness(w, omega))
        assert wmin == pytest.approx(-1 / 6, abs=1e-12)


# ---------------------------------------------------------------------------
# one-sided application
# ---------------------------------------------------------------------------


def test_witness_requires_dim_three_for_choi():
    with pytest.raises(BadParamError):
        Witness(WitnessKind.CHOI_PHI, Side.A, 2)
    Witness(WitnessKind.TRANSPOSE, Side.B, 2)


def test_apply_witness_dim_guard():
    w = Witness(WitnessKind.CHOI_PHI, Side.A, 3)
    with pytest.raises(DimensionMismatchError):
        witness.apply_witness(w, catalog.bell_state())


def test_transpose_witness_equals_partial_transpose():
    rng = np.random.default_rng(33)
    m = random_density_mat(rng, 9)
    rho = DensityOperator(3, 3, m)
    out = witness.apply_witness(
        Witness(WitnessKind.TRANSPOSE, Side.B, 3), rho
    )
    assert np.abs(out - partial_transpose_b(rho)).max() < 1e-14


def test_transpose_witness_side_a():
    rng = np.random.default_rng(34)
    m = random_density_mat(rng, 6)
    rho = DensityOperator(2, 3, m)
    out = witness.apply_witness(
        Witness(WitnessKind.TRANSPOSE, Side.A, 2), rho
    )
    oracle = m.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
    assert np.abs(out - oracle).max() < 1e-14


def test_one_sided_choi_matches_kraus_oracle():
    rng = np.random.default_rng(35)
    for _ in range(10):
        m = random_density_mat(rng, 9)
        rho = DensityOperator(3, 3, m)
        pairs = [
            (WitnessKind.CHOI_PHI, Side.A, one_sided_phi_loops),
            (WitnessKind.CHOI_PHI, Side.B, one_sided_phi_loops),
            (WitnessKind.CHOI_PSI, Side.A, one_sided_psi_loops),
            (WitnessKind.CHOI_PSI, Side.B, one_sided_psi_loops),
        ]
        for kind, side, oracle in pairs:
            out = witness.apply_witness(Witness(kind, side, 3), rho)
            ref = oracle(m, side.value, 3)
            assert np.abs(out - ref).max() < 1e-13


def kraus_oracle(kind, side, m, da, db):
    other = db if side is Side.A else da
    if kind is WitnessKind.CHOI_PHI:
        return one_sided_phi_loops(m, side.value, other)
    if kind is WitnessKind.CHOI_PSI:
        return one_sided_psi_loops(m, side.value, other)
    # the full transpose is the product of the two partial transposes
    pt_b = pt_b_loops(m, da, db)
    return pt_b if side is Side.B else pt_b.T


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
    other=st.integers(2, 3),
    kind=st.sampled_from(list(WitnessKind)),
    side=st.sampled_from(list(Side)),
)
def test_stacked_apply_witness_matches_kraus_oracle(
    seed, count, other, kind, side
):
    rng = np.random.default_rng(seed)
    da, db = (3, other) if side is Side.A else (other, 3)
    mats = np.stack([random_density_mat(rng, da * db) for _ in range(count)])
    out = witness.apply_witness(
        Witness(kind, side, 3), DensityOperator(da, db, mats)
    )
    assert out.shape == mats.shape
    for m, got in zip(mats, out):
        assert np.abs(got - kraus_oracle(kind, side, m, da, db)).max() < 1e-13


def test_superoperator_columns_are_mapped_units():
    for kind in WitnessKind:
        s = witness.superoperator(kind, 3)
        assert s is witness.superoperator(kind, 3)
        assert not s.flags.writeable
        for k in range(3):
            for l in range(3):
                unit = np.zeros((3, 3))
                unit[k, l] = 1.0
                mapped = witness._MAP_FUNCS[kind](unit)
                assert np.array_equal(s[:, 3 * k + l], mapped.reshape(-1))


def test_apply_witness_preserves_trace():
    rng = np.random.default_rng(36)
    m = random_density_mat(rng, 9)
    rho = DensityOperator(3, 3, m)
    for kind in WitnessKind:
        for side in Side:
            out = witness.apply_witness(Witness(kind, side, 3), rho)
            assert abs(np.trace(out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_family_state_in_window_is_undetected():
    rho = catalog.rho_xt(0.63, 0.05)
    w = Witness(WitnessKind.CHOI_PHI, Side.A, 3)
    report = witness.detect(w, rho, "rho-xt:0.63:0.05")
    assert not report.detected
    assert report.min_eigenvalue == pytest.approx(3.746072556899412e-4, abs=1e-9)


def test_family_state_detected_after_filter():
    rho = catalog.rho_xt(0.63, 0.05)
    filtered, _ = apply_filter(catalog.choi_example_filter(), rho)
    w = Witness(WitnessKind.CHOI_PHI, Side.A, 3)
    report = witness.detect(w, filtered, "filtered")
    assert report.detected
    assert report.min_eigenvalue == pytest.approx(
        -3.1097783531212e-4, abs=1e-9
    )


def test_tile_state_unfiltered_and_filtered():
    rho = catalog.rho_upb()
    w = Witness(WitnessKind.CHOI_PSI, Side.B, 3)
    assert not witness.detect(w, rho).detected
    filtered, _ = apply_filter(catalog.upb_rotation_filter(), rho)
    after = witness.detect(w, filtered)
    assert after.detected
    assert after.min_eigenvalue == pytest.approx(
        -8.806706057633812e-3, abs=1e-10
    )


def test_detection_report_csv():
    # formatting on a fixed report first: exact digits must not depend on
    # which eigensolver produced the value
    fixed = witness.DetectionReport(
        state_label="rho-upb",
        kind=WitnessKind.CHOI_PSI,
        side=Side.B,
        min_eigenvalue=0.00852084562216318,
        detected=False,
    )
    assert fixed.csv_row() == "rho-upb,choi-psi,B,0.00852084562216318,false"
    assert witness.CSV_HEADER == "label,kind,side,min_eigenvalue,detected"
    assert fixed.witness_label == "choi-psi:B"

    rho = catalog.rho_upb()
    w = Witness(WitnessKind.CHOI_PSI, Side.B, 3)
    row = witness.detect(w, rho, "rho-upb").csv_row()
    label, kind, side, value, verdict = row.split(",")
    assert (label, kind, side, verdict) == ("rho-upb", "choi-psi", "B", "false")
    assert float(value) == pytest.approx(8.520845622163181e-3, abs=1e-10)


def test_detect_threshold_is_injectable():
    rho = catalog.rho_upb()
    filtered, _ = apply_filter(catalog.upb_rotation_filter(), rho)
    w = Witness(WitnessKind.CHOI_PSI, Side.B, 3)
    assert witness.detect(w, filtered).detected
    assert not witness.detect(w, filtered, tol_neg=1e-2).detected


# ---------------------------------------------------------------------------
# spec string parsing
# ---------------------------------------------------------------------------


def test_parse_witness_spec():
    kind, side = witness.parse_witness_spec("choi-phi:A")
    assert kind is WitnessKind.CHOI_PHI and side is Side.A
    kind, side = witness.parse_witness_spec("transpose:B")
    assert kind is WitnessKind.TRANSPOSE and side is Side.B


@pytest.mark.parametrize(
    "text", ["choi-phi", "choi-phi:A:B", "bogus:A", "choi-phi:C", ""]
)
def test_parse_witness_spec_rejects(text):
    with pytest.raises(ParseError):
        witness.parse_witness_spec(text)


def test_witness_for_state_resolves_dims():
    w = witness.witness_for_state(
        WitnessKind.TRANSPOSE, Side.A, catalog.bell_state()
    )
    assert w.local_dim == 2
    with pytest.raises(BadParamError):
        witness.witness_for_state(
            WitnessKind.CHOI_PHI, Side.A, catalog.bell_state()
        )
