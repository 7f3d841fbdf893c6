import numpy as np
import pytest

from boundfilter import catalog, filters, linalg, measure
from boundfilter.errors import (
    BadParamError,
    DimensionMismatchError,
    NonSquareError,
    ParseError,
    SingularFilterError,
)
from boundfilter.states import DensityOperator, is_ppt, pure, schmidt_rank
from boundfilter.witness import (
    TRANSPOSE_B,
    apply_witness,
    detect,
    parse_witness_spec,
)

from .oracles import random_density_mat, random_unitary


def random_invertible(rng, n, floor=1e-2):
    while True:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.svd(m, compute_uv=False)[-1] > floor:
            return m


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_filter_carries_svd():
    f = catalog.choi_example_filter()
    assert np.allclose(f.svd_l.reconstruct(), f.l)
    assert np.allclose(f.svd_m.reconstruct(), f.m)
    assert f.dims == (3, 3)
    assert np.allclose(f.product(), np.kron(f.l, f.m))


def test_make_filter_rejects_singular_factor():
    with pytest.raises(SingularFilterError):
        filters.make_filter(np.diag([1.0, 0.0, 1.0]), np.eye(3))
    with pytest.raises(SingularFilterError):
        filters.make_filter(np.eye(2), np.zeros((2, 2)))


def test_make_filter_rejects_exactly_rank_two_factors():
    # third row = first + second in small integers, so the factor is exactly
    # singular; a singular value resolved only to ~1e-8 (the Gram-matrix
    # route to the SVD) let about half of these through as invertible
    rng = np.random.default_rng(2024)
    accepted = 0
    for _ in range(200):
        r = rng.integers(-4, 5, size=(2, 3)) + 1j * rng.integers(
            -4, 5, size=(2, 3)
        )
        factor = np.vstack([r, r[0] + r[1]])
        try:
            filters.make_filter(factor, np.eye(3))
            accepted += 1
        except SingularFilterError:
            pass
    assert accepted == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_filter_rejects_non_finite(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(BadParamError, match="factor M"):
        filters.make_filter(np.eye(3), m)
    with pytest.raises(BadParamError, match="factor L"):
        filters.make_filter(m, np.eye(3))


def test_make_filter_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        filters.make_filter(np.ones((2, 3)), np.eye(3))


def test_factors_are_readonly():
    f = catalog.gisin_filter(0.6)
    with pytest.raises(ValueError):
        f.l[0, 0] = 7.0


def test_identity_filter_is_neutral():
    rng = np.random.default_rng(40)
    rho = DensityOperator(2, 3, random_density_mat(rng, 6))
    out, weight = filters.apply_filter(filters.identity_filter(2, 3), rho)
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out.mat - rho.mat).max() < 1e-12


def test_apply_filter_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        filters.apply_filter(catalog.choi_example_filter(), catalog.bell_state())


# ---------------------------------------------------------------------------
# the worked examples
# ---------------------------------------------------------------------------


def test_family_state_yield():
    rho = catalog.rho_xt(0.63, 0.05)
    _, weight = filters.apply_filter(catalog.choi_example_filter(), rho)
    # numerator 37.9359375 against normalization 64.2, both exact decimals
    assert weight == pytest.approx(37.9359375 / 64.2, rel=1e-12)


def test_tile_state_filtered_becomes_detectable():
    rho = catalog.rho_upb()
    assert is_ppt(rho)
    filtered, weight = filters.apply_filter(catalog.upb_rotation_filter(), rho)
    assert is_ppt(filtered)  # the filter cannot break the transpose test
    assert 0 < weight <= 1 + 1e-12


def test_gisin_filter_on_bell_probability():
    bell = catalog.bell_state()
    out, weight = filters.apply_filter(catalog.gisin_filter(0.6), bell)
    # kappa^2 = 0.36: both factors pass the same Schmidt component
    assert weight == pytest.approx(0.36, rel=1e-12)
    # the balanced state is a fixed point of the balanced filter pair
    assert np.abs(out.mat - bell.mat).max() < 1e-12


def test_filtered_pure_matches_density_route():
    rng = np.random.default_rng(42)
    f = catalog.gisin_filter(0.7)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = pure(amps, 2, 2, normalize_input=True)
    ket = filters.filtered_pure(f, psi)
    via_density, _ = filters.apply_filter(f, psi.projector())
    assert np.abs(ket.projector().mat - via_density.mat).max() < 1e-10


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------


def test_schmidt_rank_invariance_small_loop():
    rng = np.random.default_rng(43)
    for _ in range(20):
        rank = int(rng.integers(1, 4))
        cols = [
            rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(rank)
        ]
        amps = np.zeros(9, dtype=np.complex128)
        for c in cols:
            d = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps += np.kron(c, d)
        psi = pure(amps, 3, 3, normalize_input=True)
        f = filters.make_filter(
            random_invertible(rng, 3), random_invertible(rng, 3)
        )
        assert schmidt_rank(filters.filtered_pure(f, psi)) == schmidt_rank(psi)


def test_ppt_status_invariance_loop():
    rng = np.random.default_rng(44)
    bell = catalog.bell_state()
    for _ in range(100):
        f = filters.make_filter(
            random_invertible(rng, 2), random_invertible(rng, 2)
        )
        out, _ = filters.apply_filter(f, bell)
        assert not is_ppt(out)  # filters never wash out a transpose violation


def test_partial_transpose_conjugation_identity():
    # (1 x T)[(L x M) rho (L x M)^dag] = (L x conj(M)) (1 x T)[rho] (..)^dag
    rng = np.random.default_rng(45)
    for _ in range(20):
        rho = DensityOperator(3, 3, random_density_mat(rng, 9))
        f = filters.make_filter(
            random_invertible(rng, 3), random_invertible(rng, 3)
        )
        out, weight = filters.apply_filter(f, rho)
        lhs = apply_witness(TRANSPOSE_B, out) * weight
        rhs = linalg.sandwich(
            np.kron(f.l, f.m.conj()), apply_witness(TRANSPOSE_B, rho)
        )
        assert np.abs(lhs - rhs).max() < 1e-10


def test_unitary_filter_preserves_spectrum():
    rng = np.random.default_rng(46)
    rho = DensityOperator(3, 3, random_density_mat(rng, 9))
    f = filters.make_filter(random_unitary(rng, 3), random_unitary(rng, 3))
    out, weight = filters.apply_filter(f, rho)
    assert weight == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(
        linalg.eigvalsh(out.mat), linalg.eigvalsh(rho.mat), atol=1e-9
    )


# ---------------------------------------------------------------------------
# JSON exchange
# ---------------------------------------------------------------------------


def test_filter_json_round_trip():
    f = catalog.upb_rotation_filter()
    obj = filters.filter_to_json_dict(f)
    back = filters.filter_from_json_dict(obj)
    assert np.abs(back.l - f.l).max() == 0.0
    assert np.abs(back.m - f.m).max() == 0.0


def test_filter_json_requires_both_factors():
    with pytest.raises(ParseError):
        filters.filter_from_json_dict({"L": [[[1.0, 0.0]]]})


def test_filter_json_rejects_nonsquare():
    with pytest.raises(ParseError):
        filters.filter_from_json_dict(
            {"L": [[[1.0, 0.0], [0.0, 0.0]]], "M": [[[1.0, 0.0]]]}
        )


def test_filter_json_rejects_non_finite():
    obj = filters.filter_to_json_dict(catalog.choi_example_filter())
    obj["M"][0][2][1] = float("inf")
    with pytest.raises(ParseError, match="filter M row 0 col 2"):
        filters.filter_from_json_dict(obj)


def test_apply_filter_on_a_stack():
    f = catalog.choi_example_filter()
    xs = np.array([0.3, 0.63, 0.9])
    filtered, yields = filters.apply_filter(f, catalog.rho_xt(xs, 0.05))
    assert filtered.mat.shape == (3, 9, 9) and yields.shape == (3,)
    for k, x in enumerate(xs):
        one, y = filters.apply_filter(f, catalog.rho_xt(float(x), 0.05))
        assert np.array_equal(filtered.mat[k], one.mat) and yields[k] == y


def test_filter_json_rejects_singular():
    obj = {
        "L": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "M": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    }
    with pytest.raises(SingularFilterError):
        filters.filter_from_json_dict(obj)


# ---------------------------------------------------------------------------
# filter stacks: bit for bit what the filters give one at a time
# ---------------------------------------------------------------------------


def test_make_filter_stack_matches_one_at_a_time():
    rng = np.random.default_rng(70)
    ls = np.stack([random_invertible(rng, 3) for _ in range(6)])
    ms = np.stack([random_invertible(rng, 3) for _ in range(6)])
    f = filters.make_filter(ls, ms)
    assert f.dims == (3, 3) and f.product().shape == (6, 9, 9)
    assert not f.product().flags.writeable
    rho = DensityOperator(
        3, 3, np.stack([random_density_mat(rng, 9) for _ in range(6)])
    )
    filtered, yields = filters.apply_filter(f, rho)
    for k in range(6):
        one = filters.make_filter(ls[k], ms[k])
        for stacked, single in ((f.svd_l, one.svd_l), (f.svd_m, one.svd_m)):
            for field in ("u", "d", "v"):
                assert np.array_equal(
                    getattr(stacked, field)[k], getattr(single, field)
                )
        assert np.array_equal(f.product()[k], one.product())
        out, y = filters.apply_filter(one, DensityOperator(3, 3, rho.mat[k]))
        assert np.array_equal(filtered.mat[k], out.mat) and yields[k] == y


def test_filter_stack_acts_on_one_state():
    rng = np.random.default_rng(71)
    f = filters.make_filter(
        np.stack([random_invertible(rng, 3) for _ in range(3)]),
        np.stack([np.eye(3)] * 3),
    )
    rho = catalog.rho_xt(0.63, 0.05)
    filtered, yields = filters.apply_filter(f, rho)
    for k in range(3):
        one = filters.make_filter(f.l[k], f.m[k])
        out, y = filters.apply_filter(one, rho)
        assert np.array_equal(filtered.mat[k], out.mat) and yields[k] == y


def test_filtered_pure_stack_matches_one_at_a_time():
    rng = np.random.default_rng(72)
    amps = rng.normal(size=(8, 9)) + 1j * rng.normal(size=(8, 9))
    # ranks 1, 2 and 3 among the kets
    amps[0] = np.kron(amps[0, :3], amps[0, 3:6])
    amps[1] = np.kron(amps[1, :3], [1, 0, 0]) + np.kron(amps[1, 3:6], [0, 1, 0])
    psi = pure(amps, 3, 3, normalize_input=True)
    f = filters.make_filter(
        np.stack([random_invertible(rng, 3) for _ in range(8)]),
        np.stack([random_invertible(rng, 3) for _ in range(8)]),
    )
    ranks = schmidt_rank(psi)
    out = filters.filtered_pure(f, psi)
    after = schmidt_rank(out)
    assert ranks.dtype.kind == "i" and list(ranks[:3]) == [1, 2, 3]
    assert np.array_equal(after, ranks)
    for k in range(8):
        one = pure(amps[k], 3, 3, normalize_input=True)
        assert np.array_equal(psi.amps[k], one.amps)
        assert schmidt_rank(one) == ranks[k]
        ket = filters.filtered_pure(filters.make_filter(f.l[k], f.m[k]), one)
        assert np.array_equal(out.amps[k], ket.amps)
        assert schmidt_rank(ket) == after[k]


def test_make_filter_stack_names_first_offending_factor():
    rng = np.random.default_rng(73)
    ls = np.stack([random_invertible(rng, 3) for _ in range(5)])
    ms = np.stack([random_invertible(rng, 3) for _ in range(5)])
    ms[2] = np.diag([1.0, 0.0, 1.0])
    ms[4] = np.zeros((3, 3))
    with pytest.raises(SingularFilterError) as err:
        filters.make_filter(ls, ms)
    assert str(err.value) == (
        "filter factor M[2] is singular (smallest singular value 0.000e+00)"
    )
    ls[3, 1, 1] = np.nan
    with pytest.raises(BadParamError, match=r"^filter factor L\[3\] has NaN"):
        filters.make_filter(ls, ms)
    with pytest.raises(DimensionMismatchError):
        filters.make_filter(ls, ms[:4])


def test_make_filter_bounds_the_norm_of_the_product():
    # sigma_max(L) sigma_max(M) may reach sqrt(float max), not exceed it
    limit = filters.NORM_LIMIT
    filters.make_filter(limit * np.eye(2), np.eye(2))
    filters.make_filter(1e100 * np.eye(2), 1e54 * np.eye(2))
    with pytest.raises(BadParamError, match=r"^filter factors L and M are"):
        filters.make_filter(1e100 * np.eye(2), 1e55 * np.eye(2))
    ls = np.stack([np.eye(2), 1e200 * np.eye(2), 1e300 * np.eye(2)])
    with pytest.raises(BadParamError) as err:
        filters.make_filter(ls, np.stack([np.eye(2)] * 3))
    assert str(err.value) == (
        "filter factors L[1] and M[1] are too large: sigma_max(L) * "
        "sigma_max(M) = 1e+200 exceeds 1.3407807929942596e+154"
    )


# ---------------------------------------------------------------------------
# scale: c L x M is the same filter for every c > 0, with c^2 the yield
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [2.0**-60, 2.0**-20, 2.0**20])
def test_scaling_a_filter_by_a_power_of_two_changes_only_its_yield(c):
    rng = np.random.default_rng(74)
    rho = catalog.rho_xt(0.63, 0.05)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi = pure(amps, 3, 3, normalize_input=True)
    drawn = [random_invertible(rng, 3) for _ in range(2)]
    for base in (catalog.choi_example_filter(), filters.make_filter(*drawn)):
        scaled = filters.make_filter(c * base.l, base.m)
        out, y = filters.apply_filter(base, rho)
        out_c, y_c = filters.apply_filter(scaled, rho)
        assert np.array_equal(out_c.mat, out.mat) and y_c == c * c * y
        assert np.array_equal(
            filters.filtered_pure(scaled, psi).amps,
            filters.filtered_pure(base, psi).amps,
        )
        walk, prob = measure.protocol_analytic(base, rho)
        walk_c, prob_c = measure.protocol_analytic(scaled, rho)
        assert np.array_equal(walk_c.mat, walk.mat) and prob_c == prob
        # each member of a stack mixing the two scales comes out alone
        mixed = filters.make_filter(
            np.stack([base.l, scaled.l]), np.stack([base.m, base.m])
        )
        outs, ys = filters.apply_filter(mixed, rho)
        kets = filters.filtered_pure(mixed, psi)
        for k, one in enumerate((base, scaled)):
            alone, y_one = filters.apply_filter(one, rho)
            assert np.array_equal(outs.mat[k], alone.mat) and ys[k] == y_one
            ket = filters.filtered_pure(one, psi)
            assert np.array_equal(kets.amps[k], ket.amps)


def test_a_tiny_filter_moves_the_state_by_rounding_alone():
    # 1e-13 is no power of two: choi-example scaled by it differs only by
    # the rounding of its factor's entries
    w = parse_witness_spec("choi-phi:A")
    base = catalog.choi_example_filter()
    rho = catalog.rho_xt(0.63, 0.05)
    out, _ = filters.apply_filter(base, rho)
    tiny = filters.make_filter(1e-13 * base.l, base.m)
    out_c, _ = filters.apply_filter(tiny, rho)
    dev = np.abs(out_c.mat - out.mat).max() / np.abs(out.mat).max()
    assert dev <= 1e-15
    floor = detect(w, out).min_eigenvalue
    assert abs(detect(w, out_c).min_eigenvalue - floor) <= 1e-15


def test_make_filter_rule_is_relative_to_the_largest_singular_value():
    # sigma_min 1e-11 sits far above TOL_RANK, but at 1e-17 of sigma_max
    with pytest.raises(SingularFilterError) as err:
        filters.make_filter(np.diag([1e6, 1.0, 1e-11]), np.eye(3))
    assert str(err.value) == (
        "filter factor L is singular (smallest singular value 1.000e-11)"
    )
    # cond 1e11 passes at any scale
    for c in (1e-200, 1.0, 1e100):
        filters.make_filter(c * np.diag([1.0, 1e-11]), np.eye(2))
    # this factor's sigma_max overflows to inf, which would make any
    # sigma_min pass as relatively singular: the norm rule comes first
    big = np.array([[1.7e308, 1.7e308], [1.7e308, -1e300]])
    with pytest.raises(BadParamError, match=r"^filter factors L and M are"):
        filters.make_filter(big, np.eye(2))


def test_filter_stack_length_must_match_state_stack():
    f = filters.make_filter(np.stack([np.eye(3)] * 2), np.stack([np.eye(3)] * 2))
    rho = catalog.rho_xt(np.array([0.1, 0.2, 0.3]), 0.05)
    with pytest.raises(DimensionMismatchError, match="stack of 2 filters"):
        filters.apply_filter(f, rho)
    with pytest.raises(DimensionMismatchError, match="stack of 2 filters"):
        measure.protocol_analytic(f, rho)
    psi = pure(np.eye(9)[:3], 3, 3)
    with pytest.raises(DimensionMismatchError, match="stack of 3 states"):
        filters.filtered_pure(f, psi)
