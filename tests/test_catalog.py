import re

import numpy as np
import pytest

from boundfilter import catalog
from boundfilter.errors import BadParamError, NotPSDError, ParseError
from boundfilter.states import is_ppt, schmidt_rank

from .oracles import pt_b_loops


# ---------------------------------------------------------------------------
# the two-parameter family
# ---------------------------------------------------------------------------


def test_rho_xt_normalization_constant():
    rho = catalog.rho_xt(0.63, 0.05)
    # 4 + 3/t + 4t at t = 1/20 is exactly 64.2
    assert rho.mat[6, 6].real == pytest.approx(1 / 64.2, rel=1e-14)
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)


def test_rho_xt_layout():
    rho = catalog.rho_xt(0.5, 0.2)
    k = 1.0 / (4.0 + 3.0 / 0.2 + 4.0 * 0.2)
    diag = np.array([1.2, 0.2, 5.0, 5.0, 1.2, 0.2, 1.0, 5.0, 1.0]) * k
    assert np.allclose(np.diagonal(rho.mat).real, diag)
    coupled = [(0, 4), (0, 8), (1, 3), (2, 6), (4, 8), (5, 7)]
    for i, j in coupled:
        assert rho.mat[i, j].real == pytest.approx(0.5 * k)
        assert rho.mat[j, i].real == pytest.approx(0.5 * k)
    off = rho.mat - np.diag(np.diagonal(rho.mat))
    assert np.count_nonzero(off) == 2 * len(coupled)


def test_rho_xt_grid_invariants():
    # the family is PPT across its whole domain; the two grid corners with
    # x^2 > 1/t fall outside the positivity domain and must be refused
    for t in (0.05, 0.5, 1.0, 2.0):
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            if x * x > min(1.0, 1.0 / t) + 1e-12:
                with pytest.raises(NotPSDError):
                    catalog.rho_xt(x, t)
                continue
            rho = catalog.rho_xt(x, t)
            assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
            assert is_ppt(rho)


def test_rho_xt_param_guards():
    with pytest.raises(BadParamError):
        catalog.rho_xt(0.5, 0.0)
    with pytest.raises(BadParamError, match=r"^t must be positive, got -1\.0$"):
        catalog.rho_xt(0.5, -1.0)
    with pytest.raises(BadParamError):
        catalog.rho_xt(-0.1, 0.05)
    with pytest.raises(BadParamError):
        catalog.rho_xt(1.1, 0.05)
    with pytest.raises(BadParamError):
        catalog.rho_xt(float("nan"), 0.05)
    for t in ("inf", "nan", "-inf"):
        with pytest.raises(
            BadParamError, match=f"^t must be finite and positive, got {t}$"
        ):
            catalog.rho_xt(0.5, float(t))


def test_require_x_names_the_first_value_of_the_first_broken_rule():
    for x, message in (
        (np.nan, "x must be finite, got nan"),
        (-np.inf, "x must be finite, got -inf"),
        (-0.5, "x must lie in [0, 1], got -0.5"),
        (1.5, "x must lie in [0, 1], got 1.5"),
        # finiteness is checked on every value before the range
        ([1.5, np.inf], "x must be finite, got inf"),
        ([0.0, 2.0, -1.0], "x must lie in [0, 1], got 2.0"),
    ):
        with pytest.raises(BadParamError, match=f"^{re.escape(message)}$"):
            catalog.require_x(x)
        with pytest.raises(BadParamError, match=f"^{re.escape(message)}$"):
            catalog.rho_xt(x, 0.05)
    assert np.array_equal(catalog.require_x([0.0, 1.0]), [0.0, 1.0])
    # the t rule comes first, as in scan
    with pytest.raises(BadParamError, match=r"^t must be positive"):
        catalog.rho_xt(np.nan, -1.0)


def test_rho_xt_stack_matches_points():
    xs = np.linspace(0.0, 1.0, 7)
    for t in (0.05, np.full(7, 0.5)):
        stack = catalog.rho_xt(xs, t)
        assert stack.mat.shape == (7, 9, 9)
        ts = np.broadcast_to(t, xs.shape)
        for k in range(xs.size):
            one = catalog.rho_xt(float(xs[k]), float(ts[k]))
            assert np.array_equal(stack.mat[k], one.mat)


def test_rho_xt_stack_guards_name_first_bad_value():
    with pytest.raises(BadParamError, match=r"got 1\.5$"):
        catalog.rho_xt(np.array([0.2, 1.5, 2.5]), 0.05)
    with pytest.raises(BadParamError, match=r"got -2\.0$"):
        catalog.rho_xt(0.5, np.array([1.0, -2.0, 0.0]))
    with pytest.raises(NotPSDError):
        catalog.rho_xt(np.array([0.5, 0.75]), 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rho_xt_rejects_t_that_overflows_the_normalization():
    # 4 + 3/t + 4t overflows above about 4.5e307 and below about 1.7e-308:
    # t is named before numpy computes anything that could warn
    for t in (1e308, 4.5e307, 1.6e-308, 1e-308, 1e-320, 5e-324):
        message = f"t must keep 4 + 3/t + 4t finite, got {t!r}"
        with pytest.raises(BadParamError, match=f"^{re.escape(message)}$"):
            catalog.rho_xt(0.5, t)
    with pytest.raises(BadParamError, match=r"finite, got 1e-320$"):
        catalog.rho_xt(0.5, np.array([0.05, 1e-320, 1e308]))
    # the earlier rules on t still come first
    with pytest.raises(BadParamError, match=r"^t must be positive, got -1\.0"):
        catalog.rho_xt(0.5, np.array([1e308, -1.0]))
    # values just inside the rule still build a state
    for t in (1e306, 4e307, 4.4e307, 2e-308, 1e-306):
        assert np.isfinite(catalog.rho_xt(0.5, t).mat).all()


def test_rho_xt_positivity_boundary():
    # x^2 <= 1/t is the binding constraint for t > 1
    catalog.rho_xt(0.7, 2.0)
    with pytest.raises(NotPSDError):
        catalog.rho_xt(0.75, 2.0)


# ---------------------------------------------------------------------------
# the tile construction
# ---------------------------------------------------------------------------


def test_tiles_vectors_orthonormal_products():
    vecs = catalog.tiles_vectors()
    assert len(vecs) == 5
    for v in vecs:
        assert schmidt_rank(v) == 1
    gram = np.array(
        [[np.vdot(a.amps, b.amps) for b in vecs] for a in vecs]
    )
    assert np.abs(gram - np.eye(5)).max() < 1e-12


def test_rho_upb_complement_structure():
    rho = catalog.rho_upb()
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
    # rank 4, uniform weight 1/4 on the complement
    eig = np.linalg.eigvalsh(rho.mat)
    assert np.count_nonzero(eig > 1e-10) == 4
    assert np.allclose(eig[-4:], 0.25, atol=1e-12)
    # every tile vector is annihilated
    for v in catalog.tiles_vectors():
        assert np.linalg.norm(rho.mat @ v.amps) < 1e-12


def test_rho_upb_is_ppt():
    rho = catalog.rho_upb()
    assert is_ppt(rho)
    pt = pt_b_loops(rho.mat, 3, 3)
    assert np.linalg.eigvalsh(pt).min() > -1e-12


# ---------------------------------------------------------------------------
# small named states
# ---------------------------------------------------------------------------


def test_bell_state():
    psi = catalog.bell_pure()
    assert schmidt_rank(psi) == 2
    rho = catalog.bell_state()
    assert rho.dims == (2, 2)
    assert not is_ppt(rho)


def test_max_mixed():
    rho = catalog.max_mixed()
    assert np.allclose(rho.mat, np.eye(9) / 9)
    assert is_ppt(rho)
    assert catalog.max_mixed(2, 2).dims == (2, 2)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


def test_choi_example_filter_factors():
    f = catalog.choi_example_filter()
    assert np.allclose(f.l, np.diag([1.0, 0.625, 0.625]))
    assert np.allclose(f.m, np.eye(3))


def test_upb_rotation_filter_is_unitary_on_b():
    f = catalog.upb_rotation_filter()
    assert np.allclose(f.l, np.eye(3))
    assert np.allclose(f.m @ f.m.T.conj(), np.eye(3), atol=1e-14)
    assert f.m[0, 2] == pytest.approx(-catalog.SQ2)
    assert f.m[2, 0] == pytest.approx(catalog.SQ2)


def test_gisin_filter_guards_and_warning():
    with pytest.raises(BadParamError):
        catalog.gisin_filter(0.0)
    with pytest.raises(BadParamError):
        catalog.gisin_filter(1.5)
    with pytest.warns(UserWarning):
        catalog.gisin_filter(1.0)


def test_filter_labels_in_table_order():
    # verify-paper draws its random states filter by filter in this order
    filters = [k for k, e in catalog.LABELS.items() if e[0] == "filter"]
    assert filters == ["choi-example", "upb-rotation", "gisin", "identity"]


# ---------------------------------------------------------------------------
# label resolution
# ---------------------------------------------------------------------------


def _matrices(obj):
    return (obj.mat,) if hasattr(obj, "mat") else (obj.l, obj.m)


def test_catalog_entries_cover_resolvers():
    entries = catalog.catalog_entries()
    assert len(entries) == 8
    assert [e["label"] for e in entries] == list(catalog.LABELS)
    for e in entries:
        built = catalog.from_label(e["kind"], e["label"], dims=(3, 3))
        explicit = ":".join([e["label"], *map(repr, e["params"].values())])
        again = catalog.from_label(e["kind"], explicit, dims=(3, 3))
        for x, y in zip(_matrices(built), _matrices(again), strict=True):
            assert np.array_equal(x, y)


def test_resolve_state_defaults_and_params():
    rho = catalog.from_label("state", "rho-xt")
    assert np.abs(rho.mat - catalog.rho_xt(0.63, 0.05).mat).max() == 0.0
    rho2 = catalog.from_label("state", "rho-xt:0.2:0.1")
    assert np.abs(rho2.mat - catalog.rho_xt(0.2, 0.1).mat).max() == 0.0
    with pytest.raises(ParseError, match="^unknown state 'nope' "):
        catalog.from_label("state", "nope")


def test_resolve_filter_defaults_and_params():
    f = catalog.from_label("filter", "gisin:0.3")
    assert f.l[0, 0] == pytest.approx(0.3)
    assert catalog.from_label("filter", "gisin").l[0, 0] == 0.6
    ident = catalog.from_label("filter", "identity", dims=(2, 3))
    assert ident.dims == (2, 3)
    with pytest.raises(ParseError, match="^unknown filter 'nope' "):
        catalog.from_label("filter", "nope")


def test_label_builders_look_up_their_function_when_called(monkeypatch):
    # a tracer or a test double rebinds catalog functions on the module;
    # the table must reach the rebound object, not a captured original
    calls = []
    real = catalog.rho_upb
    monkeypatch.setattr(catalog, "rho_upb", lambda: calls.append(1) or real())
    catalog.from_label("state", "rho-upb")
    assert calls == [1]


# ---------------------------------------------------------------------------
# one shared, read-only object per argument-free label
# ---------------------------------------------------------------------------

ARGUMENT_FREE = [
    (kind, label)
    for label, (kind, defaults, _) in catalog.LABELS.items()
    if not defaults
]


def test_argument_free_labels_share_one_object():
    assert len(ARGUMENT_FREE) == 6
    for kind, label in ARGUMENT_FREE:
        assert catalog.from_label(kind, label) is catalog.from_label(kind, label)
    # identity is shared per dims
    two = catalog.from_label("filter", "identity", dims=(2, 3))
    assert two is catalog.from_label("filter", "identity", dims=(2, 3))
    assert two is not catalog.from_label("filter", "identity")
    # a parametric label builds afresh, with or without its parameters
    for kind, label in (
        ("filter", "gisin:0.6"), ("filter", "gisin"),
        ("state", "rho-xt:0.6:0.1"), ("state", "rho-xt"),
    ):
        first = catalog.from_label(kind, label)
        assert catalog.from_label(kind, label) is not first


def test_shared_objects_cannot_be_written():
    for kind, label in ARGUMENT_FREE:
        obj = catalog.from_label(kind, label)
        if kind == "state":
            arrays = [obj.mat]
        else:
            arrays = [obj.l, obj.m, obj.prod, obj.exp] + [
                getattr(s, k) for s in (obj.svd_l, obj.svd_m) for k in "udv"
            ]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 7
