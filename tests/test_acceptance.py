"""End-to-end reproduction gate.

One test per reproduction check, each printing a single pass/fail line so
`pytest -s tests/test_acceptance.py` reads as a report.  Two of the checks
carry wall-clock budgets.  No fixture warms anything up beforehand (there
is nothing to compile), so the budgets are generous enough for a first
call in a fresh session.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from boundfilter import acceptance, catalog, linalg, witness
from boundfilter.filters import apply_filter

from . import oracles


def _gate(result, budget=None, elapsed=None):
    line = f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.observed}"
    print(line)
    assert result.passed, (
        f"{result.name}: expected {result.expected}; observed {result.observed}"
    )
    if budget is not None:
        assert elapsed < budget, (
            f"{result.name} took {elapsed:.2f}s, budget {budget}s"
        )


def test_choi_window_detection():
    start = time.perf_counter()
    result = acceptance.check_choi_window()
    elapsed = time.perf_counter() - start
    _gate(result, budget=5.0, elapsed=elapsed)


def _cubic_root(c):
    """The root in (1/2, 7/10) of the integer cubic with coefficients c
    (highest power first), bracketed to 2^-64 by exact bisection."""
    def p(x):
        return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]

    lo, hi = Fraction(1, 2), Fraction(7, 10)
    assert p(lo) < 0 < p(hi)
    for _ in range(64):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if p(mid) < 0 else (lo, mid)
    return lo


def test_choi_window_edges_are_the_roots_of_two_cubics():
    # at t = 1/20 the choi-phi:A image of rho_xt is singular at the upper
    # edge, and its image after choi-example at the lower edge, where these
    # integer factors of the determinants vanish
    lo = _cubic_root((6400000, 11739600, 0, -5702109))
    hi = _cubic_root((8000, 16800, 0, -9471))
    assert abs(lo - Fraction("0.60442849583057445")) < Fraction(1, 10**17)
    assert abs(hi - Fraction("0.65547305095615981")) < Fraction(1, 10**17)
    for root, printed in (
        (lo, acceptance.WINDOW_LO), (hi, acceptance.WINDOW_HI)
    ):
        assert Fraction(int(root * 10**4), 10**4) == Fraction(str(printed))

    # the minima change sign across each root +- 1e-6 (not at adjacent
    # floats, where eigh reads ~1e-17 and another LAPACK could flip it)
    w = witness.Witness(witness.MAPS["choi-phi"], witness.Side.A)

    def minima(x, filtered):
        rho = catalog.rho_xt(np.array([x - 1e-6, x + 1e-6]), 0.05)
        if filtered:
            rho, _ = apply_filter(catalog.choi_example_filter(), rho)
        return linalg.min_eigenvalue(witness.apply_witness(w, rho))

    below, above = minima(float(hi), False)
    assert below > 0 > above
    below, above = minima(float(lo), True)
    assert below > 0 > above


def test_upb_state_filtered_detection():
    _gate(acceptance.check_upb())


def test_schmidt_rank_invariance():
    _gate(acceptance.check_schmidt_invariance())


def test_ppt_invariance_under_filtering():
    _gate(acceptance.check_ppt_invariance())


def test_measurement_equivalence():
    _gate(acceptance.check_measurement_equivalence())


def test_projector_algebra():
    _gate(acceptance.check_projector_algebra())


def test_monte_carlo_statistics():
    start = time.perf_counter()
    result = acceptance.check_monte_carlo()
    elapsed = time.perf_counter() - start
    _gate(result, budget=30.0, elapsed=elapsed)


def test_positive_map_not_completely_positive():
    _gate(acceptance.check_positive_not_cp())


# ---------------------------------------------------------------------------
# suite-level properties
# ---------------------------------------------------------------------------


def test_loose_threshold_breaks_exactly_the_detection_checks(monkeypatch):
    # at a witness threshold of 1e-2 the two detection checks must fail
    # (their negative eigenvalues are ~3e-4 and ~9e-3) while everything
    # else is threshold-independent
    monkeypatch.setattr(witness, "TOL_NEG", 1e-2)
    monkeypatch.setattr(acceptance, "TOL_NEG", 1e-2)
    results = acceptance.run_all()
    failed = {r.name for r in results if not r.passed}
    assert failed == {"choi-window", "upb-filter"}


def test_suite_is_deterministic():
    first = acceptance.run_all()
    second = acceptance.run_all()
    assert first == second
    assert [r.name for r in first] == [
        "choi-window",
        "upb-filter",
        "schmidt-invariance",
        "ppt-invariance",
        "measurement-equivalence",
        "projector-algebra",
        "monte-carlo",
        "positive-not-cp",
    ]


# ---------------------------------------------------------------------------
# batched draws
# ---------------------------------------------------------------------------


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.asarray(g).shape == w.shape
        assert np.array_equal(g, w)


def _screened_cases():
    """The cases of the Schmidt check's two dims groups and of the PPT
    check, each drawn from a fresh generator of its check's seed; the last
    two entries of each are the filter factors L and M."""
    return [
        acceptance._schmidt_cases(np.random.default_rng(20240811), d, d, 100)
        for d in (2, 3)
    ] + [acceptance._ppt_cases(np.random.default_rng(20240812), 3, 3, 100)]


def _smin(g):
    return np.linalg.svd(g, compute_uv=False)[:, -1]


@pytest.mark.parametrize("floor", [None, 0.3])
def test_batched_draws_keep_the_stream(monkeypatch, floor):
    if floor is not None:
        # a floor of 0.3 fails about one factor in ten: the screen redraws
        # exactly those, after the batch, and nothing else moves
        shipped = _screened_cases()
        monkeypatch.setattr(acceptance, "INVERTIBLE_FLOOR", floor)
        redrawn = 0
        for got, want in zip(_screened_cases(), shipped):
            _same(got[:-2], want[:-2])
            for g, w in zip(got[-2:], want[-2:]):
                assert (_smin(g) > floor).all()
                kept = _smin(w) > floor
                assert np.array_equal(g[kept], w[kept])
                redrawn += int(np.count_nonzero(~kept))
        assert redrawn > 0
        assert acceptance.check_schmidt_invariance().passed
        assert acceptance.check_ppt_invariance().passed
        return

    # at the shipped floor every randomized check draws the cases and
    # leaves the generator in the state that one-draw-at-a-time loops give
    floor = acceptance.INVERTIBLE_FLOOR
    rng = np.random.default_rng(20240811)
    ref = np.random.default_rng(20240811)
    for d in (2, 3):
        _same(
            acceptance._schmidt_cases(rng, d, d, 100),
            oracles.schmidt_draws_loop(ref, d, d, 100, floor),
        )
    assert rng.bit_generator.state == ref.bit_generator.state

    rng = np.random.default_rng(20240812)
    ref = np.random.default_rng(20240812)
    _same(
        acceptance._ppt_cases(rng, 3, 3, 100),
        oracles.ppt_draws_loop(ref, 3, 3, 100, floor),
    )
    assert rng.bit_generator.state == ref.bit_generator.state

    # measurement-equivalence draws 20 states per catalog filter
    rng = np.random.default_rng(20240813)
    ref = np.random.default_rng(20240813)
    dims = [
        catalog.from_label("filter", label).dims
        for label, entry in catalog.LABELS.items()
        if entry[0] == "filter"
    ]
    for da, db in dims:
        rho = acceptance._random_densities(rng, da, db, 20)
        g = np.array([oracles.gaussian_loop(ref, da * db) for _ in range(20)])
        p = g @ g.conj().transpose(0, 2, 1)
        want = oracles.divide_parts(
            p, np.trace(p, axis1=1, axis2=2).real[:, None, None]
        )
        assert np.array_equal(rho.mat, want)
    assert rng.bit_generator.state == ref.bit_generator.state

    rng = np.random.default_rng(20240815)
    ref = np.random.default_rng(20240815)
    _same(
        acceptance._gaussian(rng, 3, 200),
        np.array([oracles.gaussian_loop(ref, 3) for _ in range(200)]),
    )
    assert rng.bit_generator.state == ref.bit_generator.state


def test_checks_read_the_same_rows_from_per_draw_cases(monkeypatch):
    batched = [
        acceptance.check_schmidt_invariance(),
        acceptance.check_ppt_invariance(),
    ]
    floor = acceptance.INVERTIBLE_FLOOR
    monkeypatch.setattr(
        acceptance,
        "_schmidt_cases",
        lambda rng, da, db, count: oracles.schmidt_draws_loop(
            rng, da, db, count, floor
        ),
    )
    monkeypatch.setattr(
        acceptance,
        "_ppt_cases",
        lambda rng, da, db, count: oracles.ppt_draws_loop(
            rng, da, db, count, floor
        ),
    )
    assert [
        acceptance.check_schmidt_invariance(),
        acceptance.check_ppt_invariance(),
    ] == batched


def test_measure_checks_read_the_same_rows_from_per_case_loops(monkeypatch):
    batched = [
        acceptance.check_measurement_equivalence(),
        acceptance.check_projector_algebra(),
    ]
    monkeypatch.setattr(acceptance, "_worst_block", oracles.worst_block_loop)
    monkeypatch.setattr(
        acceptance,
        "_worst_projector_deviation",
        oracles.projector_deviation_loop,
    )
    assert [
        acceptance.check_measurement_equivalence(),
        acceptance.check_projector_algebra(),
    ] == batched

    # the 50 postselection cases are the loop's draws, in its order, and
    # leave the generator where the loop leaves it
    rng = np.random.default_rng(20240813)
    cases = acceptance._postselection_cases(rng, 50)
    ref = np.random.default_rng(20240813)
    for d, g in cases:
        n = int(ref.integers(2, 5))
        assert np.array_equal(d, ref.uniform(0.05, 1.0, size=n))
        assert np.array_equal(g, oracles.gaussian_loop(ref, n))
    ref = np.random.default_rng(20240813)
    oracles.worst_block_loop(ref, 50)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert sorted({len(d) for d, _ in cases}) == [2, 3, 4]
