"""End-to-end reproduction gate.

One test per reproduction check, each printing a single pass/fail line so
`pytest -s tests/test_acceptance.py` reads as a report.  Two of the checks
carry wall-clock budgets.  No fixture warms anything up beforehand (there
is nothing to compile), so the budgets are generous enough for a first
call in a fresh session.
"""

import time

from boundfilter import acceptance


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


def test_loose_threshold_breaks_exactly_the_detection_checks():
    # at a witness threshold of 1e-2 the two detection checks must fail
    # (their negative eigenvalues are ~3e-4 and ~9e-3) while everything
    # else is threshold-independent
    results = acceptance.run_all(neg_tol=1e-2)
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
