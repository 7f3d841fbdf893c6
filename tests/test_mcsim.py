import json

import numpy as np
import pytest

from boundfilter import catalog, mcsim
from boundfilter.errors import BadParamError, DimensionMismatchError
from boundfilter.filters import apply_filter, identity_filter, make_filter
from boundfilter.kernels import accept_count

from .oracles import random_density_mat, uniform_block
from boundfilter.states import DensityOperator, pure


# ---------------------------------------------------------------------------
# the once-computed branch chain
# ---------------------------------------------------------------------------


def test_branch_probs_multiply_to_yield_over_scale():
    rho = catalog.rho_xt(0.63, 0.05)
    for f in (catalog.choi_example_filter(), catalog.upb_rotation_filter()):
        _, weight = apply_filter(f, rho)
        run = mcsim.run_protocol(f, rho, shots=1, seed=7)
        scale = (f.svd_l.sigma_max * f.svd_m.sigma_max) ** 2
        assert run.total_prob == pytest.approx(weight / scale, rel=1e-10)
        assert run.total_prob == pytest.approx(
            float(np.prod(run.branch_probs)), rel=1e-14
        )
        for p in run.branch_probs:
            assert 0.0 < p <= 1.0 + 1e-12


def test_branch_state_equals_filtered_state():
    # every accepted branch collapses to exactly the filtered state
    rng = np.random.default_rng(70)
    rho = DensityOperator(3, 3, random_density_mat(rng, 9))
    f = make_filter(
        rng.normal(size=(3, 3)) + 2 * np.eye(3),
        rng.normal(size=(3, 3)) + 2 * np.eye(3),
    )
    run = mcsim.run_protocol(f, rho, shots=50, seed=3)
    assert run.estimated_state is not None
    assert np.abs(run.estimated_state - run.reference.mat).max() < 1e-10
    assert run.frobenius_to_reference() < 1e-10


def test_identity_filter_always_accepts():
    rho = catalog.max_mixed()
    run = mcsim.run_protocol(identity_filter(3, 3), rho, shots=500, seed=11)
    assert run.accepted == 500
    assert run.acceptance_rate == 1.0
    assert run.total_prob == pytest.approx(1.0, abs=1e-12)
    assert run.frobenius_to_reference() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the lottery
# ---------------------------------------------------------------------------


def test_acceptance_is_deterministic_per_seed():
    rho = catalog.rho_xt(0.63, 0.05)
    f = catalog.choi_example_filter()
    a = mcsim.run_protocol(f, rho, shots=2000, seed=123)
    b = mcsim.run_protocol(f, rho, shots=2000, seed=123)
    c = mcsim.run_protocol(f, rho, shots=2000, seed=124)
    assert a.accepted == b.accepted
    assert a.accepted != c.accepted  # different stream, overwhelmingly likely


def test_accepted_matches_manual_uniforms():
    rho = catalog.rho_xt(0.63, 0.05)
    f = catalog.choi_example_filter()
    shots, seed = 1000, 42
    run = mcsim.run_protocol(f, rho, shots=shots, seed=seed)
    u = uniform_block(seed, 0, shots)
    mask = np.all(u < np.asarray(run.branch_probs), axis=1)
    assert run.accepted == int(mask.sum())


def test_acceptance_rate_tracks_total_prob():
    rho = catalog.rho_xt(0.63, 0.05)
    f = catalog.choi_example_filter()
    shots = 20000
    run = mcsim.run_protocol(f, rho, shots=shots, seed=2024)
    se = np.sqrt(run.total_prob * (1 - run.total_prob) / shots)
    assert abs(run.acceptance_rate - run.total_prob) < 5 * se


def test_shot_partition_is_seamless():
    # splitting the same stream into two runs cannot change the verdicts
    rho = catalog.rho_xt(0.63, 0.05)
    f = catalog.choi_example_filter()
    whole = mcsim.run_protocol(f, rho, shots=3000, seed=9)
    u = uniform_block(9, 0, 3000)
    probs = np.asarray(whole.branch_probs)
    first = np.all(u[:1100] < probs, axis=1).sum()
    second = np.all(u[1100:] < probs, axis=1).sum()
    assert whole.accepted == int(first + second)


# ---------------------------------------------------------------------------
# run bookkeeping
# ---------------------------------------------------------------------------


def test_run_validations():
    rho = catalog.rho_xt(0.63, 0.05)
    with pytest.raises(BadParamError):
        mcsim.run_protocol(catalog.choi_example_filter(), rho, shots=0, seed=1)
    with pytest.raises(DimensionMismatchError):
        mcsim.run_protocol(catalog.gisin_filter(0.5), rho, shots=10, seed=1)


def test_run_rejects_stacks():
    one = catalog.choi_example_filter()
    pair = make_filter(np.stack([one.l, one.l]), np.stack([one.m, one.m]))
    rho = catalog.rho_xt(0.63, 0.05)
    with pytest.raises(DimensionMismatchError, match="one filter.*stack of 2"):
        mcsim.run_protocol(pair, rho, shots=10, seed=1)
    rhos = catalog.rho_xt(np.array([0.6, 0.63, 0.66]), 0.05)
    with pytest.raises(DimensionMismatchError, match="one state.*stack of 3"):
        mcsim.run_protocol(one, rhos, shots=10, seed=1)


def test_run_json_payload():
    rho = catalog.rho_xt(0.63, 0.05)
    run = mcsim.run_protocol(
        catalog.choi_example_filter(), rho, shots=100, seed=5
    )
    obj = run.to_json_dict()
    assert obj["shots"] == 100
    assert obj["seed"] == 5
    assert obj["generator"] == "splitmix64"
    assert obj["accepted"] == run.accepted
    assert obj["acceptance_rate"] == run.acceptance_rate
    json.dumps(obj)  # payload must be serializable as-is


def never_accepting_setup():
    # |00><00| through diag(5e-3, 1) on both sides: every branch probability
    # is 5e-3, so a shot is accepted only if all four uniforms fall below
    # that -- per-shot probability 6.25e-10
    rho = pure([1.0, 0.0, 0.0, 0.0], 2, 2).projector()
    f = make_filter(np.diag([5e-3, 1.0]), np.diag([5e-3, 1.0]))
    return f, rho


def test_zero_accepted_payload_is_serializable():
    f, rho = never_accepting_setup()
    run = mcsim.run_protocol(f, rho, shots=3, seed=8)
    assert run.accepted == 0
    assert run.estimated_state is None
    assert np.isnan(run.frobenius_to_reference())
    obj = run.to_json_dict()
    assert obj["frobenius_to_reference"] is None
    json.dumps(obj)


def test_kernel_paths_agree(kernel_path):
    # fixture sets the lottery block; the count is pinned by an independent
    # pure-python recount of the counter-addressed stream, so either walk
    # of the shots must land on it bit for bit
    rho = catalog.rho_xt(0.63, 0.05)
    f = catalog.choi_example_filter()
    run = mcsim.run_protocol(f, rho, shots=5000, seed=31337)
    assert run.accepted == 3028


def test_counts_at_two_million_shots():
    # 61 full blocks and a partial one, as in a 2*10^6-shot simulate
    for state, filt, accepted in [
        ("rho-xt:0.63:0.05", "choi-example", 1182434),
        ("bell", "gisin:0.6", 720479),
        ("bell", "gisin:0.3", 179876),
    ]:
        run = mcsim.run_protocol(
            catalog.from_label("filter", filt),
            catalog.from_label("state", state),
            shots=2_000_000,
            seed=2024,
        )
        assert run.accepted == accepted
    for probs, accepted in [
        ([0.55, 0.6, 0.65, 0.7], 300491),
        ([0.2, 0.9, 0.9, 0.9], 291350),
        ([0.9, 0.9, 0.9, 0.3], 437163),
        ([0.3] * 4, 16163),
    ]:
        assert accept_count(2024, probs, 2_000_000) == accepted
