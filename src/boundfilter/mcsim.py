"""Seeded Monte-Carlo simulation of the measurement protocol.

Every shot starts from the same shared state, so the only randomness is the
four-outcome acceptance lottery: Alice's doubled-dimension projector, her
ancilla readout, then Bob's pair.  The conditional state after each
projection is the same for every shot, which means the simulator can
compute the branch chain once, derive the four conditional probabilities,
and run the per-shot lottery in a tight kernel.  Accepted shots all leave
the identical final state; rejected shots contribute nothing.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import (
    BadParamError,
    DimensionMismatchError,
    NoAcceptedShotsError,
)
from .filters import LocalFilter, apply_filter, check_compatible
from .kernels import GENERATOR_NAME, accept_count
from .measure import build_projector, embed_with_ancilla, rescaled_diag
from .states import DensityOperator, normalize
from .witness import DetectionReport, Witness, detect

_E00 = np.array([[1.0, 0.0], [0.0, 0.0]])


def _branch_chain(f: LocalFilter, rho: DensityOperator):
    """Walk the protocol once with the projection postulate.

    Returns (final_state_matrix, [p1, p2, p3, p4]) where the probabilities
    are conditional on all earlier outcomes being positive and the final
    state is normalized with both ancillas discarded and the closing
    unitaries applied.
    """
    da, db = rho.dims
    n = da * db
    d1, _ = rescaled_diag(f.svd_l)
    d2, _ = rescaled_diag(f.svd_m)
    state = linalg.sandwich(linalg.kron(f.svd_l.v, f.svd_m.v), rho.mat)

    # Alice: ancilla in front of her side, so the joint order anc, A, B is
    # a plain Kronecker embedding
    p_a = linalg.kron(build_projector(d1).mat, np.eye(db))
    ext = linalg.sandwich(p_a, embed_with_ancilla(state))
    p1 = float(np.trace(ext).real)
    ext /= p1
    # ancilla readout |0>: keep the top-left n x n block
    p2 = float(np.trace(ext[:n, :n]).real)
    state = ext[:n, :n] / p2

    # Bob: his ancilla sits between A and B, composite order A, anc, B
    r4 = state.reshape(da, db, da, db)
    ext = np.einsum("ab,ikjl->iakjbl", _E00.astype(complex), r4).reshape(
        2 * n, 2 * n
    )
    p_b = linalg.kron(np.eye(da), build_projector(d2).mat)
    ext = linalg.sandwich(p_b, ext)
    p3 = float(np.trace(ext).real)
    ext /= p3
    blocks = ext.reshape(da, 2, db, da, 2, db)
    kept = blocks[:, 0, :, :, 0, :].reshape(n, n)
    p4 = float(np.trace(kept).real)
    state = kept / p4

    state = linalg.sandwich(linalg.kron(f.svd_l.u, f.svd_m.u), state)
    state /= np.trace(state).real
    return state, [p1, p2, p3, p4]


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Everything a finished simulation knows about itself."""

    shots: int
    seed: int
    accepted: int
    acceptance_rate: float
    branch_probs: tuple
    total_prob: float
    estimated_state: Optional[np.ndarray]
    reference: DensityOperator
    generator: str = GENERATOR_NAME

    def frobenius_to_reference(self) -> float:
        if self.estimated_state is None:
            return math.nan
        return float(
            np.linalg.norm(self.estimated_state - self.reference.mat)
        )

    def to_json_dict(self) -> dict:
        fro = self.frobenius_to_reference()
        return {
            "shots": self.shots,
            "seed": self.seed,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
            "frobenius_to_reference": None if math.isnan(fro) else fro,
            "generator": self.generator,
        }


def run_protocol(
    f: LocalFilter, rho: DensityOperator, shots: int, seed: int
) -> ProtocolRun:
    """Simulate `shots` copies and keep those passing all four outcomes.

    Bit-identical for identical arguments: shot i consumes the four
    counter-addressed uniforms 4i..4i+3 of the seeded stream and is accepted
    iff each lies below the corresponding conditional branch probability.
    The simulator takes one filter and one state, not stacks.
    """
    if f.l.ndim != 2:
        raise DimensionMismatchError(
            f"the simulator takes one filter, got a stack of {f.l.shape[0]}"
        )
    if rho.mat.ndim != 2:
        raise DimensionMismatchError(
            f"the simulator takes one state, got a stack of "
            f"{rho.mat.shape[0]}"
        )
    check_compatible(f, rho)
    if shots < 1:
        raise BadParamError(f"shots must be >= 1, got {shots}")
    final_state, probs = _branch_chain(f, rho)
    accepted = accept_count(seed, probs, shots)
    reference, _ = apply_filter(f, rho)
    return ProtocolRun(
        shots=shots,
        seed=seed,
        accepted=accepted,
        acceptance_rate=accepted / shots,
        branch_probs=tuple(probs),
        total_prob=float(np.prod(probs)),
        estimated_state=final_state if accepted > 0 else None,
        reference=reference,
    )


def witness_after_protocol(
    f: LocalFilter,
    rho: DensityOperator,
    w: Witness,
    shots: int,
    seed: int,
    state_label: str = "protocol-output",
) -> DetectionReport:
    """Run the simulation, then test the estimated state with a witness."""
    run = run_protocol(f, rho, shots, seed)
    if run.estimated_state is None:
        raise NoAcceptedShotsError(
            f"no accepted shots out of {shots} (total prob "
            f"{run.total_prob:.3e}); nothing to hand to the witness"
        )
    est, _ = normalize(run.estimated_state, rho.dim_a, rho.dim_b)
    return detect(w, est, state_label=state_label)
