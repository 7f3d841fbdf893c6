"""Seeded Monte-Carlo simulation of the measurement protocol.

Every shot starts from the same shared state, so the only randomness is the
four-outcome acceptance lottery: Alice's doubled-dimension projector, her
ancilla readout, then Bob's pair.  The conditional state after each
projection is the same for every shot, so the simulator walks the protocol
once with measure.protocol_walk, divides its successive cumulative weights
into the four conditional probabilities, and runs the per-shot lottery in a
tight kernel.  Accepted shots all leave the walk's final state; rejected
shots contribute nothing.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParamError, DimensionMismatchError
from .filters import LocalFilter, apply_filter, check_compatible
from .kernels import GENERATOR_NAME, accept_count
from .measure import protocol_walk
from .states import DensityOperator


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
            "generator": GENERATOR_NAME,
        }


def check_run(f: LocalFilter, rho: DensityOperator, shots: int) -> None:
    """Raise unless the simulator can run `shots` copies of f on rho.

    Checked in this order: f is one filter, rho is one state (not stacks),
    their dims match, and shots >= 1.
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


def run_protocol(
    f: LocalFilter, rho: DensityOperator, shots: int, seed: int
) -> ProtocolRun:
    """Simulate `shots` copies and keep those passing all four outcomes.

    Bit-identical for identical arguments, whatever the CPU count: shot i
    consumes the four counter-addressed uniforms 4i..4i+3 of the seeded
    stream and is accepted iff each lies below the corresponding conditional
    branch probability, so the lottery may count ranges of shots on
    separate threads and add the counts.
    Inputs are checked by check_run before any work.
    """
    check_run(f, rho, shots)
    final_state, weights = protocol_walk(f, rho)
    # each outcome's probability conditional on the earlier ones passing
    probs = weights / np.concatenate(([1.0], weights[:-1]))
    accepted = accept_count(seed, probs, shots)
    reference, _ = apply_filter(f, rho)
    return ProtocolRun(
        shots=shots,
        seed=seed,
        accepted=accepted,
        acceptance_rate=accepted / shots,
        branch_probs=tuple(probs.tolist()),
        total_prob=float(weights[-1]),
        estimated_state=final_state.mat if accepted > 0 else None,
        reference=reference,
    )
