"""Local filtering of bipartite states, Choi-map witnesses, and the
measurement-based realization of diagonal filters.

The headline effect: certain PPT (bound entangled) states are invisible to
the Choi-map witnesses until an invertible local filter L (x) M is applied,
after which the witness output picks up a negative eigenvalue.  The package
provides the states, the witnesses, the filters, the two-ancilla
measurement protocol that implements a filter physically, and a seeded
Monte-Carlo simulator of that protocol.
"""

from .catalog import (
    bell_pure,
    bell_state,
    choi_example_filter,
    gisin_filter,
    max_mixed,
    rho_upb,
    rho_xt,
    tiles_vectors,
    upb_rotation_filter,
)
from .filters import (
    LocalFilter,
    apply_filter,
    compose,
    filtered_pure,
    identity_filter,
    make_filter,
)
from .linalg import SVDResult, eigh, min_eigenvalue, svd
from .measure import build_projector, postselect_diag, protocol_analytic
from .mcsim import ProtocolRun, run_protocol
from .states import (
    DensityOperator,
    PureState,
    is_ppt,
    normalize,
    pure,
    schmidt_rank,
)
from .witness import (
    MAPS,
    DetectionReport,
    Side,
    Witness,
    apply_map,
    apply_witness,
    detect,
)

__version__ = "0.1.0"
