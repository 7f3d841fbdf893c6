"""Numerical thresholds used across the package.

Single source of truth: every module imports these instead of hard-coding
its own epsilon, so an edit here tightens or loosens the whole pipeline in
one place.  Each module binds the values it imports when it is imported,
so a runtime patch must be made on the module that reads the value (for
example witness.TOL_NEG), not here.
"""

# max absolute deviation from A == A.conj().T accepted on "Hermitian" input
TOL_HERM = 1e-9

# max absolute deviation of a density matrix's trace from 1
TOL_TRACE = 1e-9

# eigenpair residual guarantee, per column: |H v - w v| (spectral norm scale)
TOL_RESID = 1e-8

# reconstruction error for factorizations (SVD, eigendecomposition)
TOL_RECON = 1e-10

# eigenvalues above -TOL_NEG count as non-negative (PPT and witness verdicts)
TOL_NEG = 1e-10

# singular values at or below this count as zero: rank and invertibility
# decisions only.  A filter factor's are measured against its largest
# singular value, since scaling a filter changes only its yield; no trace or
# norm is compared with it
TOL_RANK = 1e-12
