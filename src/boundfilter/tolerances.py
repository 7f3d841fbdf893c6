"""Numerical thresholds used across the package.

Single source of truth: every module imports these instead of hard-coding
its own epsilon, so the whole pipeline can be tightened or loosened in one
place.
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

# singular values at or below this count as zero (rank decisions); a filter
# factor's are measured against its largest singular value, since scaling a
# filter changes only its yield
TOL_RANK = 1e-12
