"""pivotkit: principal pivot transforms for dense matrices.

The principal pivot transform exchanges a chosen block of coordinates
between the input and output of a linear map.  This package builds the
transform and its factorization, inverts matrices by pivoting over a
partition, reads the transform's characteristic polynomial straight off
principal minors, rescues divergent Jacobi sweeps by pivoting the
iteration matrix, and tests the matrix classes the transform preserves.
"""

from .classify import (ClassCertificate, is_p_matrix, is_semipositive,
                       is_z_matrix, make_s_orthogonal, random_orthogonal,
                       random_p_matrix, signature_plus_set)
from .core import (ENUMERATION_LIMIT, PIVOT_RTOL, as_matrix, as_vector,
                   block_inverse, det_plus_diagonal, lu_determinant,
                   minor_table, principal_minors, principal_submatrix,
                   schur_complement, submatrix)
from .errors import (CapacityError, FeasibilityUndecided, MatrixFormatError,
                     NotOrthogonalError, PartitionError, RootConvergenceError,
                     SingularBlockError, ZeroDiagonalError)
from .flops import count_flops
from .indexing import IndexSet
from .pivot import (BasicFactorization, FlopReport, basic_factorization,
                    combinatorial_residual, counted_singleton_inverse,
                    exchange_vectors, flop_estimate, ppt, ppt_det, ppt_inverse,
                    ppt_single, sequential_inverse)
from .solver import (DIVERGENCE_LIMIT, FixedPointSystem, IterationReport,
                     iterate, jacobi_system, select_alpha, solve,
                     transform_fixed_point)
from .spectra import (SpectrumResult, charpoly_direct, diagonal_certificate,
                      eigenvalues, pencil_eigenvalues, poly_degree, poly_eval,
                      poly_trim, ppt_charpoly, roots, singularity_check,
                      spectral_mismatch)

__version__ = "0.1.0"

__all__ = [
    "IndexSet",
    # construction and factorization
    "ppt", "ppt_single", "exchange_vectors", "BasicFactorization",
    "basic_factorization", "combinatorial_residual", "sequential_inverse",
    "ppt_det", "ppt_inverse",
    # flop accounting
    "FlopReport", "flop_estimate", "counted_singleton_inverse", "count_flops",
    # matrix substrate
    "as_matrix", "as_vector", "submatrix", "principal_submatrix",
    "lu_determinant", "schur_complement", "principal_minors", "minor_table",
    "det_plus_diagonal", "block_inverse", "PIVOT_RTOL", "ENUMERATION_LIMIT",
    # spectra
    "SpectrumResult", "poly_trim", "poly_degree", "poly_eval",
    "charpoly_direct", "ppt_charpoly", "roots", "eigenvalues",
    "pencil_eigenvalues", "diagonal_certificate", "singularity_check",
    "spectral_mismatch",
    # solver
    "FixedPointSystem", "IterationReport", "jacobi_system",
    "transform_fixed_point", "iterate", "select_alpha", "solve",
    "DIVERGENCE_LIMIT",
    # matrix classes
    "ClassCertificate", "is_p_matrix", "is_z_matrix", "is_semipositive",
    "random_p_matrix", "random_orthogonal", "make_s_orthogonal",
    "signature_plus_set",
    # errors
    "SingularBlockError", "ZeroDiagonalError", "NotOrthogonalError",
    "PartitionError", "CapacityError", "MatrixFormatError",
    "RootConvergenceError", "FeasibilityUndecided",
]
