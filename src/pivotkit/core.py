"""Dense-matrix substrate: submatrices, LU determinants, Schur complements,
principal-minor enumeration, blockwise inversion and the pivot kernel.

Matrices are plain ``float64`` numpy arrays.  Every public function
validates its input and returns fresh arrays; index arguments follow the
1-based convention of :class:`~pivotkit.indexing.IndexSet`.

Singularity convention: a block is declared singular when some LU pivot
magnitude falls below ``PIVOT_RTOL * max(1, largest absolute entry of the
block)``.  The determinant of a 0x0 matrix is 1.
"""
from __future__ import annotations

import itertools
import warnings

import numpy as np
from scipy import linalg as sla
from scipy.linalg.blas import dtrsm

from .errors import CapacityError, SingularBlockError
from .indexing import IndexSet

#: Scaled pivot threshold used by every singularity test in the package.
PIVOT_RTOL = 1e-12

#: Guard for the 2**n subset enumerations (minor tables, class tests).
ENUMERATION_LIMIT = 20

_CHUNK = 50_000

# 0.5**512 > 1e-155: a product of this many frexp mantissas stays normal
_MANTISSA_CHUNK = 512

# OpenBLAS threads its triangular solves only from about this block order
# on; below it _lu_solve bypasses getrs
_TRSM_ORDER = 32


# ---------------------------------------------------------------------------
# validation

def as_matrix(a) -> np.ndarray:
    """Validate and copy ``a`` as a square float64 matrix."""
    arr = np.array(a, dtype=float, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_vector(b, n: int | None = None) -> np.ndarray:
    """Validate and copy ``b`` as a float64 vector, optionally of length n."""
    vec = np.array(b, dtype=float, copy=True).reshape(-1)
    if n is not None and vec.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {vec.shape[0]}")
    if vec.size and not np.isfinite(vec).all():
        raise ValueError("vector entries must be finite")
    return vec


def _check_enumeration(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise CapacityError(
            f"order {n} exceeds the subset-enumeration guard "
            f"(n <= {ENUMERATION_LIMIT}); 2**n minor tables would not fit")


# ---------------------------------------------------------------------------
# LU plumbing (scipy getrf behind the package-wide pivot convention)

def _lu_factor(m: np.ndarray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sla.lu_factor(m, check_finite=False)


def _lu_checked(block: np.ndarray, indices: IndexSet, what: str = "principal block"):
    """Factor a nonempty block, raising SingularBlockError on a tiny pivot."""
    lu, piv = _lu_factor(block)
    scale = max(1.0, float(np.abs(block).max()))
    if float(np.abs(np.diag(lu)).min()) < PIVOT_RTOL * scale:
        raise SingularBlockError(indices, what)
    return lu, piv


def _lu_solve(lup, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """``sla.lu_solve(lup, b, trans=trans)``, bit for bit.

    OpenBLAS's getrs hands every solve with two or more right-hand sides
    to its worker threads, whatever the size, and on a busy machine each
    hand-off can wait milliseconds for a worker to be scheduled.  For a
    block of order below ``_TRSM_ORDER`` the same row swaps and the same
    two level-3 triangular solves are done here instead, which OpenBLAS
    keeps on the calling thread at that size.
    """
    lu, piv = lup
    if b.ndim == 1 or b.shape[1] < 2 or lu.shape[0] >= _TRSM_ORDER:
        return sla.lu_solve(lup, b, trans=trans, check_finite=False)
    perm = np.arange(len(piv))
    for i, j in enumerate(piv):
        perm[i], perm[j] = perm[j], perm[i]
    if trans == 0:
        x = dtrsm(1.0, lu, np.asfortranarray(b[perm]), lower=1, diag=1, overwrite_b=1)
        return dtrsm(1.0, lu, x, overwrite_b=1)
    x = dtrsm(1.0, lu, b, trans_a=1)
    x = dtrsm(1.0, lu, x, lower=1, trans_a=1, diag=1, overwrite_b=1)
    out = np.empty_like(x)
    out[perm] = x
    return out


def _det_from_lu(lu, piv) -> float:
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    sign = -1.0 if swaps % 2 else 1.0
    return sign * float(np.prod(np.diag(lu)))


def _scaled_det_from_lu(lu, piv) -> tuple[float, int]:
    """det as (mantissa, exponent), det = mantissa * 2**exponent.

    The LU pivots are split by frexp into mantissas in [0.5, 1) and
    exponents, and the mantissas are multiplied in chunks short enough
    not to underflow, so no intermediate overflows or underflows.
    """
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    mantissas, exponents = np.frexp(np.diag(lu))
    mantissa, exponent = (-1.0 if swaps % 2 else 1.0), int(exponents.sum())
    for start in range(0, len(mantissas), _MANTISSA_CHUNK):
        mantissa, shift = np.frexp(
            mantissa * np.prod(mantissas[start:start + _MANTISSA_CHUNK]))
        exponent += int(shift)
    return float(mantissa), exponent


def _det_any(m: np.ndarray):
    """Determinant via LU for real or complex square arrays; empty -> 1."""
    if m.shape[0] == 0:
        return 1.0
    lu, piv = _lu_factor(m)
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    det = np.prod(np.diag(lu))
    return -det if swaps % 2 else det


# ---------------------------------------------------------------------------
# the pivot kernel: every block operation factors A[alpha] here, once

def _pivot_block(a, alpha, what: str = "principal block"):
    """Validate ``a``, coerce ``alpha`` and factor A[alpha] once.

    Returns ``(a, al, lup)``: the validated copy of ``a``, the coerced
    index set and the LU factors of A[alpha] (None when alpha is empty).
    Raises SingularBlockError labelled ``what`` and naming alpha when
    A[alpha] fails the pivot test.
    """
    a = as_matrix(a)
    al = IndexSet.coerce(alpha, a.shape[0])
    lup = None
    if al:
        p = al.zero_based
        lup = _lu_checked(a[np.ix_(p, p)], al, what)
    return a, al, lup


def _ppt(a, alpha, what: str = "principal block") -> np.ndarray:
    """The principal pivot transform; ``what`` labels a failing A[alpha]."""
    a, al, lup = _pivot_block(a, alpha, what)
    if not al:
        return a
    p = al.zero_based
    if len(p) == a.shape[0]:
        return _lu_solve(lup, np.eye(len(p)))
    q = al.complement().zero_based
    apq = a[np.ix_(p, q)]
    aqp = a[np.ix_(q, p)]
    aqq = a[np.ix_(q, q)]
    bpp = _lu_solve(lup, np.eye(len(p)))
    bpq = -_lu_solve(lup, apq)
    bqp = _lu_solve(lup, aqp.T, trans=1).T
    bqq = aqq + aqp @ bpq
    out = np.empty_like(a)
    out[np.ix_(p, p)] = bpp
    out[np.ix_(p, q)] = bpq
    out[np.ix_(q, p)] = bqp
    out[np.ix_(q, q)] = bqq
    return out


# ---------------------------------------------------------------------------
# public operations

def submatrix(a, rows, cols) -> np.ndarray:
    """A[rows, cols] for 1-based index sets; empty selections give 0-sized arrays."""
    a = as_matrix(a)
    n = a.shape[0]
    r = IndexSet.coerce(rows, n)
    c = IndexSet.coerce(cols, n)
    return a[np.ix_(r.zero_based, c.zero_based)].copy()


def principal_submatrix(a, alpha) -> np.ndarray:
    """A[alpha] = A[alpha, alpha]."""
    return submatrix(a, alpha, alpha)


def lu_determinant(a) -> float:
    """Determinant via LU with partial pivoting; det of the 0x0 matrix is 1."""
    a = as_matrix(a)
    if a.shape[0] == 0:
        return 1.0
    lu, piv = _lu_factor(a)
    return _det_from_lu(lu, piv)


def schur_complement(a, alpha) -> np.ndarray:
    """A/A[alpha] = A(alpha) - A(alpha,alpha] A[alpha]^-1 A[alpha,alpha).

    The empty pivot set returns a copy of A; the full set returns a 0x0
    array.  Raises SingularBlockError when A[alpha] fails the pivot test.
    """
    a, al, lup = _pivot_block(a, alpha)
    if not al:
        return a
    p = al.zero_based
    q = al.complement().zero_based
    if len(q) == 0:
        return np.zeros((0, 0))
    apq = a[np.ix_(p, q)]
    aqp = a[np.ix_(q, p)]
    aqq = a[np.ix_(q, q)]
    return aqq - aqp @ _lu_solve(lup, apq)


def _batched_dets(a: np.ndarray, combos: np.ndarray) -> np.ndarray:
    # gather an (m, k, k) stack of principal submatrices, one det call
    rows = combos[:, :, None]
    cols = combos[:, None, :]
    return np.linalg.det(a[rows, cols])


def principal_minors(a, max_order: int | None = None) -> dict[tuple[int, ...], float]:
    """All principal minors det A[beta] with |beta| <= max_order.

    Keys are ascending 1-based index tuples; the empty tuple maps to 1.
    Minors of each order are evaluated as one batched determinant call.
    """
    a = as_matrix(a)
    n = a.shape[0]
    _check_enumeration(n)
    if max_order is None:
        kmax = n
    else:
        kmax = int(max_order)
        if kmax < 0:
            raise ValueError("max_order must be nonnegative")
        kmax = min(kmax, n)
    out: dict[tuple[int, ...], float] = {(): 1.0}
    for k in range(1, kmax + 1):
        it = itertools.combinations(range(n), k)
        while chunk := list(itertools.islice(it, _CHUNK)):
            dets = _batched_dets(a, np.array(chunk, dtype=np.intp))
            for combo, det in zip(chunk, dets):
                out[tuple(i + 1 for i in combo)] = float(det)
    return out


def minor_table(a) -> np.ndarray:
    """Principal minors indexed by subset bitmask (bit i-1 <-> index i).

    ``minor_table(a)[s.bitmask()] == det A[s]``; entry 0 is the empty
    minor 1.  Length is 2**n.
    """
    a = as_matrix(a)
    n = a.shape[0]
    _check_enumeration(n)
    table = np.empty(1 << n)
    table[0] = 1.0
    weights = 1 << np.arange(n, dtype=np.int64)
    for k in range(1, n + 1):
        it = itertools.combinations(range(n), k)
        while chunk := list(itertools.islice(it, _CHUNK)):
            combos = np.array(chunk, dtype=np.intp)
            table[weights[combos].sum(axis=1)] = _batched_dets(a, combos)
    return table


def det_plus_diagonal(a, d):
    """det(A + diag(d)) via the principal-minor expansion.

    Equals ``sum over subsets beta of (prod_{i not in beta} d_i) * det A[beta]``.
    ``d`` may be real or complex; the return type follows ``d``.
    """
    a = as_matrix(a)
    n = a.shape[0]
    _check_enumeration(n)
    dv = np.asarray(d)
    if dv.shape != (n,):
        raise ValueError(f"expected a diagonal vector of length {n}, "
                         f"got shape {dv.shape}")
    if not np.isfinite(dv).all():
        raise ValueError("diagonal entries must be finite")
    table = minor_table(a)
    shifts = np.arange(n)
    total = 0.0 + 0.0j if np.iscomplexobj(dv) else 0.0
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        masks = np.arange(start, stop, dtype=np.int64)
        excluded = ((masks[:, None] >> shifts) & 1) == 0
        prods = np.where(excluded, dv, 1).prod(axis=1)
        total = total + prods @ table[start:stop]
    return complex(total) if np.iscomplexobj(dv) else float(total)


def block_inverse(a, alpha) -> np.ndarray:
    """A^-1 by inversion by parts around the split alpha / complement.

    Pivots compose by symmetric difference, and the pivot on every index
    is the inverse::

        ppt(ppt(A, alpha), alpha^c) = ppt(A, {1, ..., n}) = A^-1

    The second pivot block is the alpha^c block of ppt(A, alpha), the
    Schur complement A/A[alpha].  Requires A[alpha] and A/A[alpha] to
    pass the pivot test; the raised SingularBlockError names the failing
    block.  A(alpha) may be singular.
    """
    b = _ppt(a, alpha)
    comp = IndexSet.coerce(alpha, b.shape[0]).complement()
    return _ppt(b, comp, "Schur complement of the principal block")
