"""Dense-matrix substrate: submatrices, LU determinants, Schur complements,
principal-minor enumeration, blockwise inversion and the pivot kernel.

Matrices are plain ``float64`` numpy arrays.  Every public function
validates its input and returns fresh arrays; index arguments follow the
1-based convention of :class:`~pivotkit.indexing.IndexSet`.

The pivot test is the package's only singularity rule: a block is
singular when an LU pivot falls below :func:`_pivot_tolerance` of its
largest entry (:func:`_lu_checked`).  Determinants are carried as
mantissa and exponent (:func:`_scaled_det_from_lu`); det of 0x0 is 1.

Every pivot is a run of in-place stages (:func:`_pivot_stage`) on one
validated copy, checked once for overflow at the end (:func:`_finite`); a
stage on one index is a rank-one step, any larger one the block kernel.

LAPACK and BLAS are scipy's compiled ``_flapack`` and ``_fblas``, which
:mod:`pivotkit._lapack` loads without running ``scipy.linalg``'s
``__init__``: every factorization is ``dgetrf``, every solve ``dgetrs``
or ``dtrsm``, every block update ``dgemm`` and every rank-one step ``dger``.

All 2**n principal minors come from one Schur-complement sweep
(:func:`minor_table`): a pivot too small to divide through is lifted to
a power of two and the sets through it are corrected after the sweep.
O(2**n) time for every input; at n = 20 a traced peak of 23-30 MB.
Every 2**n answer is a whole-array read of that table, the exhaustive
pivot-set ranking's too, and nothing in this 2**n layer calls BLAS: its
work runs on the calling thread.
"""
from __future__ import annotations

import numpy as np

from ._lapack import fblas, flapack
from .errors import CapacityError, SingularBlockError
from .indexing import IndexSet

dgemm, dger, dtrsm = fblas.dgemm, fblas.dger, fblas.dtrsm
dgetrf, dgetrs = flapack.dgetrf, flapack.dgetrs

#: Scaled pivot threshold used by every singularity test in the package.
PIVOT_RTOL = 1e-12

#: Guard for the 2**n subset enumerations (minor tables, class tests).
ENUMERATION_LIMIT = 20

# 0.5**512 > 1e-155: a product of this many frexp mantissas stays normal
_MANTISSA_CHUNK = 512

# the minor-table sweep lifts a Schur pivot below this fraction of its
# row's norm, and the pivot-set search refuses such a step (_refused);
# 1e-1 and 1e-3 gave worse spectra from minors
_GROWTH_RTOL = 1e-2

# _lu_solve calls getrs from this block order on, where _lu_factor builds no
# row order: its gather and dtrsm made dense calls at n = 100-800 0-12 % slower
_TRSM_ORDER = 32


# ---------------------------------------------------------------------------
# validation

def as_matrix(a) -> np.ndarray:
    """Validate and copy ``a`` as a C-ordered square float64 matrix."""
    if np.asarray(a).dtype.kind == "c":
        raise ValueError("matrix entries must be real")
    arr = np.array(a, dtype=float, copy=True, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_vector(b, n: int | None = None) -> np.ndarray:
    """Validate and copy ``b`` as a float64 vector, optionally of length n."""
    if np.asarray(b).dtype.kind == "c":
        raise ValueError("vector entries must be real")
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
# LU plumbing (LAPACK dgetrf/dgetrs behind the package-wide pivot
# convention); a factorization is one record that every solve and
# determinant reads, and only this section knows its format

def _lu_factor(m: np.ndarray):
    """The record ``(lu, piv, perm)`` of ``m`` by dgetrf: ``piv`` zero-based,
    ``perm`` its row order (:func:`_lu_perm`) below ``_TRSM_ORDER``, else
    None.  Factors with an exactly zero pivot (info > 0) are returned
    without a warning: the pivot test decides singularity."""
    lu, piv, info = dgetrf(m, overwrite_a=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgetrf")
    return lu, piv, (_lu_perm(piv) if len(piv) < _TRSM_ORDER else None)


def _lu_checked(block: np.ndarray, indices: IndexSet,
                what: str = "principal block", detail: str = ""):
    """Factor a nonempty block, raising SingularBlockError (labelled
    ``what`` and ``detail``) on a tiny pivot."""
    tol = _pivot_tolerance(float(np.abs(block).max()))
    lup = _lu_factor(block)
    if float(np.abs(np.diag(lup[0])).min()) < tol:
        raise SingularBlockError(indices, what, detail)
    return lup


def _pivot_tolerance(peak: float) -> float:
    """Least pivot accepted in a block of largest magnitude ``peak``; a
    non-finite peak (an overflow that an inf pivot would hide) raises."""
    if not np.isfinite(peak):
        raise ValueError("pivot block entries are not finite; "
                         "an earlier pivot overflowed")
    return PIVOT_RTOL * max(1.0, peak)


def _lu_perm(piv: np.ndarray) -> np.ndarray:
    """The row order that getrf's interchanges ``piv`` apply, as an index array."""
    perm = list(range(len(piv)))
    for i, j in enumerate(piv.tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.intp)


def _lu_solve(lup, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with op(A) x = b from ``lup = _lu_factor(A)``: dgetrs's result,
    bit for bit, with op(A) = A or A^T as ``trans`` is 0 or 1.

    OpenBLAS's getrs hands every solve with two or more right-hand sides
    to its worker threads, whatever the size, and on a busy machine each
    hand-off can wait milliseconds for a worker to be scheduled.  Where
    the record carries a row order (orders below ``_TRSM_ORDER``), the
    same row swaps, a numpy gather by it, and the same two level-3
    triangular solves are done here instead, which OpenBLAS keeps on the
    calling thread at that size.  scipy's ``dlaswp`` wakes the worker
    threads on every call too (over 50,000 calls on an 8x8 block, other
    threads used about as much CPU as the calls' wall time).  Building
    the order once per factorization, not per solve, saves 4-7 % of a
    block ``ppt`` at n = 4-12, 2 <= |alpha| <= n - 2.
    """
    lu, piv, perm = lup
    if b.ndim == 1 or b.shape[1] < 2 or perm is None:
        x, info = dgetrs(lu, piv, b, trans=trans)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrs")
        return x
    if trans == 0:
        x = dtrsm(1.0, lu, np.asfortranarray(b[perm]), lower=1, diag=1, overwrite_b=1)
        return dtrsm(1.0, lu, x, overwrite_b=1)
    x = dtrsm(1.0, lu, b, trans_a=1)
    x = dtrsm(1.0, lu, x, lower=1, trans_a=1, diag=1, overwrite_b=1)
    out = np.empty_like(x)
    out[perm] = x
    return out


def _scaled_det_from_lu(lup) -> tuple[float, int]:
    """det A as (mantissa, exponent) from ``lup = _lu_factor(A)``: det = mantissa * 2**exponent.

    The LU pivots are split by frexp into mantissas in [0.5, 1) and
    exponents, and the mantissas are multiplied in chunks short enough
    not to underflow, so no intermediate overflows or underflows; ldexp
    of the pair is the plain signed product wherever that is normal.
    """
    lu, piv, _ = lup
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    mantissas, exponents = np.frexp(np.diag(lu))
    mantissa, exponent = (-1.0 if swaps % 2 else 1.0), int(exponents.sum())
    for start in range(0, len(mantissas), _MANTISSA_CHUNK):
        mantissa, shift = np.frexp(
            mantissa * np.prod(mantissas[start:start + _MANTISSA_CHUNK]))
        exponent += int(shift)
    return float(mantissa), exponent


# ---------------------------------------------------------------------------
# the pivot kernels: every block operation factors A[alpha] here, once

def _pivot_block(a, alpha):
    """Validate ``a``, coerce ``alpha`` and factor A[alpha] once.

    Returns ``(a, al, lup)``: the validated copy of ``a``, the coerced
    index set and the LU factors of A[alpha] (None when alpha is empty).
    Raises SingularBlockError naming alpha when A[alpha] fails the pivot
    test.
    """
    a = as_matrix(a)
    al = IndexSet.coerce(alpha, a.shape[0])
    lup = None
    if al:
        p = al.zero_based
        lup = _lu_checked(a[p[:, None], p], al)
    return a, al, lup


def _pivot_stage(m: np.ndarray, al: IndexSet, what: str = "principal block",
                 detail: str = "") -> None:
    """Overwrite ``m`` with ppt(m, al); an empty ``al`` does nothing.

    One index is the rank-one step :func:`_pivot_single`; a larger set is
    factored and tested by :func:`_lu_checked`, then :func:`_pivot_in_place`.
    ``what`` and ``detail`` label the SingularBlockError of either.
    """
    if len(al) == 1:
        _pivot_single(m, al.indices[0] - 1, what, detail)
    elif al:
        p = al.zero_based
        _pivot_in_place(m, p, _lu_checked(m[p[:, None], p], al, what, detail))


def _pivot_in_place(m: np.ndarray, p: np.ndarray, lup) -> None:
    """Overwrite the C-ordered matrix ``m`` with ppt(m, p).

    ``p`` holds the zero-based pivot indices and ``lup`` the LU factors
    of m[p, p]; q is the complement.  With col = m[:, p] and
    row = m[p, p]^-1 m[p, :], the whole matrix takes one rank-|p| update
    m - col @ row, after which the pivot rows become -row, the pivot
    columns col @ m[p, p]^-1 and the pivot block m[p, p]^-1.  The update
    on the pivot rows and columns is thrown away, so the solves are made
    for the q columns of row and the q rows of col only.

    Cost: 2 n**2 |p| flops for the update plus 4 |p|**2 (n - |p|) for
    the solves and O(|p|**3) for the block; no n-by-n temporary.

    Every BLAS call here is scipy's: the update is its ``dgemm`` on the
    Fortran-ordered view ``m.T``, the solves its getrs or trsm.  numpy
    and scipy each load their own OpenBLAS, and a call that switches
    from one to the other waits for the first one's spinning worker
    threads.  Blocks of 48 at n = 800 (default threads, 2 cores): 190-210
    ms with the update as a numpy matmul, 51-62 ms with scipy's ``dgemm``.
    """
    if not m.flags.c_contiguous:
        # dgemm would update a Fortran copy of m.T and drop it
        raise ValueError("an in-place pivot needs a C-contiguous matrix")
    n, k = m.shape[0], len(p)
    if k == n:
        m[...] = _lu_solve(lup, np.eye(k))
        return
    keep = np.ones(n, dtype=bool)
    keep[p] = False
    q = np.flatnonzero(keep)
    col = m[:, p]
    row = m[p, :]
    row[:, q] = _lu_solve(lup, row[:, q])
    dgemm(-1.0, row.T, col.T, beta=1.0, c=m.T, overwrite_c=1)
    m[p, :] = -row
    m[q[:, None], p] = _lu_solve(lup, col[q].T, trans=1).T
    m[p[:, None], p] = _lu_solve(lup, np.eye(k))


def _pivot_single(m: np.ndarray, k: int, what: str, detail: str) -> None:
    """Overwrite the C-ordered ``m`` with ppt(m, {k + 1}) by one rank-one update.

    After the 1x1 pivot test (SingularBlockError labelled ``what`` and
    ``detail``), with col = m[:, k] and row = -m[k, :] / m[k, k]:
    m += col row^T by scipy's ``dger`` on ``m.T``, then the pivot row,
    column and entry become row, col / m[k, k] and 1 / m[k, k].  An
    ``np.outer`` update would allocate an n-by-n temporary: 1.4-2.0 ms a
    stage at n = 800 on 2 x86 cores, against 0.14-0.27 ms by ``dger``.
    An overflow stays inf or nan, unwarned, for :func:`_finite`.
    """
    if not m.flags.c_contiguous:  # dger would update a copy of m.T and drop it
        raise ValueError("an in-place pivot needs a C-contiguous matrix")
    piv = m[k, k]
    if abs(piv) < _pivot_tolerance(abs(piv)):
        raise SingularBlockError(IndexSet((k + 1,), m.shape[0]), what, detail)
    with np.errstate(over="ignore", invalid="ignore"):
        col = m[:, k].copy()
        row = -m[k, :] / piv
        dger(1.0, row, col, a=m.T, overwrite_a=1)
        m[k, :] = row
        m[:, k] = col / piv
        m[k, k] = 1.0 / piv


def _finite(m: np.ndarray) -> np.ndarray:
    """``m`` once a run of in-place pivots is checked to have left no inf or nan."""
    if not np.isfinite(m).all():
        raise ValueError("the pivot overflowed to non-finite entries")
    return m


# ---------------------------------------------------------------------------
# public operations

def submatrix(a, rows, cols) -> np.ndarray:
    """A[rows, cols] for 1-based index sets; empty selections give 0-sized arrays."""
    a = as_matrix(a)
    n = a.shape[0]
    r = IndexSet.coerce(rows, n)
    c = IndexSet.coerce(cols, n)
    return a[r.zero_based[:, None], c.zero_based]


def principal_submatrix(a, alpha) -> np.ndarray:
    """A[alpha] = A[alpha, alpha]."""
    return submatrix(a, alpha, alpha)


def lu_determinant(a) -> float:
    """Determinant via LU with partial pivoting, as ldexp of
    :func:`_scaled_det_from_lu`: inf or 0 only when det itself is out of
    range.  det of the 0x0 matrix is 1."""
    a = as_matrix(a)
    if not a.size:
        return 1.0
    return float(np.ldexp(*_scaled_det_from_lu(_lu_factor(a))))


def schur_complement(a, alpha) -> np.ndarray:
    """A/A[alpha] = A(alpha) - A(alpha,alpha] A[alpha]^-1 A[alpha,alpha).

    The empty pivot set returns a copy of A; the full set returns a 0x0
    array.  Raises SingularBlockError when A[alpha] fails the pivot test.
    A C-ordered gather of A(alpha) takes the update in place, by scipy's
    ``dgemm`` on its transpose as in :func:`_pivot_in_place`.
    """
    a, al, lup = _pivot_block(a, alpha)
    if not al:
        return a
    p = al.zero_based
    q = al.complement().zero_based
    if len(q) == 0:
        return np.zeros((0, 0))
    out = a[q[:, None], q]
    dgemm(-1.0, _lu_solve(lup, a[p[:, None], q]), a[q[:, None], p].T,
          beta=1.0, c=out.T, trans_a=1, overwrite_c=1)
    return out


def principal_minors(a, max_order: int | None = None) -> dict[tuple[int, ...], float]:
    """All principal minors det A[beta] with |beta| <= max_order.

    Keys are ascending 1-based index tuples, in subset-bitmask order;
    the empty tuple maps to 1.  The values are the entries of
    :func:`minor_table`, which is computed whole: ``max_order`` only
    filters the output and saves no time.
    """
    a = as_matrix(a)
    n = a.shape[0]
    _check_enumeration(n)
    kmax = n if max_order is None else int(max_order)
    if kmax < 0 or max_order is not None and kmax != max_order:
        raise ValueError("max_order must be a nonnegative integer")
    table = _minor_table(a).tolist()
    # (key, bitmask) pairs in bitmask order, grown one index at a time
    sets: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for k in range(n):
        sets += [(key + (k + 1,), mask | 1 << k)
                 for key, mask in sets if len(key) < kmax]
    return {key: table[mask] for key, mask in sets}


def minor_table(a) -> np.ndarray:
    """Principal minors indexed by subset bitmask (bit i-1 <-> index i).

    ``minor_table(a)[s.bitmask()] == det A[s]``; entry 0 is the empty
    minor 1.  Length is 2**n.  Every 2**n question in the package reads
    this table: ``principal_minors``, ``det_plus_diagonal``,
    ``ppt_charpoly``, ``is_p_matrix`` and exhaustive ``select_alpha``.

    One Schur-complement sweep: before step k a stack holds A/A[S] on
    the indices from k on for each S within the first k indices, in
    bitmask order; det A[S + {k}] = det A[S] * (A/A[S])_kk gives the next
    2**k entries, and the stack gains its rank-one update on index k.

    A pivot p is not divided through as it stands when it fails the
    package pivot test (threshold tiny) or lies below 1e-2 of the norm of
    its row of A/A[S]: dividing through it would swell the update and
    the rounding error of every set below it (a 1e-11 pivot costs about
    1e-6).  It is lifted to s = +-2**ceil(log2(max(1e-2 ||row||, tiny)))
    with p's sign, and after the sweep, last level first, the sets it
    touched get det A[g] = det(A + (s - p) E_kk)[g] - (s - p) * det A[g - {k}]
    (MAT2PM's pseudo-pivots, Griffin & Tsatsomeros, LAA 419, 2006).  A
    power of two scales without rounding, so a set whose minor is 0
    because it holds an all-zero row or column of A comes out exactly 0.
    The 1x1 minors are A's diagonal itself.

    The sweep takes O(2**n) time whatever the pivots.  At n = 20, with one
    BLAS thread on a 2-core x86 machine (the sweep itself makes no BLAS
    call), it takes 26-30 ms with a traced peak of 23 MB on uniform
    random matrices, 28-31 ms and 25 MB with a 1e-11 first pivot, and
    38-41 ms and 29.5 MB with a zero diagonal.  Measured
    against exact rational minors at n <= 8 over the families in the
    test suite, errors stay below 1e-12 of Hadamard's bound
    prod_{i in S} ||row i|| (worst seen 1.6e-14, a zero diagonal), and
    against LU minors at n = 10-16 below 1e-14; this is a measurement,
    not a proven bound.
    """
    a = as_matrix(a)
    _check_enumeration(a.shape[0])
    return _minor_table(a)


def _minor_table(a: np.ndarray) -> np.ndarray:
    # stack[i, j, S] = (A/A[S])[k + i, k + j]: the sets on the last axis,
    # so every level is a few whole-array ops on contiguous rows of sets
    n = a.shape[0]
    tiny = _pivot_tolerance(float(np.abs(a).max(initial=0.0)))
    table = np.ones(1)
    stack = a[:, :, None]
    fixes = []
    for k in range(n):
        pivots = stack[0, 0]
        rows = stack[0]
        bad = np.flatnonzero(_refused(pivots, rows, tiny))
        if bad.size:
            lift = np.maximum(_GROWTH_RTOL * np.sqrt(np.sum(rows.T[bad] ** 2, 1)), tiny)
            lift = np.copysign(np.exp2(np.ceil(np.log2(lift))), pivots[bad])
            fixes.append((k, bad, lift - pivots[bad]))
            pivots = pivots.copy()
            pivots[bad] = lift
        table = np.concatenate((table, table * pivots))
        if k < n - 1:
            stack = _next_level(stack, pivots)
    for k, bad, delta in reversed(fixes):
        # sets[h, b, S]: S, with k if b, with the indices above k that h encodes
        sets = table.reshape(-1, 2, 1 << k)
        sets[:, 1, bad] -= delta * sets[:, 0, bad]
    # the 1x1 minors exactly, not a lift less its correction
    table[1 << np.arange(n)] = np.diag(a)
    return table


def _refused(pivots: np.ndarray, rows: np.ndarray, tiny: float) -> np.ndarray:
    """Where a sweep of rank-one steps does not divide through its pivot:
    the pivot fails the pivot test (lies below ``tiny``) or lies below 1e-2
    of the norm of its row, which ``rows`` holds as the matching column.
    Dividing through such a pivot would swell the update and the rounding
    error of every set below it."""
    return ((pivots ** 2 < _GROWTH_RTOL ** 2 * np.einsum("ij,ij->j", rows, rows))
            | (np.abs(pivots) < tiny))


def _next_level(stack: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """The sweep's stack for the next index: for each set S, A/A[S] less
    its first row and column, then A/A[S + {k}], its rank-one update
    rest - col (row / pivot), written in place into the second half."""
    m, sets = stack.shape[0] - 1, stack.shape[2]
    rest = stack[1:, 1:]
    grown = np.empty((m, m, 2 * sets))
    grown[:, :, :sets] = rest
    update = grown[:, :, sets:]
    np.multiply(stack[1:, :1], stack[:1, 1:] / pivots, out=update)
    np.subtract(rest, update, out=update)
    return grown


def det_plus_diagonal(a, d):
    """det(A + diag(d)) via the principal-minor expansion.

    Equals ``sum over subsets beta of (prod_{i not in beta} d_i) * det A[beta]``.
    ``d`` may be real or complex; the return type follows ``d``.

    The :func:`minor_table` is folded one index at a time, lowest first:
    the sets without index k (even entries) take the factor d_k and are
    added to those with it (odd entries), halving the table.  No fold
    outgrows the table, so the traced peak is the table's own sweep
    (23 MB at n = 20, real or complex ``d``), and no BLAS call is made.
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
    total = _minor_table(a)
    for dk in dv:
        total = total[::2] * dk + total[1::2]
    return complex(total[0]) if np.iscomplexobj(dv) else float(total[0])


def block_inverse(a, alpha) -> np.ndarray:
    """A^-1 by inversion by parts around the split alpha / complement.

    Pivots compose by symmetric difference, and the pivot on every index
    is the inverse::

        ppt(ppt(A, alpha), alpha^c) = ppt(A, {1, ..., n}) = A^-1

    The second pivot block is the alpha^c block of ppt(A, alpha), the
    Schur complement A/A[alpha].  Requires A[alpha] and A/A[alpha] to
    pass the pivot test; the raised SingularBlockError names the failing
    block.  A(alpha) may be singular.

    Both pivots are stages (:func:`_pivot_stage`) on the one validated
    copy of ``a``: 2 n**2 |alpha| and 2 n**2 (n - |alpha|) flops of
    update on scipy's BLAS, plus the block solves.  A pivot that
    overflows raises ValueError.
    """
    a = as_matrix(a)
    al = IndexSet.coerce(alpha, a.shape[0])
    _pivot_stage(a, al)
    _pivot_stage(a, al.complement(), "Schur complement of the principal block")
    return _finite(a)
