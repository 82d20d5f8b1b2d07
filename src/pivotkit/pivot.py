"""The principal pivot transform and what it buys you.

Given a square matrix A and a pivot set alpha whose principal block
A[alpha] is invertible, the transform B = ppt(A, alpha) is the unique
matrix exchanging the alpha-coordinates between input and output of the
linear map: whenever y = A x, the vector that agrees with y on alpha and
with x elsewhere is mapped by B to the vector that agrees with x on alpha
and with y elsewhere.  Blockwise::

    B[alpha]          =  A[alpha]^-1
    B[alpha, alpha)   = -A[alpha]^-1 A[alpha, alpha)
    B(alpha, alpha]   =  A(alpha, alpha] A[alpha]^-1
    B(alpha)          =  A(alpha) - A(alpha, alpha] A[alpha]^-1 A[alpha, alpha)

Pivoting on the empty set is the identity; pivoting on all indices is
matrix inversion, and pivoting index by index over a partition reaches
the inverse through well-conditioned intermediate stops.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import core
from .errors import PartitionError, SingularBlockError
from .flops import add_flops, counting
from .indexing import IndexSet

__all__ = [
    "ppt", "ppt_single", "exchange_vectors",
    "BasicFactorization", "basic_factorization", "combinatorial_residual",
    "sequential_inverse", "ppt_det", "ppt_inverse",
    "FlopReport", "flop_estimate", "counted_singleton_inverse",
]


def ppt(a, alpha) -> np.ndarray:
    """Principal pivot transform of ``a`` relative to the index set ``alpha``.

    Parameters
    ----------
    a : array_like, square
    alpha : IndexSet or iterable of 1-based indices

    Returns
    -------
    numpy.ndarray
        The transformed matrix, same shape as ``a``.

    Raises
    ------
    SingularBlockError
        When A[alpha] fails the scaled pivot test.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    if not al:
        return a.copy()
    p = al.zero_based
    if len(al) == n:
        return core._inverse_checked(a, al, "principal block")
    q = al.complement().zero_based
    app = a[np.ix_(p, p)]
    lup = core._lu_checked(app, al)
    apq = a[np.ix_(p, q)]
    aqp = a[np.ix_(q, p)]
    aqq = a[np.ix_(q, q)]
    bpp = sla.lu_solve(lup, np.eye(len(p)), check_finite=False)
    bpq = -sla.lu_solve(lup, apq, check_finite=False)
    bqp = sla.lu_solve(lup, aqp.T, trans=1, check_finite=False).T
    bqq = aqq + aqp @ bpq
    out = np.empty_like(a)
    out[np.ix_(p, p)] = bpp
    out[np.ix_(p, q)] = bpq
    out[np.ix_(q, p)] = bqp
    out[np.ix_(q, q)] = bqq
    return out


def ppt_single(a, i: int) -> np.ndarray:
    """Pivot on the single index ``i`` (1-based).

    Agrees with ``ppt(a, {i})`` but runs as one rank-one update.  Under an
    active flop-counting context the update is executed through counted
    scalar kernels and contributes exactly n**2 flops: one reciprocal,
    2(n-1) divisions and (n-1)**2 multiply-adds.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    k = int(i) - 1
    if not 0 <= k < n:
        raise ValueError(f"pivot index {i} out of range 1..{n}")
    piv = a[k, k]
    if abs(piv) < core.PIVOT_RTOL * max(1.0, abs(piv)):
        raise SingularBlockError(IndexSet((k + 1,), n))
    if counting():
        return _ppt_single_counted(a, k, piv)
    out = a - np.outer(a[:, k] / piv, a[k, :])
    out[k, :] = -a[k, :] / piv
    out[:, k] = a[:, k] / piv
    out[k, k] = 1.0 / piv
    return out


def _ppt_single_counted(a: np.ndarray, k: int, piv: float) -> np.ndarray:
    n = a.shape[0]
    out = a.copy()
    recip = 1.0 / piv
    add_flops(1)
    for j in range(n):
        if j != k:
            out[k, j] = -a[k, j] / piv
            add_flops(1)
    for i in range(n):
        if i != k:
            out[i, k] = a[i, k] / piv
            add_flops(1)
    for i in range(n):
        if i == k:
            continue
        t = a[i, k]
        for j in range(n):
            if j == k:
                continue
            out[i, j] = a[i, j] + t * out[k, j]
            add_flops(1)
    out[k, k] = recip
    return out


def exchange_vectors(a, alpha, x):
    """The coordinate exchange realized by the transform.

    For ``y = a @ x`` returns ``(u, v)`` where ``u`` takes y on alpha and
    x elsewhere, and ``v`` takes x on alpha and y elsewhere; then
    ``ppt(a, alpha) @ u == v``.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    x = core.as_vector(x, n)
    if al:
        core._lu_checked(a[np.ix_(al.zero_based, al.zero_based)], al)
    y = a @ x
    m = al.mask()
    u = np.where(m, y, x)
    v = np.where(m, x, y)
    return u, v


@dataclass(eq=False, frozen=True)
class BasicFactorization:
    """The pair (C1, C2) with ppt(A, alpha) = C1 @ inv(C2).

    ``c1`` keeps identity rows on the pivot positions and A's rows
    elsewhere; ``c2`` keeps A's rows on the pivot positions and identity
    rows elsewhere.  ``pivot_mask`` is the 0/1 indicator of the pivot
    set, and ``det(c2) == det A[alpha]``.
    """

    c1: np.ndarray
    c2: np.ndarray
    pivot_mask: np.ndarray

    @property
    def pivot_set(self) -> IndexSet:
        n = len(self.pivot_mask)
        return IndexSet((i + 1 for i in range(n) if self.pivot_mask[i] > 0.5), n)


def basic_factorization(a, alpha) -> BasicFactorization:
    """Factor the transform as C1 @ inv(C2) without forming it.

    With m the 0/1 pivot indicator::

        C1 = diag(m) + diag(1 - m) @ A
        C2 = diag(1 - m) + diag(m) @ A

    Raises SingularBlockError when A[alpha] (equivalently C2) is singular.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    if al:
        core._lu_checked(a[np.ix_(al.zero_based, al.zero_based)], al)
    m = al.mask().astype(float)
    c1 = np.diag(m) + (1.0 - m)[:, None] * a
    c2 = np.diag(1.0 - m) + m[:, None] * a
    return BasicFactorization(c1=c1, c2=c2, pivot_mask=m)


def combinatorial_residual(a, alpha) -> float:
    """Residual of the masked two-block identity tying A to its transform.

    Builds the 2n x 2n permutation ``P = [[D1, D2], [D2, D1]]`` from the
    pivot indicator (D2 = diag(mask), D1 = I - D2) and returns
    ``max-norm of (-B  I) @ P @ [[I], [A]]`` with B = ppt(a, alpha).
    Exactly zero in exact arithmetic.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    b = ppt(a, al)
    m = al.mask().astype(float)
    d2 = np.diag(m)
    d1 = np.diag(1.0 - m)
    perm = np.block([[d1, d2], [d2, d1]])
    stacked = np.vstack([np.eye(n), a])
    left = np.hstack([-b, np.eye(n)])
    resid = left @ perm @ stacked
    return float(np.abs(resid).max()) if resid.size else 0.0


def sequential_inverse(a, partition) -> np.ndarray:
    """Invert by pivoting over a partition of {1, ..., n}, one set at a time.

    ``partition`` is an iterable of index sets (or iterables of 1-based
    indices) that must be pairwise disjoint and cover every index.  The
    stages compose to the full-set pivot, i.e. the inverse.  A singular
    intermediate block raises SingularBlockError naming the stage.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    parts = [IndexSet.coerce(p, n) for p in partition]
    seen: set[int] = set()
    for part in parts:
        overlap = seen.intersection(part.indices)
        if overlap:
            raise PartitionError(f"index {min(overlap)} appears in more than "
                                 "one partition block")
        seen.update(part.indices)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise PartitionError(f"partition does not cover indices {missing}")
    m = a
    for stage, part in enumerate(parts, start=1):
        try:
            m = ppt(m, part)
        except SingularBlockError as exc:
            raise SingularBlockError(
                part, "principal block",
                detail=f"stage {stage} of the sequential inversion") from exc
    return m


def ppt_det(a, alpha) -> float:
    """det ppt(A, alpha) = det A(alpha) / det A[alpha], without the transform.

    Both determinants are carried as mantissa and binary exponent, so the
    ratio is right even where the block determinants overflow.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    num = den = (1.0, 0)
    if al:
        block = a[np.ix_(al.zero_based, al.zero_based)]
        den = core._scaled_det_from_lu(*core._lu_checked(block, al))
    q = al.complement().zero_based
    if len(q):
        num = core._scaled_det_from_lu(*core._lu_factor(a[np.ix_(q, q)]))
    return float(np.ldexp(num[0] / den[0], num[1] - den[1]))


def ppt_inverse(a, alpha) -> np.ndarray:
    """Inverse of the transform: ppt(A, alpha)^-1 = ppt(A, complement).

    Requires both A[alpha] and A(alpha) to pass the pivot test (the
    transform is invertible exactly when A(alpha) is).
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    comp = al.complement()
    if al:
        core._lu_checked(a[np.ix_(al.zero_based, al.zero_based)], al,
                         "principal block")
    if comp:
        core._lu_checked(a[np.ix_(comp.zero_based, comp.zero_based)], comp,
                         "complementary principal block")
    return ppt(a, comp)


# ---------------------------------------------------------------------------
# flop accounting

@dataclass
class FlopReport:
    """Predicted flop counts for inversion at order n, plus a measured run.

    ``predicted_ppt_inversion`` is the diminishing-window count of the
    single-index pivot sweep, ``n(n+1)(2n+1)/6 - 1``;
    ``predicted_lu_inversion`` is ``ceil(5 n^3 / 6)`` for the factor-and-
    solve route.  ``measured`` is filled from an instrumented sweep.
    """

    order: int
    predicted_ppt_inversion: int
    predicted_lu_inversion: int
    measured: int | None = None


def predicted_ppt_flops(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6 - 1


def predicted_lu_flops(n: int) -> int:
    return math.ceil(5 * n ** 3 / 6)


def flop_estimate(n: int, matrix=None) -> FlopReport:
    """Closed-form flop predictions for order ``n``.

    When ``matrix`` is given, also runs :func:`counted_singleton_inverse`
    on it and fills the ``measured`` field.
    """
    n = int(n)
    if n < 1:
        raise ValueError("order must be at least 1")
    report = FlopReport(order=n,
                        predicted_ppt_inversion=predicted_ppt_flops(n),
                        predicted_lu_inversion=predicted_lu_flops(n))
    if matrix is not None:
        m = core.as_matrix(matrix)
        if m.shape[0] != n:
            raise ValueError(f"matrix order {m.shape[0]} does not match n={n}")
        _, measured = counted_singleton_inverse(m)
        report.measured = measured
    return report


def counted_singleton_inverse(a) -> tuple[np.ndarray, int]:
    """Invert by the ordered single-index pivot sweep, counting kernel flops.

    Returns ``(inverse, flops)``.  The counter follows the diminishing
    active-window accounting of elimination: the stage that pivots index
    k runs its scalar kernel on the trailing window k..n (one reciprocal,
    2(w-1) divisions, (w-1)**2 multiply-adds for window width w), while
    bookkeeping updates of rows and columns already swept are maintained
    outside the counted kernel.  Summed over the sweep the kernel costs
    n**2 + (n-1)**2 + ... + 2**2 flops, matching
    :func:`predicted_ppt_flops`; the final 1x1 window is pure bookkeeping.
    """
    m = core.as_matrix(a)
    n = m.shape[0]
    flops = 0
    for k in range(n):
        piv = m[k, k]
        if abs(piv) < core.PIVOT_RTOL * max(1.0, abs(piv)):
            raise SingularBlockError(
                IndexSet((k + 1,), n), detail=f"sweep stage {k + 1}")
        old_col = m[:, k].copy()
        old_row = m[k, :].copy()
        w = n - k
        if w >= 2:
            # counted window kernel on indices k..n-1
            recip = 1.0 / piv
            flops += 1
            for j in range(k + 1, n):
                m[k, j] = -old_row[j] / piv
                flops += 1
            for i in range(k + 1, n):
                m[i, k] = old_col[i] / piv
                flops += 1
            for i in range(k + 1, n):
                t = old_col[i]
                for j in range(k + 1, n):
                    m[i, j] = m[i, j] + t * m[k, j]
                    flops += 1
            m[k, k] = recip
        else:
            m[k, k] = 1.0 / piv
        # uncounted bookkeeping: rows/columns already swept
        if k > 0:
            m[k, :k] = -old_row[:k] / piv
            m[:k, k] = old_col[:k] / piv
            m[:k, :k] += np.outer(old_col[:k], m[k, :k])
            if k + 1 < n:
                m[:k, k + 1:] += np.outer(old_col[:k], m[k, k + 1:])
                m[k + 1:, :k] += np.outer(old_col[k + 1:], m[k, :k])
    if counting():
        add_flops(flops)
    return m, flops
