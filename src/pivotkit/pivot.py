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

from . import core
from .errors import PartitionError
from .flops import add_flops
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
    ValueError
        When the pivot overflows to non-finite entries.
    """
    a = core.as_matrix(a)
    core._pivot_stage(a, IndexSet.coerce(alpha, a.shape[0]))
    return core._finite(a)


def ppt_single(a, i: int) -> np.ndarray:
    """Pivot on the single index ``i`` (1-based): ``ppt(a, (i,))``.

    Under an active flop-counting context it contributes the extent of
    the update off the pivot: one reciprocal, 2(n-1) divisions for the
    pivot row and column and (n-1)**2 multiply-adds for the off-pivot
    window, n**2 in all.  Counting does not change the arithmetic.
    """
    out = ppt(a, (i,))
    add_flops(out.size)
    return out


def exchange_vectors(a, alpha, x):
    """The coordinate exchange realized by the transform.

    For ``y = a @ x`` returns ``(u, v)`` where ``u`` takes y on alpha and
    x elsewhere, and ``v`` takes x on alpha and y elsewhere; then
    ``ppt(a, alpha) @ u == v``.
    """
    a, al, _ = core._pivot_block(a, alpha)
    x = core.as_vector(x, a.shape[0])
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
    a, al, _ = core._pivot_block(a, alpha)
    m = al.mask().astype(float)
    c1 = np.diag(m) + (1.0 - m)[:, None] * a
    c2 = np.diag(1.0 - m) + m[:, None] * a
    return BasicFactorization(c1=c1, c2=c2, pivot_mask=m)


def combinatorial_residual(a, alpha) -> float:
    """Residual of the masked two-block identity tying A to its transform.

    For the permutation P = [[D1, D2], [D2, D1]] (D2 = diag(mask),
    D1 = I - D2), P @ [[I], [A]] stacks C2 over C1 of
    :func:`basic_factorization`, so ``(-B  I) @ P @ [[I], [A]]`` with
    B = ppt(a, alpha) is C1 - B C2; returns its max-norm, exactly zero in
    exact arithmetic.
    """
    fact = basic_factorization(a, alpha)
    resid = fact.c1 - ppt(a, fact.pivot_set) @ fact.c2
    return float(np.abs(resid).max()) if resid.size else 0.0


def sequential_inverse(a, partition) -> np.ndarray:
    """Invert by pivoting over a partition of {1, ..., n}, one set at a time.

    ``partition`` is an iterable of index sets (or iterables of 1-based
    indices) that must be pairwise disjoint and cover every index; an
    empty set is a stage that does nothing.  The stages compose to the
    full-set pivot, i.e. the inverse.  A singular intermediate block
    raises SingularBlockError naming the stage; a stage that overflows
    raises ValueError.

    The input is copied once; each stage then pivots the copy in place
    (:func:`core._pivot_stage`), one rank-|alpha| update of 2 n**2 |alpha|
    flops on scipy's BLAS, so the stages add up to 2 n**3 flops, the count
    of Gauss-Jordan inversion.
    Keeping every BLAS call of a stage on scipy's OpenBLAS, never
    numpy's, is what brought blocks of 48 at n = 800 from 300-430 ms to
    51-62 ms (``np.linalg.inv``: 45-50 ms; default threads, 2 cores).
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
    for stage, part in enumerate(parts, start=1):
        core._pivot_stage(a, part, detail=f"stage {stage} of the sequential inversion")
    return core._finite(a)


def ppt_det(a, alpha) -> float:
    """det ppt(A, alpha) = det A(alpha) / det A[alpha], without the transform.

    Both determinants are carried as mantissa and binary exponent, so the
    ratio is right even where the block determinants overflow.
    """
    a, al, lup = core._pivot_block(a, alpha)
    num = den = (1.0, 0)
    if lup is not None:
        den = core._scaled_det_from_lu(*lup)
    q = al.complement().zero_based
    if len(q):
        num = core._scaled_det_from_lu(*core._lu_factor(a[q[:, None], q]))
    return float(np.ldexp(num[0] / den[0], num[1] - den[1]))


def ppt_inverse(a, alpha) -> np.ndarray:
    """Inverse of the transform: ppt(A, alpha)^-1 = ppt(A, complement).

    Requires both A[alpha] and A(alpha) to pass the pivot test (the
    transform is invertible exactly when A(alpha) is).  A[alpha] is only
    checked, and A(alpha) is factored once, as the pivot block of
    ppt(A, complement) on the copy that the check validated.  An
    overflow raises ValueError.
    """
    a, al, _ = core._pivot_block(a, alpha)
    core._pivot_stage(a, al.complement(), "complementary principal block")
    return core._finite(a)


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
    if int(n) != n or n < 1:
        raise ValueError(f"order must be an integer of at least 1, got {n!r}")
    n = int(n)
    report = FlopReport(order=n,
                        predicted_ppt_inversion=predicted_ppt_flops(n),
                        predicted_lu_inversion=predicted_lu_flops(n))
    if matrix is not None:
        m = core.as_matrix(matrix)
        if m.shape[0] != n:
            raise ValueError(f"matrix order {m.shape[0]} does not match n={n}")
        _, report.measured = counted_singleton_inverse(m)
    return report


def counted_singleton_inverse(a) -> tuple[np.ndarray, int]:
    """Invert by the ordered single-index pivot sweep, counting kernel flops.

    Returns ``(inverse, flops)``.  Each stage is one rank-one update of
    the whole matrix, and its count comes from the extent of elimination's
    active window: the stage that pivots index k, whose trailing window
    k..n has width w, counts one reciprocal, 2(w-1) divisions and
    (w-1)**2 multiply-adds, w**2 in all.  The rows and columns already
    swept, which the same update carries along, are bookkeeping and are
    not counted.  Summed over the sweep this is n**2 + (n-1)**2 + ... +
    2**2 flops, matching :func:`predicted_ppt_flops`; the final 1x1
    window is pure bookkeeping.

    Its stages are those of :func:`sequential_inverse` over the
    singletons, and :func:`ppt_single` for i = 1, ..., n in turn, bit for
    bit.  An overflow raises ValueError.
    """
    m = core.as_matrix(a)
    n = m.shape[0]
    for k in range(1, n + 1):
        core._pivot_stage(m, IndexSet((k,), n), detail=f"sweep stage {k}")
    flops = sum(w * w for w in range(2, n + 1))
    add_flops(flops)
    return core._finite(m), flops
