"""Fixed-point iteration x <- T x + c, accelerated by pivoting the iteration
matrix.

The Jacobi splitting of ``A x = b`` gives an iteration that converges only
when the spectral radius of T is below one.  Pivoting T on a well-chosen
index set yields a different iteration with the *same* fixed point but the
spectrum of the transformed matrix, which can turn a divergent sweep into
a convergent one without changing the answer.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import core, spectra
from .errors import CapacityError, RootConvergenceError, SingularBlockError, \
    ZeroDiagonalError
from .indexing import IndexSet
from .pivot import ppt

__all__ = [
    "FixedPointSystem", "IterationReport",
    "jacobi_system", "transform_fixed_point", "iterate", "select_alpha",
    "solve", "DIVERGENCE_LIMIT",
]

#: A difference norm beyond this aborts the sweep as divergent.
DIVERGENCE_LIMIT = 1e12

_RATE_WINDOW = 10


@dataclass(eq=False)
class FixedPointSystem:
    """The affine iteration x <- matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray


@dataclass(eq=False)
class IterationReport:
    """Outcome of an iteration run.

    ``iterations`` counts applications of the map needed to reach an
    iterate whose fixed-point residual ``||T x + c - x||_inf`` is within
    tolerance; ``residual_history`` holds those residual norms, one per
    check.  ``rho_estimate`` is a geometric-rate fit over the last few
    residuals.  ``alpha`` records the pivot set a solve applied, if any.
    """

    solution: np.ndarray
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False
    rho_estimate: float = 0.0
    alpha: IndexSet | None = None


def jacobi_system(a, b) -> FixedPointSystem:
    """Jacobi splitting of A x = b: T = I - D^-1 A (zero diagonal), c = D^-1 b.

    Raises ZeroDiagonalError naming the first offending 1-based index
    when a diagonal entry is zero within the scaled tolerance.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    b = core.as_vector(b, n)
    diag = np.diag(a).copy()
    bad = np.abs(diag) < core._pivot_tolerance(float(np.abs(a).max(initial=0.0)))
    if bad.any():
        raise ZeroDiagonalError(int(np.nonzero(bad)[0][0]) + 1)
    t = -a / diag[:, None]
    np.fill_diagonal(t, 0.0)
    return FixedPointSystem(matrix=t, offset=b / diag)


def transform_fixed_point(system: FixedPointSystem, alpha) -> FixedPointSystem:
    """Pivot the iteration matrix while keeping the fixed point.

    With That = ppt(T, alpha), u = offset restricted to alpha, the new
    iteration x <- That x + (c - (I + That) u) has exactly the fixed
    points of the original one but That's spectrum, so its convergence is
    governed by rho(That) instead of rho(T).
    """
    t = core.as_matrix(system.matrix)
    n = t.shape[0]
    c = core.as_vector(system.offset, n)
    al = IndexSet.coerce(alpha, n)
    if not al:
        return FixedPointSystem(matrix=t.copy(), offset=c.copy())
    that = ppt(t, al)
    u = np.where(al.mask(), c, 0.0)
    d = c - u - that @ u
    return FixedPointSystem(matrix=that, offset=d)


def iterate(system: FixedPointSystem, x0=None, tol: float = 1e-10,
            max_iter: int = 10000) -> IterationReport:
    """Run the sweep from ``x0`` (default zero) until the fixed-point
    residual drops below ``tol``, the difference norm exceeds
    ``DIVERGENCE_LIMIT``, or ``max_iter`` updates have been spent.
    """
    t = core.as_matrix(system.matrix)
    n = t.shape[0]
    c = core.as_vector(system.offset, n)
    x = np.zeros(n) if x0 is None else core.as_vector(x0, n)
    history: list[float] = []
    converged = False
    applied = 0
    while True:
        y = t @ x + c
        d = float(np.abs(y - x).max()) if n else 0.0
        history.append(d)
        if d <= tol:
            converged = True
            break
        if d > DIVERGENCE_LIMIT or applied >= max_iter:
            break
        x = y
        applied += 1
    return IterationReport(solution=x, iterations=applied,
                           residual_history=history, converged=converged,
                           rho_estimate=_rate_fit(history))


def _rate_fit(history: list[float]) -> float:
    """Geometric-rate fit over the last few residual norms."""
    if len(history) < 2:
        return 0.0
    m = min(_RATE_WINDOW, len(history) - 1)
    first, last = history[-1 - m], history[-1]
    if first <= 0.0 or last <= 0.0:
        return 0.0
    return float((last / first) ** (1.0 / m))


#: A candidate whose LAPACK radius exceeds the best paper-route radius r by
#: more than _CONFIRM_MARGIN * max(1, r) cannot win and is not confirmed.
_CONFIRM_MARGIN = 1e-8


def _pivoted(t: np.ndarray, al: IndexSet) -> np.ndarray | None:
    """ppt(T, alpha), or None when the pivot block is singular or the
    transform overflows (T is validated, so ppt's ValueError can only mean
    overflow)."""
    try:
        return ppt(t, al) if al else t
    except (SingularBlockError, ValueError):
        return None


def _transform_radius(t: np.ndarray, al: IndexSet) -> float:
    """rho(ppt(T, alpha)) by the paper route, or inf when the pivot fails
    or the root finding does not converge; 0 for the 0x0 matrix, as
    :func:`_cheap_radius` gives."""
    m = _pivoted(t, al)
    if m is None:
        return math.inf
    if not m.size:
        return 0.0
    try:
        return spectra.eigenvalues(m).spectral_radius
    except RootConvergenceError:
        return math.inf


def _cheap_radius(t: np.ndarray, al: IndexSet) -> float:
    """max |eigvals(ppt(T, alpha))| by LAPACK, or inf when the pivot fails."""
    m = _pivoted(t, al)
    if m is None:
        return math.inf
    return float(np.abs(np.linalg.eigvals(m)).max(initial=0.0))


def _best_candidate(t: np.ndarray, cands: list[IndexSet],
                    incumbent: float = math.inf) -> tuple[int | None, float]:
    """Index and paper-route radius of the first candidate (in list order)
    whose radius is a strict minimum below ``incumbent``; (None, incumbent)
    when none is.

    Candidates are confirmed by the paper route in ascending LAPACK radius,
    and only while that radius is within the margin of the best confirmed
    one: past it, no candidate can still win.
    """
    cheap = [_cheap_radius(t, al) for al in cands]
    best_i, best_rho = None, incumbent
    for i in sorted(range(len(cands)), key=cheap.__getitem__):
        if cheap[i] > best_rho + _CONFIRM_MARGIN * max(1.0, best_rho):
            break
        rho = _transform_radius(t, cands[i])
        if rho < best_rho or (rho == best_rho and best_i is not None
                              and i < best_i):
            best_i, best_rho = i, rho
    return best_i, best_rho


def select_alpha(t, mode: str = "exhaustive", budget: int | None = None
                 ) -> tuple[IndexSet, float]:
    """Search for the pivot set minimizing the transformed spectral radius.

    ``mode="exhaustive"`` scans every subset (guarded at n <= 15) in
    (size, lexicographic) order, so ties resolve to the smallest then
    lexicographically first set.  ``mode="greedy"`` grows the set one
    index at a time, accepting the best strict improvement each round
    (ties to the lowest added index), and stops when no augmentation
    helps or the round ``budget`` (default n) is spent.  Greedy only ever
    adds one index to the current set, so on a matrix with a zero
    diagonal (every Jacobi iteration matrix) each singleton pivot block
    is singular and it never leaves the empty set.

    Each scan (the whole exhaustive search, or one greedy round) runs in
    two passes.  It ranks every candidate by a cheap radius,
    max |eigvals(ppt(T, alpha))| from LAPACK.  It then computes the
    radius by the paper route (direct characteristic polynomial and
    Aberth roots) in ascending cheap radius, and stops once a cheap
    radius exceeds the best paper radius r found so far (in a greedy
    round, at first the current set's radius) by more than
    1e-8 * max(1, r).  Among the candidates so confirmed the tie rule
    above picks the winner, and the reported radius is always the paper
    route's.  A candidate whose radius cannot be computed (singular or
    overflowing pivot, or root finding that does not converge) ranks as
    inf, the empty set included, so the fallback answer is
    (empty, rho(T)), with rho = inf when not even rho(T) could be
    computed.

    Returns ``(alpha, rho)``, and (empty, 0.0) for the 0x0 matrix.
    """
    t = core.as_matrix(t)
    n = t.shape[0]
    if mode == "exhaustive":
        if n > 15:
            raise CapacityError(
                f"exhaustive pivot-set search is guarded at n <= 15, got {n}")
        cands = [IndexSet(combo, n) for size in range(n + 1)
                 for combo in itertools.combinations(range(1, n + 1), size)]
        i, rho = _best_candidate(t, cands)
        return cands[0 if i is None else i], rho
    if mode == "greedy":
        rounds = n if budget is None else max(0, int(budget))
        current = IndexSet.empty(n)
        current_rho = _transform_radius(t, current)
        for _ in range(rounds):
            cands = [IndexSet(current.indices + (i,), n)
                     for i in range(1, n + 1) if i not in current]
            i, current_rho = _best_candidate(t, cands, current_rho)
            if i is None:
                break
            current = cands[i]
        return current, current_rho
    raise ValueError(f"unknown search mode {mode!r}")


def solve(a, b, *, tol: float = 1e-10, max_iter: int = 10000,
          alpha=None) -> IterationReport:
    """Solve A x = b by (optionally pivot-transformed) Jacobi iteration.

    ``alpha`` may be None (plain Jacobi), an index set, or one of the
    search modes ``"exhaustive"`` / ``"greedy"``.  The inner sweep runs
    at tol/10 so a converged report's backward residual lands well
    inside 10 * tol * ||b||_inf.  Non-convergence is reported, not
    raised.
    """
    system = jacobi_system(a, b)
    n = system.matrix.shape[0]
    selected: IndexSet | None = None
    if isinstance(alpha, str):
        if alpha not in ("exhaustive", "greedy"):
            raise ValueError(f"unknown alpha mode {alpha!r}; expected an index "
                             "set, 'exhaustive' or 'greedy'")
        selected, _ = select_alpha(system.matrix, mode=alpha)
    elif alpha is not None:
        selected = IndexSet.coerce(alpha, n)
    if selected is not None and selected:
        system = transform_fixed_point(system, selected)
    report = iterate(system, tol=tol / 10.0, max_iter=max_iter)
    return dataclasses.replace(report, alpha=selected)
