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
import math
import numbers
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
    Raises ValueError unless 0 <= tol < inf and max_iter is whole, >= 0.
    """
    _check_limits(tol, max_iter)
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


def _whole(x) -> bool:
    return isinstance(x, numbers.Real) and math.isfinite(x) and int(x) == x


def _check_limits(tol, max_iter) -> None:
    if not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not (_whole(max_iter) and max_iter >= 0):
        raise ValueError(f"max_iter must be a whole number >= 0, got {max_iter!r}")


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

#: A search holds at most this many doubles of transforms at a time (8 MB):
#: the exhaustive table in chunks of 2**12 sets from n = 13 on (7.4 MB at
#: n = 15, where the whole table would hold 59 MB), a greedy round in
#: slices of 2**20 // n**2 candidates from n = 102 on.
_TABLE_DOUBLES = 1 << 20


def _transform_radius(t: np.ndarray, al: IndexSet) -> float:
    """rho(ppt(T, alpha)) by the paper route, or inf when the pivot fails
    (a singular pivot block, or an overflowing transform: T is validated,
    so ppt's ValueError can only mean overflow) or the root finding does
    not converge; 0 for the 0x0 matrix, as the batched ranking gives."""
    try:
        m = ppt(t, al) if al else t
    except (SingularBlockError, ValueError):
        return math.inf
    if not m.size:
        return 0.0
    try:
        return spectra.eigenvalues(m).spectral_radius
    except RootConvergenceError:
        return math.inf


def _grow(t: np.ndarray, masks, out: np.ndarray, done: np.ndarray,
          live: np.ndarray, parents: np.ndarray, steppable: np.ndarray,
          r: np.ndarray, k, tiny: float) -> None:
    """Write into ``out[i]`` the transform ppt(T, alpha) of the set alpha
    of bitmask ``masks[i]``: the set of the transform ``parents[r[i]]``
    plus the zero-based index ``k`` (one, or one per child).  Mark in
    ``done`` the children that get a transform and in ``live`` those that
    may be stepped from in turn.

    A child of a parent that ``steppable`` marks is one single-index
    step from it, ppt(ppt(T, S), {k}) = ppt(T, S + {k}), all such steps
    one batched rank-one update.  The 1x1 pivots are tested first, by the
    rule the minor-table sweep applies to its own (:func:`core._refused`):
    a pivot below ``tiny`` or below 1e-2 of its row's norm is refused,
    and only the accepted ones are stepped.  A refused child, a child of
    a parent that cannot be stepped from and a step that overflowed are
    formed directly (:func:`_form`).  A refused or overflowed child is
    not stepped from either: its transform holds the growth of the pivot
    it was refused for, and steps from it round that growth into its
    children (behind a Schur pivot of 1e-11, their radii came out up to
    3e-5 off, relative, against 2e-12 when they are formed directly).
    """
    piv = parents[r, k, k]
    rows = parents[r, k]
    with np.errstate(over="ignore", invalid="ignore"):
        at = np.flatnonzero(steppable[r] & ~core._refused(piv, rows.T, tiny))
        if at.size:
            if np.ndim(k):
                k = k[at]
            rr, piv, a = r[at], piv[at, None], np.arange(len(at))
            row = rows[at] / piv
            cols = parents[rr, :, k]
            children = parents[rr]
            children -= cols[:, :, None] * row[:, None, :]
            children[a, k] = -row
            children[a, :, k] = cols / piv
            children[a, k, k] = 1.0 / piv[:, 0]
            out[at] = children
            done[at] = np.isfinite(children).all(axis=(1, 2))
    live[:] = done | ~steppable[r]
    _form(t, masks, out, done)
    live &= done


def _form(t: np.ndarray, masks, out: np.ndarray, done: np.ndarray) -> None:
    """Form ppt(T, alpha) directly into ``out[i]`` wherever ``done`` is not
    yet set, alpha the set of bitmask ``masks[i]``, and mark ``done``
    where the pivot succeeds: a singular pivot block or an overflowing
    transform leaves the set without one."""
    n = t.shape[0]
    for i in np.flatnonzero(~done).tolist():
        try:
            out[i] = ppt(t, IndexSet.from_bitmask(int(masks[i]), n))
        except (SingularBlockError, ValueError):
            continue
        done[i] = True


def _radii(stack: np.ndarray, done: np.ndarray) -> np.ndarray:
    """max |eigenvalue| of each transform that ``done`` marks, by one
    batched LAPACK ``eigvals``; inf for a set without a transform."""
    radii = np.full(len(done), math.inf)
    if done.any():
        radii[done] = np.abs(np.linalg.eigvals(stack[done])).max(axis=-1, initial=0.0)
    return radii


def _table_radii(t: np.ndarray) -> np.ndarray:
    """The ranking radius max |eigvals(ppt(T, alpha))| of every pivot set,
    indexed by bitmask; inf where the transform cannot be formed.

    The transforms are built in bitmask order, as the minor table is:
    level k gives every set within the first k indices, plus index k, its
    transform (:func:`_grow`).  A chunk holds the 2**low sets that share
    their indices above the first low, the most that _TABLE_DOUBLES
    allows; it starts from ppt(T, H), H those high indices, formed
    directly, and runs the levels of the low ones.
    """
    n = t.shape[0]
    low = min(n, (_TABLE_DOUBLES // max(1, n * n)).bit_length() - 1)
    tiny = core._pivot_tolerance(float(np.abs(t).max(initial=0.0)))
    radii = np.empty(1 << n)
    for high in range(0, 1 << n, 1 << low):
        masks = high + np.arange(1 << low)
        stack = np.empty((1 << low, n, n))
        done = np.zeros(1 << low, dtype=bool)
        _form(t, masks[:1], stack[:1], done[:1])
        live = done.copy()
        for k in range(low):
            h = slice(1 << k, 2 << k)
            _grow(t, masks[h], stack[h], done[h], live[h], stack, live,
                  np.arange(1 << k), k, tiny)
        radii[high:high + (1 << low)] = _radii(stack, done)
    return radii


def _round_radii(t: np.ndarray, base: np.ndarray, steppable: bool,
                 current: IndexSet, tiny: float):
    """One greedy round's candidates, ``current`` plus each index it lacks
    in ascending order, grown from ``base`` = ppt(T, current) as
    :func:`_grow` grows them, in slices of at most _TABLE_DOUBLES doubles:
    their bitmasks, whether each may be stepped from, and their ranking
    radii."""
    n = t.shape[0]
    ks = np.array([k for k in range(n) if k + 1 not in current], dtype=np.intp)
    held = current.bitmask()
    masks = [held | 1 << k for k in ks.tolist()]
    done = np.zeros(len(ks), dtype=bool)
    live = np.zeros(len(ks), dtype=bool)
    radii = np.empty(len(ks))
    width = max(1, _TABLE_DOUBLES // (n * n))
    for part in (slice(lo, lo + width) for lo in range(0, len(ks), width)):
        stack = np.empty((len(ks[part]), n, n))
        _grow(t, masks[part], stack, done[part], live[part], base[None],
              np.array([steppable]), np.zeros_like(ks[part]), ks[part], tiny)
        radii[part] = _radii(stack, done[part])
    return masks, live, radii


def _best_candidate(t: np.ndarray, masks, cheap: np.ndarray,
                    incumbent: float = math.inf) -> tuple[int | None, float]:
    """Position in ``masks`` (bitmasks, ranking radii ``cheap``) and paper
    radius of the least-radius candidate below ``incumbent``, ties to the
    least key (len(alpha), alpha.indices); (None, incumbent) when none is.

    Candidates are confirmed by the paper route in ascending ranking
    radius, and only while that radius is within the margin of the best
    confirmed one: past it, no candidate can still win.
    """
    best_i, best_rho, best_key = None, incumbent, ()  # () precedes every key
    for i in np.argsort(cheap, kind="stable").tolist():
        if cheap[i] > best_rho + _CONFIRM_MARGIN * max(1.0, best_rho):
            break
        al = IndexSet.from_bitmask(int(masks[i]), len(t))
        rho = _transform_radius(t, al)
        key = (len(al), al.indices)
        if rho < best_rho or (rho == best_rho and key < best_key):
            best_i, best_rho, best_key = i, rho, key
    return best_i, best_rho


def select_alpha(t, mode: str = "exhaustive", budget: int | None = None
                 ) -> tuple[IndexSet, float]:
    """Search for the pivot set minimizing the transformed spectral radius.

    ``mode="exhaustive"`` scans every subset (guarded at n <= 15), ties
    to the least key (len(alpha), alpha.indices): the smallest, then the
    lexicographically first set.  ``mode="greedy"`` grows the set one
    index at a time, accepting the best strict improvement each round
    (ties to the lowest added index), and stops when no augmentation
    helps or the round ``budget`` (default n; an integer, else
    ValueError) is spent.  Greedy only ever adds one index to the current
    set, so on a matrix with a zero diagonal (every Jacobi iteration
    matrix) each singleton pivot block is singular and it never leaves
    the empty set.

    Each scan (the whole exhaustive search, or one greedy round) runs in
    two passes.  It first ranks every candidate by the LAPACK radius
    max |eigvals(ppt(T, alpha))|, with one batched ``eigvals`` call over
    the transforms of all its candidates.  Those transforms come from
    the composition identity ppt(ppt(T, S), {k}) = ppt(T, S + {k}): the
    exhaustive search builds all 2**n in bitmask order, each one batched
    rank-one step on its highest index from the transform of the set
    without it, and a greedy round steps the current set's transform on
    each index it lacks.  A step is refused where the minor-table sweep
    lifts a pivot: below 1e-2 of its row's norm, or failing the pivot
    test.  A refused set, a step that overflowed and a set whose parent
    cannot be stepped from (it has no transform, or was itself refused)
    are formed directly by ``ppt``.  A search holds at most 8 MB of
    transforms at a time.  Above n = 12 the exhaustive table is built in
    chunks of 2**12 sets, one per set of the higher indices (7.4 MB at
    n = 15): a search at n = 15 peaks at 16.4-17.0 MB under
    ``tracemalloc``, where an unchunked build would peak at 127 MB.
    Above n = 101 a greedy round ranks its candidates in slices.

    It then computes the radius by the paper route (the transform formed
    directly by ``ppt``, its direct characteristic polynomial and Aberth
    roots) in ascending ranking radius, and stops once a ranking radius
    exceeds the best paper radius r found so far (in a greedy round, at
    first the current set's radius) by more than 1e-8 * max(1, r).
    Among the candidates so confirmed the tie rule above picks the
    winner, and the reported radius is always the paper route's.  A
    candidate whose radius cannot be computed (singular or overflowing
    pivot, or root finding that does not converge) ranks as inf, the
    empty set included, so the fallback answer is (empty, rho(T)), with
    rho = inf when not even rho(T) could be computed.

    Returns ``(alpha, rho)``, and (empty, 0.0) for the 0x0 matrix.
    """
    t = core.as_matrix(t)
    n = t.shape[0]
    if mode == "exhaustive":
        if n > 15:
            raise CapacityError(
                f"exhaustive pivot-set search is guarded at n <= 15, got {n}")
        i, rho = _best_candidate(t, np.arange(1 << n), _table_radii(t))
        return IndexSet.from_bitmask(0 if i is None else i, n), rho
    if mode == "greedy":
        if budget is not None and not _whole(budget):
            raise ValueError(f"budget must be a whole number of rounds, "
                             f"got {budget!r}")
        rounds = n if budget is None else max(0, int(budget))
        tiny = core._pivot_tolerance(float(np.abs(t).max(initial=0.0)))
        current, base, steppable = IndexSet.empty(n), t, True
        current_rho = _transform_radius(t, current)
        for _ in range(rounds):
            masks, live, cheap = _round_radii(t, base, steppable, current, tiny)
            i, current_rho = _best_candidate(t, masks, cheap, current_rho)
            if i is None:
                break
            current, steppable = IndexSet.from_bitmask(masks[i], n), live[i]
            base = ppt(t, current)
        return current, current_rho
    raise ValueError(f"unknown search mode {mode!r}")


def solve(a, b, *, tol: float = 1e-10, max_iter: int = 10000,
          alpha=None) -> IterationReport:
    """Solve A x = b by (optionally pivot-transformed) Jacobi iteration.

    ``alpha`` may be None (plain Jacobi), an index set, or one of the
    search modes ``"exhaustive"`` / ``"greedy"``.  The inner sweep runs
    at tol/10 so a converged report's backward residual lands well
    inside 10 * tol * ||b||_inf.  Non-convergence is reported, not
    raised; limits that :func:`iterate` rejects raise before any search.
    """
    _check_limits(tol, max_iter)
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
