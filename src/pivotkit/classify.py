"""Matrix classes the principal pivot transform preserves (and one it
does not).

* P-matrices: every principal minor positive.  Preserved by every pivot
  set, and inherited by Schur complements and inverses.
* Z-matrices: nonpositive off-diagonal.  *Not* preserved in general.
* Semipositive matrices: some x > 0 with A x > 0.  Preserved, with the
  witness transferring through the coordinate exchange.
* S-orthogonal matrices: Q^T S Q = S for a signature matrix S; produced
  by pivoting an orthogonal matrix on the +1 positions of S.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import FeasibilityUndecided, NotOrthogonalError
from .indexing import IndexSet
from .pivot import ppt

__all__ = [
    "ClassCertificate", "is_p_matrix", "is_z_matrix", "is_semipositive",
    "random_p_matrix", "random_orthogonal", "make_s_orthogonal",
    "signature_plus_set",
]

#: A principal minor counts as positive when it exceeds
#: P_MINOR_RTOL * (1 + ||A||_inf ** order).
P_MINOR_RTOL = 1e-10

_SIMPLEX_TOL = 1e-9
_SIMPLEX_FEAS_TOL = 1e-8
_SIMPLEX_MAX_PIVOTS = 5000


@dataclass(eq=False)
class ClassCertificate:
    """Verdict plus evidence: a failing index set, a positive witness
    vector, or None."""

    verdict: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.verdict


def is_p_matrix(a) -> ClassCertificate:
    """Test the 2**n - 1 principal minors for positivity.

    On failure the witness is the lexicographically first index set
    whose minor is not positive at the scale-aware threshold.

    The minors come from a walk of the subset tree in lexicographic
    order (which is preorder: the children of beta are beta + {m} for
    m > max beta).  Each live set beta carries its minor, its rank in
    that order and its Schur complement A/A[beta] restricted to the
    indices above max beta, so a child's minor is the parent's times a
    diagonal entry of that complement (det A[beta + {m}] =
    det A[beta] * (A/A[beta])_mm) and its complement is a rank-one
    update of the parent's.  Sets with the same largest index are
    stacked and advanced together by numpy.

    Cost is O(2**n): about 7 * 2**n flops for a P-matrix, and no table
    of minors is kept.  The stacked complements take about 24 * 2**n
    bytes (25 MB at n = 20; the peak with temporaries is under 40 MB).
    A set whose minor fails is never expanded (its subtree comes after
    it in the order), and once a failure is known every set ranked after
    it is dropped, so an early witness ends the walk almost at once.
    Every pivot divided by is therefore positive.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    core._check_enumeration(n)
    if n == 0:
        return ClassCertificate(True)
    norm = float(np.abs(a).sum(axis=1).max())
    thresholds = np.array([P_MINOR_RTOL * (1.0 + norm ** k)
                           for k in range(n + 1)])
    # pending[m]: (complements, minors, ranks, sizes) blocks of sets whose
    # largest 0-based index is m; sets with largest index n - 1 are leaves
    pending: list[list[tuple]] = [[] for _ in range(n - 1)]
    subtree = 1 << (n - np.arange(n + 1, dtype=np.int64))  # 2**(n-k)
    best = None  # rank of the first failing set found so far
    group = (a[None], np.ones(1), np.zeros(1, dtype=np.int64),
             np.zeros(1, dtype=np.intp))
    for p in range(-1, n - 1):
        if p >= 0:
            blocks = pending[p]
            pending[p] = []
            if not blocks:
                continue
            group = blocks[0] if len(blocks) == 1 else tuple(
                np.concatenate(parts) for parts in zip(*blocks))
        comps, minors, ranks, sizes = group
        if best is not None:
            keep = ranks < best
            if not keep.all():
                keep = np.flatnonzero(keep)
                if not keep.size:
                    continue
                comps, minors = comps[keep], minors[keep]
                ranks, sizes = ranks[keep], sizes[keep]
        # children beta + {m}, m = p+1 .. n-1: a child's rank is the
        # parent's plus one plus the subtrees (2**(n-1-m') sets each) of
        # the siblings before it
        pivots = np.diagonal(comps, axis1=1, axis2=2)
        child_minors = minors[:, None] * pivots
        child_ranks = ranks[:, None] + (1 + subtree[p + 1] - subtree[p + 1:n])
        child_sizes = sizes + 1
        live = child_minors > thresholds[child_sizes][:, None]
        if not live.all():
            first = int(child_ranks[~live].min())
            best = first if best is None else min(best, first)
        if best is not None:
            live &= child_ranks < best
        every = live[:, :-1].all()
        for j in range(n - 2 - p):
            if every:
                sub = comps[:, j:, j:]
                block = (child_minors[:, j], child_ranks[:, j], child_sizes)
            else:
                rows = np.flatnonzero(live[:, j])
                if not rows.size:
                    continue
                sub = comps[rows, j:, j:]
                block = (child_minors[rows, j], child_ranks[rows, j],
                         child_sizes[rows])
            comp = sub[:, 1:, 1:] - sub[:, 1:, :1] * (sub[:, :1, 1:]
                                                      / sub[:, :1, :1])
            pending[p + 1 + j].append((comp,) + block)
    if best is None:
        return ClassCertificate(True)
    return ClassCertificate(False, IndexSet(_preorder_subset(best, n), n))


def _preorder_subset(rank: int, n: int) -> list[int]:
    """The 1-based subset of {1..n} at ``rank`` in lexicographic order
    (rank 0 is the empty set)."""
    indices = []
    m = 0
    while rank:
        rank -= 1
        while rank >= 1 << (n - 1 - m):
            rank -= 1 << (n - 1 - m)
            m += 1
        indices.append(m + 1)
        m += 1
    return indices


def is_z_matrix(a) -> bool:
    """True when every off-diagonal entry is <= 0."""
    a = core.as_matrix(a)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return bool((off <= 0.0).all())


def random_p_matrix(n: int, seed: int) -> np.ndarray:
    """A seeded strictly row diagonally dominant matrix with positive diagonal.

    Off-diagonal entries are uniform on [-1, 1]; each diagonal entry is
    the row's absolute off-diagonal sum plus a uniform(0.1, 1) margin.
    Such matrices are P (every principal submatrix keeps the dominance).
    """
    n = int(n)
    if n < 1:
        raise ValueError("order must be at least 1")
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(m, 0.0)
    margins = rng.uniform(0.1, 1.0, n)
    m[np.arange(n), np.arange(n)] = np.abs(m).sum(axis=1) + margins
    return m


# ---------------------------------------------------------------------------
# semipositivity via a dense phase-one simplex

def is_semipositive(a) -> ClassCertificate:
    """Does some x > 0 satisfy A x > 0?

    Decided through the equivalent closed system {x >= 1, A x >= 1}
    (positive scaling closes the open cone) with a phase-one simplex
    under Bland's rule, so cycling is impossible.  A True verdict
    carries the witness x; hitting the pivot cap raises
    FeasibilityUndecided instead of guessing.
    """
    a = core.as_matrix(a)
    x = _phase_one_feasible(a)
    if x is None:
        return ClassCertificate(False)
    return ClassCertificate(True, x)


def _phase_one_feasible(a: np.ndarray) -> np.ndarray | None:
    """Find x with x >= 1 and A x >= 1, or None when infeasible.

    Substituting x = 1 + x' (x' >= 0) leaves A x' >= r with
    r = 1 - A 1; surplus and artificial variables complete the standard
    phase-one tableau.
    """
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    r = 1.0 - a.sum(axis=1)
    flip = np.where(r < 0.0, -1.0, 1.0)
    body = a * flip[:, None]
    rhs = r * flip
    # columns: x' (n) | surplus (n) | artificial (n)
    tab = np.zeros((n + 1, 3 * n + 1))
    tab[:n, :n] = body
    tab[:n, n:2 * n] = np.diag(-flip)
    tab[:n, 2 * n:3 * n] = np.eye(n)
    tab[:n, -1] = rhs
    # reduced-cost row for min(sum of artificials) with the artificial basis
    tab[n, :] = -tab[:n, :].sum(axis=0)
    tab[n, 2 * n:3 * n] = 0.0
    basis = list(range(2 * n, 3 * n))
    for _ in range(_SIMPLEX_MAX_PIVOTS):
        costs = tab[n, :3 * n]
        entering = -1
        for j in range(3 * n):
            # a reduced cost carries rounding of the size of its column
            if costs[j] < -_SIMPLEX_TOL * max(1.0, float(np.abs(tab[:n, j]).max())):
                entering = j
                break
        if entering < 0:
            objective = -tab[n, -1]
            if objective > _SIMPLEX_FEAS_TOL:
                return None
            xprime = np.zeros(n)
            for row, var in enumerate(basis):
                if var < n:
                    xprime[var] = max(0.0, tab[row, -1])
            return 1.0 + xprime
        leaving, best_ratio = -1, np.inf
        for i in range(n):
            coef = tab[i, entering]
            if coef > _SIMPLEX_TOL:
                ratio = tab[i, -1] / coef
                if ratio < best_ratio - _SIMPLEX_TOL or (
                        abs(ratio - best_ratio) <= _SIMPLEX_TOL
                        and (leaving < 0 or basis[i] < basis[leaving])):
                    leaving, best_ratio = i, ratio
        if leaving < 0:
            # phase one is bounded below by zero, so this cannot happen
            raise FeasibilityUndecided("phase-one column unbounded")
        tab[leaving, :] /= tab[leaving, entering]
        for i in range(n + 1):
            if i != leaving and tab[i, entering] != 0.0:
                tab[i, :] -= tab[i, entering] * tab[leaving, :]
        basis[leaving] = entering
    raise FeasibilityUndecided(
        f"no verdict within {_SIMPLEX_MAX_PIVOTS} simplex pivots")


# ---------------------------------------------------------------------------
# orthogonal material

def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-ish orthogonal matrix: QR of a Gaussian draw with the
    R diagonal sign-normalized, so results are deterministic per seed."""
    n = int(n)
    if n < 1:
        raise ValueError("order must be at least 1")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def signature_plus_set(signs) -> IndexSet:
    """The index set of +1 entries of a signature vector (entries +-1)."""
    arr = np.asarray(signs, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("signature must be nonempty")
    if not np.all(np.isin(arr, (-1.0, 1.0))):
        raise ValueError("signature entries must be +1 or -1")
    return IndexSet((i + 1 for i in range(arr.size) if arr[i] > 0), arr.size)


def make_s_orthogonal(signs, r) -> np.ndarray:
    """Build Q with Q^T S Q = S by pivoting an orthogonal R on the +1 set of S.

    ``signs`` is the diagonal of the signature matrix S.  R must satisfy
    ||R^T R - I||_inf <= 1e-10 n; a singular pivot block is reported via
    SingularBlockError (no retry with another R is attempted here).
    """
    plus = signature_plus_set(signs)
    r = core.as_matrix(r)
    n = r.shape[0]
    if n != plus.n:
        raise ValueError(f"signature length {plus.n} does not match matrix "
                         f"order {n}")
    gram_residual = float(np.abs(r.T @ r - np.eye(n)).max())
    if gram_residual > 1e-10 * n:
        raise NotOrthogonalError(
            f"input is not orthogonal: ||R^T R - I|| = {gram_residual:.3e}")
    return ppt(r, plus)
