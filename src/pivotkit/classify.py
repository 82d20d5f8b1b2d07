"""Matrix classes the principal pivot transform preserves (and one it
does not).

* P-matrices: every principal minor positive.  Preserved by every pivot
  set, and inherited by Schur complements and inverses.  Tested on one
  table of all 2**n minors (:func:`pivotkit.core.minor_table`).
* Z-matrices: nonpositive off-diagonal.  *Not* preserved in general.
* Semipositive matrices: some x > 0 with A x > 0.  Preserved, with the
  witness transferring through the coordinate exchange.
* S-orthogonal matrices: Q^T S Q = S for a signature matrix S; produced
  by pivoting an orthogonal matrix on the +1 positions of S.
"""
from __future__ import annotations

import math
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

    A minor of order k counts as positive when it exceeds
    ``P_MINOR_RTOL * (1 + ||A||_inf ** k)``; a nan minor fails.  On
    failure the witness is the lexicographically first failing index
    set.

    The minors are one :func:`pivotkit.core.minor_table` of A scaled by
    2**-e, where e is the binary exponent of ||A||_inf.  The scaling is
    exact, and the threshold is scaled by 2**(-e k) to match, so no power
    of the norm overflows however large A is.  The table's measured error
    is below 1e-12 of Hadamard's bound, which is at most ||A||_inf ** k;
    the threshold is 100 times that, so every minor further from the
    threshold than its error is classified right, small pivots included.
    The witness is read off the boolean mask of failing sets by strided
    views, one index a step, with no index array: the failing sets that
    hold the witness so far and whose next index lies j + 1 places on are
    every 2**(j+1)-th entry from 2**j of the current view.

    Cost is mostly the table's: O(2**n) time and a traced peak of
    23-30 MB at n = 20, built whole even when an early set fails.  On a
    shared 2-core x86 machine with one BLAS thread (default threads read
    the same within noise), fastest and median of repeated calls over
    three runs: a P-matrix takes 0.27-0.42 ms at n = 12, 2.8-3.8 ms at
    n = 17, 12-14 ms at n = 19 and 25-32 ms at n = 20; a uniform random
    matrix, whose sweep lifts small pivots, 0.39-0.63, 2.4-3.4, 15-17 and
    28-35 ms; a P-matrix with a negative first entry (an early witness)
    0.27-0.43, 2.7-4.1, 11.5-14 and 25-33 ms.  The search itself takes
    1.7-3.4 us on those uniform draws at n = 17-20, where 62-81 % of the
    sets fail.  It is slowest on a late witness, when only {n} fails
    and every view up to the last is read whole: 0.09, 0.27 and 0.53 ms
    at n = 17, 19 and 20.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    # ||A||_inf = norm * 2**e with norm in [0.5, 1), or 0 for A = 0
    norm, e = math.frexp(float(np.abs(a).sum(axis=1).max(initial=0.0)))
    table = core.minor_table(np.ldexp(a, -e))
    orders = np.arange(n + 1)
    with np.errstate(over="ignore"):
        limits = P_MINOR_RTOL * (np.ldexp(1.0, -e * orders) + norm ** orders)
    # each set's order in bitmask order: the sets with index k + 1 follow
    # the 2**k without it, one larger
    sizes = np.zeros(1 << n, dtype=np.intp)
    for k in range(n):
        np.add(sizes[:1 << k], 1, out=sizes[1 << k:2 << k])
    fails = ~(table > limits[sizes])
    if not fails.any():
        return ClassCertificate(True)
    view, witness, low = fails, [], 0
    while not view[0]:
        j = 0
        while not view[1 << j::2 << j].any():
            j += 1
        view = view[1 << j::2 << j]
        low += j + 1
        witness.append(low)
    return ClassCertificate(False, IndexSet(witness, n))


def is_z_matrix(a) -> bool:
    """True when every off-diagonal entry is <= 0."""
    a = core.as_matrix(a)
    np.fill_diagonal(a, 0.0)
    return bool((a <= 0.0).all())


def random_p_matrix(n: int, seed: int) -> np.ndarray:
    """A seeded strictly row diagonally dominant matrix with positive diagonal.

    Off-diagonal entries are uniform on [-1, 1]; each diagonal entry is
    the row's absolute off-diagonal sum plus a uniform(0.1, 1) margin.
    Such matrices are P (every principal submatrix keeps the dominance).
    """
    if int(n) != n or n < 1:
        raise ValueError(f"order must be an integer of at least 1, got {n!r}")
    n = int(n)
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
    x = _phase_one_feasible(core.as_matrix(a))
    return ClassCertificate(x is not None, x)


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
        # Bland: the first reduced cost below the rounding of its column's size
        floors = -_SIMPLEX_TOL * np.maximum(1.0, np.abs(tab[:n, :3 * n]).max(axis=0))
        below = np.flatnonzero(tab[n, :3 * n] < floors)
        if not below.size:
            objective = -tab[n, -1]
            if objective > _SIMPLEX_FEAS_TOL:
                return None
            xprime = np.zeros(n)
            for row, var in enumerate(basis):
                if var < n:
                    xprime[var] = max(0.0, tab[row, -1])
            return 1.0 + xprime
        entering = int(below[0])
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
        factors = tab[:, entering].copy()
        factors[leaving] = 0.0
        tab -= np.outer(factors, tab[leaving])
        basis[leaving] = entering
    raise FeasibilityUndecided(
        f"no verdict within {_SIMPLEX_MAX_PIVOTS} simplex pivots")


# ---------------------------------------------------------------------------
# orthogonal material

def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-ish orthogonal matrix: QR of a Gaussian draw with the
    R diagonal sign-normalized, so results are deterministic per seed."""
    if int(n) != n or n < 1:
        raise ValueError(f"order must be an integer of at least 1, got {n!r}")
    n = int(n)
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
