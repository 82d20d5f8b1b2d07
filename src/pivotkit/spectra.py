"""Eigenvalue theory of the principal pivot transform.

Characteristic polynomials come from two independent routes: a direct
trace recurrence on a formed matrix, and a signed principal-minor sum
that reads the transform's polynomial straight off the source matrix
without ever forming the transform.  Roots are extracted with a
simultaneous (Aberth-Ehrlich) iteration, so no iterative dense
eigensolver enters the main paths.

Polynomials are ascending coefficient arrays: ``p[k]`` multiplies
``lambda**k``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import core
from .errors import RootConvergenceError
from .indexing import IndexSet
from .pivot import BasicFactorization

__all__ = [
    "SpectrumResult", "poly_trim", "poly_degree", "poly_eval",
    "charpoly_direct", "ppt_charpoly", "roots", "eigenvalues",
    "pencil_eigenvalues", "diagonal_certificate", "singularity_check",
    "spectral_mismatch",
]

_ABERTH_TOL = 1e-12
_ABERTH_MAX_ITER = 500
_IMAG_SNAP_RTOL = 1e-9
_PAIR_MATCH_RTOL = 1e-6


@dataclass(eq=False)
class SpectrumResult:
    """Roots of a polynomial (eigenvalues of a matrix) with diagnostics.

    ``eigenvalues`` is sorted by (real, imag); ``residuals[i]`` is
    ``|p(eigenvalues[i])|`` against the original coefficients.
    """

    eigenvalues: np.ndarray
    spectral_radius: float
    residuals: np.ndarray


# ---------------------------------------------------------------------------
# polynomial helpers

def poly_trim(p) -> np.ndarray:
    """Drop trailing (highest-order) zero coefficients; all-zero -> empty."""
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    nz = np.nonzero(arr)[0]
    if len(nz) == 0:
        return arr[:0]
    return arr[:nz[-1] + 1].copy()


def poly_degree(p) -> int:
    """Degree after trimming; the zero polynomial has degree -1."""
    return len(poly_trim(p)) - 1


def poly_eval(p, z):
    """Evaluate at scalar or array ``z`` (Horner, ascending coefficients)."""
    return npoly.polyval(z, np.asarray(p))


# ---------------------------------------------------------------------------
# characteristic polynomials

def charpoly_direct(m) -> np.ndarray:
    """Monic characteristic polynomial det(lambda I - M) by trace recurrence.

    Division-free except for the 1/k coefficient scalings, so integer
    matrices give near-exact dyadic coefficients at desk scale.
    """
    m = core.as_matrix(m)
    n = m.shape[0]
    if n == 0:
        raise ValueError("characteristic polynomial needs order >= 1")
    c = np.zeros(n + 1)
    c[n] = 1.0
    ident = np.eye(n)
    t = np.zeros_like(m)
    for k in range(1, n + 1):
        acc = t + c[n - k + 1] * ident
        t = m @ acc
        c[n - k] = -np.trace(t) / k
    return c


def ppt_charpoly(a, alpha) -> np.ndarray:
    """Characteristic polynomial of ppt(a, alpha) from principal minors alone.

    Accumulates, over every subset beta, the signed term

        (-1)**|beta^c| * lambda**(|alpha| + |beta^c & alpha^c| - |beta^c & alpha|)
            * det A[beta]

    and normalizes by (-1)**|alpha^c| / det A[alpha].  The result is the
    monic characteristic polynomial of the transform, computed without
    forming it.  Only A[alpha] must be invertible.

    Cost is 2**n minor evaluations (guarded at n <= 20).
    """
    # the order and capacity checks come before any factorization
    n = core.as_matrix(a).shape[0]
    if n == 0:
        raise ValueError("characteristic polynomial needs order >= 1")
    core._check_enumeration(n)
    a, al, lup = core._pivot_block(a, alpha)
    det_block = 1.0 if lup is None else core._det_from_lu(*lup)
    table = core.minor_table(a)
    amask = al.bitmask()
    full = (1 << n) - 1
    shifts = np.arange(n)
    ka = len(al)
    coeffs = np.zeros(n + 1)
    chunk = core._CHUNK
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        masks = np.arange(start, stop, dtype=np.int64)
        comp = (~masks) & full
        bits = (comp[:, None] >> shifts) & 1
        pop_comp = bits.sum(axis=1)
        pop_in_alpha = (bits * ((amask >> shifts) & 1)).sum(axis=1)
        exps = ka + (pop_comp - 2 * pop_in_alpha)
        signs = np.where(pop_comp % 2 == 1, -1.0, 1.0)
        np.add.at(coeffs, exps, signs * table[start:stop])
    scale = (1.0 if (n - ka) % 2 == 0 else -1.0) / det_block
    return coeffs * scale


# ---------------------------------------------------------------------------
# root finding

def roots(p, *, tol: float = _ABERTH_TOL, max_iter: int = _ABERTH_MAX_ITER
          ) -> SpectrumResult:
    """All roots of ``p`` by simultaneous Aberth-Ehrlich iteration.

    Exact zero constant terms are deflated first (roots at the origin),
    the rest start on a circle of radius 1 + max |c_k / c_deg| and
    iterate until the largest correction falls below ``tol`` (relative).
    Real-coefficient input gets an enforced conjugate-pairing pass.

    Raises ``RootConvergenceError`` (with the best iterates attached)
    if the cap is hit or an iterate stops being finite, and ``ValueError``
    for degree < 1.  In the second case ``best`` holds the last finite
    iterates, and the error's ``__cause__`` names the iteration.
    """
    coeffs = poly_trim(p)
    if len(coeffs) < 2:
        raise ValueError("root finding needs degree >= 1")
    work = coeffs
    nzeros = 0
    while len(work) > 1 and work[0] == 0.0:
        work = work[1:]
        nzeros += 1
    monic = work / work[-1]
    deg = len(monic) - 1
    if deg == 0:
        z = np.zeros(0, dtype=complex)
    elif deg == 1:
        z = np.array([-monic[0]], dtype=complex)
    else:
        z = _aberth(monic, tol, max_iter)
    z = np.concatenate([z, np.zeros(nzeros, dtype=complex)])
    z = _enforce_conjugates(z)
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    residuals = np.abs(poly_eval(coeffs, z))
    radius = float(np.abs(z).max()) if len(z) else 0.0
    return SpectrumResult(eigenvalues=z, spectral_radius=radius,
                          residuals=residuals)


# overflow on the way to a non-finite iterate is caught in the loop
@np.errstate(all="ignore")
def _aberth(monic: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    deg = len(monic) - 1
    deriv = monic[1:] * np.arange(1, deg + 1)
    abs_coeffs = np.abs(monic)
    # a residual below the Horner roundoff bound cannot shrink further,
    # so treat such an approximation as fully converged
    noise = (2.0 * deg + 2.0) * np.finfo(float).eps
    radius = 1.0 + float(np.abs(monic[:-1]).max())
    angles = 2.0 * np.pi * (np.arange(deg) + 0.5) / deg + 0.4
    z = radius * np.exp(1j * angles)
    for it in range(1, max_iter + 1):
        pv = npoly.polyval(z, monic)
        frozen = np.abs(pv) <= noise * npoly.polyval(np.abs(z), abs_coeffs)
        if bool(frozen.all()):
            return z
        dv = npoly.polyval(z, deriv)
        stalled = ~frozen & (dv == 0)
        if np.any(stalled):
            z = np.where(stalled, z * (1.0 + 1e-8) + 1e-8j, z)
            continue
        w = np.where(frozen, 0.0, pv) / np.where(dv == 0, 1.0, dv)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1.0, denom)
        step = w / denom
        z_next = z - step
        # nan propagates through max: a nan iterate could never pass the
        # step test below
        size = float(np.abs(z_next).max())
        if not math.isfinite(size):
            raise RootConvergenceError(best=z) from FloatingPointError(
                f"non-finite Aberth iterate at iteration {it}")
        z = z_next
        if float(np.abs(step).max()) <= tol * (1.0 + size):
            return z
    raise RootConvergenceError(best=z)


def _enforce_conjugates(z: np.ndarray) -> np.ndarray:
    """Snap near-real roots to the axis and average conjugate partners."""
    z = np.array(z, dtype=complex)
    scale = 1.0 + np.abs(z)
    snap = np.abs(z.imag) <= _IMAG_SNAP_RTOL * scale
    z.imag[snap] = 0.0
    pos = [i for i in range(len(z)) if z[i].imag > 0]
    neg = [i for i in range(len(z)) if z[i].imag < 0]
    used: set[int] = set()
    for i in pos:
        best_j, best_d = -1, np.inf
        for j in neg:
            if j in used:
                continue
            d = abs(z[i] - np.conj(z[j]))
            if d < best_d:
                best_j, best_d = j, d
        if best_j >= 0 and best_d <= _PAIR_MATCH_RTOL * (1.0 + abs(z[i])):
            mean = 0.5 * (z[i] + np.conj(z[best_j]))
            z[i] = mean
            z[best_j] = np.conj(mean)
            used.add(best_j)
    return z


def eigenvalues(m) -> SpectrumResult:
    """Spectrum of a formed matrix: roots of its direct characteristic polynomial."""
    return roots(charpoly_direct(m))


def pencil_eigenvalues(fact: BasicFactorization) -> SpectrumResult:
    """Eigenvalues of the pencil C1 - lambda C2, i.e. the spectrum of C1 C2^-1.

    Reduces the pencil by the invertible factor and reuses the direct
    characteristic-polynomial route; the multiset equals the spectrum of
    the transform the factorization came from.
    """
    c2 = np.asarray(fact.c2, dtype=float)
    lup = core._lu_checked(c2, fact.pivot_set, "pivot-row factor")
    m = core._lu_solve(lup, np.asarray(fact.c1, dtype=float).T, trans=1).T
    return roots(charpoly_direct(m))


# ---------------------------------------------------------------------------
# certificates

def diagonal_certificate(a, alpha, lam) -> float:
    """|det(A - D(lam))| with d_i = 1/lam on alpha and lam elsewhere.

    Vanishes exactly at the nonzero eigenvalues of ppt(a, alpha) and is
    nonzero off them, giving an eigenvalue test that never forms the
    transform.  ``lam`` may be complex but must be nonzero.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    lam = complex(lam)
    if lam == 0:
        raise ValueError("the shift must be nonzero (1/lambda is required)")
    d = np.where(al.mask(), 1.0 / lam, lam)
    return float(abs(core._det_any(a - np.diag(d))))


def singularity_check(a, alpha) -> bool:
    """True when ppt(a, alpha) is singular, decided from A(alpha) alone.

    The transform is singular exactly when the complementary principal
    block is; tested as |det A(alpha)| <= 1e-10 * max(1, max|entry|)**order.
    Requires A[alpha] invertible (so the transform exists).
    """
    a, al, _ = core._pivot_block(a, alpha)
    q = al.complement().zero_based
    m = len(q)
    if m == 0:
        return False
    tail = a[np.ix_(q, q)]
    det = core.lu_determinant(tail)
    return bool(abs(det) <= 1e-10 * max(1.0, float(np.abs(tail).max())) ** m)


def spectral_mismatch(a, b) -> float:
    """Greedy minimal-distance multiset matching between two spectra.

    Repeatedly pairs the globally closest remaining values and returns
    the largest matched distance (0 for empty input).  Both inputs must
    have equal length.
    """
    av = list(np.asarray(a, dtype=complex))
    bv = list(np.asarray(b, dtype=complex))
    if len(av) != len(bv):
        raise ValueError("spectra must have equal length")
    worst = 0.0
    while av:
        best = (np.inf, 0, 0)
        for i, x in enumerate(av):
            for j, y in enumerate(bv):
                d = abs(x - y)
                if d < best[0]:
                    best = (d, i, j)
        worst = max(worst, best[0])
        av.pop(best[1])
        bv.pop(best[2])
    return float(worst)
