"""Eigenvalue theory of the principal pivot transform.

Characteristic polynomials come from two independent routes: La
Budde's recurrence on the Hessenberg form of a formed matrix, and a
signed principal-minor sum that reads the transform's polynomial
straight off the source matrix without ever forming the transform.
Roots are extracted with a simultaneous (Aberth-Ehrlich) iteration
started from the Newton polygon of the coefficients, so no iterative
dense eigensolver enters the main paths.  The one exception is the
ranking pass of :func:`pivotkit.solver.select_alpha`, which orders
candidate pivot sets by LAPACK's ``eigvals`` and computes the reported
radius by this route.

Polynomials are ascending coefficient arrays: ``p[k]`` multiplies
``lambda**k``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import core
from ._lapack import flapack
from .errors import RootConvergenceError, SingularBlockError
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
    """Monic characteristic polynomial det(lambda I - M) by La Budde's method.

    M is reduced to upper Hessenberg form H by LAPACK's ``dgehrd``
    (Householder similarities), and La Budde's recurrence builds the
    characteristic polynomials of H's leading blocks one order at a time
    (Rehman & Ipsen, arXiv:1104.3769):

        p_i = (lambda - h_ii) p_(i-1)
              - sum_(j<i) h_ji h_(j+1,j) ... h_(i,i-1) p_(j-1),

    O(n**3) in all.  On uniform(-1, 1) draws (5 per order, against the
    exact polynomial) the largest coefficient error stays below 1e-14
    of the largest coefficient at n = 40 and 80.
    """
    m = core.as_matrix(m)
    n = m.shape[0]
    if n == 0:
        raise ValueError("characteristic polynomial needs order >= 1")
    # H sits on and above the first subdiagonal; the reflectors below are
    # never read
    h = flapack.dgehrd(m)[0]
    sub = np.diagonal(h, -1)
    # row i holds the ascending coefficients of p_i
    p = np.zeros((n + 1, n + 1))
    p[0, 0] = 1.0
    # an overflowing recurrence leaves non-finite coefficients, which
    # roots() rejects with RootConvergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            w = h[:i, i] * np.cumprod(sub[:i][::-1])[::-1]
            p[i + 1, 1:i + 2] = p[i, :i + 1]
            p[i + 1, :i + 1] -= h[i, i] * p[i, :i + 1] + w @ p[:i, :i + 1]
    return p[n]


def ppt_charpoly(a, alpha) -> np.ndarray:
    """Characteristic polynomial of ppt(a, alpha) from principal minors alone.

    Accumulates, over every subset beta, the signed term

        (-1)**|beta^c| * lambda**(|alpha| + |beta^c & alpha^c| - |beta^c & alpha|)
            * det A[beta]

    and normalizes by (-1)**|alpha^c| / det A[alpha].  The result is the
    monic characteristic polynomial of the transform, computed without
    forming it.  Only A[alpha] must be invertible.

    The minors come from :func:`pivotkit.core.minor_table` (guarded at
    n <= 20): one Schur-complement sweep in O(2**n) time whatever the
    pivots.  On the test suite's matrix families they stay within 1e-12
    of Hadamard's bound of the exact minors.
    """
    # the order and capacity checks come before any factorization
    n = core.as_matrix(a).shape[0]
    if n == 0:
        raise ValueError("characteristic polynomial needs order >= 1")
    core._check_enumeration(n)
    a, al, lup = core._pivot_block(a, alpha)
    mantissa, exponent = (1.0, 0) if lup is None else core._scaled_det_from_lu(*lup)
    # exponents in bitmask order (a set without index k has k in beta^c);
    # the sign (-1)**|beta^c| = (-1)**(exponent - |alpha|) is per coefficient
    exps = np.empty(1 << n, dtype=np.intp)
    exps[0] = len(al)
    for k, inside in enumerate(al.mask()):
        exps[1 << k:2 << k] = exps[:1 << k]
        exps[:1 << k] += -1 if inside else 1
    coeffs = np.bincount(exps, weights=core._minor_table(a), minlength=n + 1)
    return np.ldexp(coeffs * ((-1.0) ** (n - np.arange(n + 1)) / mantissa), -exponent)


# ---------------------------------------------------------------------------
# root finding

def roots(p) -> SpectrumResult:
    """All roots of ``p`` by simultaneous Aberth-Ehrlich iteration.

    Exact zero constant terms are deflated first (roots at the origin).
    The rest start on the circles of the Newton polygon of the
    coefficients (see ``_start``), so each root starts near its own
    modulus, and iterate until the largest correction falls below 1e-12
    (relative).  An iteration evaluates p, p' and the Horner roundoff
    bound in one stacked Horner pass, bit for bit what three ``polyval``
    calls give.  An iterate stops moving once |p(z)| has been within a
    finite roundoff bound at two iterations in a row; where the bound
    overflows (z**deg past the float range, see ``_aberth``) it keeps
    iterating and usually raises.  Real-coefficient input gets an
    enforced conjugate-pairing pass.

    Raises ``RootConvergenceError`` (with the best iterates attached)
    for a coefficient that is not finite once divided by the leading
    one (every ``best`` entry nan), after 500 iterations, or once an
    iterate stops being finite, and ``ValueError`` for degree < 1.  In
    the last case ``best`` holds the last finite iterates, and the
    error's ``__cause__`` names the iteration.
    """
    coeffs = poly_trim(p)
    if len(coeffs) < 2:
        raise ValueError("root finding needs degree >= 1")
    work = coeffs
    nzeros = 0
    while len(work) > 1 and work[0] == 0.0:
        work = work[1:]
        nzeros += 1
    with np.errstate(over="ignore", invalid="ignore"):
        monic = work / work[-1]
    deg = len(monic) - 1
    if not np.isfinite(monic).all():
        raise RootConvergenceError(best=np.full(deg, np.nan, dtype=complex)) \
            from FloatingPointError("non-finite polynomial coefficient")
    if deg == 0:
        z = np.zeros(0, dtype=complex)
    elif deg == 1:
        z = np.array([-monic[0]], dtype=complex)
    else:
        z = _aberth(monic, _ABERTH_TOL, _ABERTH_MAX_ITER)
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
    """Aberth-Ehrlich iterates for a monic polynomial of degree >= 2.

    Each iteration evaluates p(z), p'(z) and the Horner roundoff bound
    sum |c_k| |z|**k in one stacked Horner pass: per degree, highest
    first, a (3, deg) accumulator is multiplied in place by the points
    (rows z, z and |z|) and gains a (3, 1) column of coefficients of p,
    p' and |p| (p' has one degree less, so its first column is 0).
    These are the float operations of ``npoly.polyval``, in its order;
    on the real bound row (a + 0j)(b + 0j) has real part a*b exactly,
    so every iterate keeps the bits of three ``polyval`` calls as long
    as the bound stays finite (past an overflow it turns to nan, not
    inf).  An iterate is frozen once |p(z)| is within a finite roundoff
    bound at two iterations in a row (an overflowed bound says nothing
    about convergence): the first point inside can lie anywhere in the
    roundoff region, up to (2 deg + 2) eps sum |c_k| |z|**k / |p'(z)|
    from the root, and one more correction from there lands far closer.
    An iterate inside the region with p'(z) exactly zero is frozen at
    once; one outside it gets the stall nudge.  A step that throws an
    iterate past Fujiwara's radius 2 max_k |c_k|**(1 / (deg - k)),
    which bounds every root's modulus, is pulled back onto that circle
    before z**deg can overflow.
    """
    deg = len(monic) - 1
    deriv = monic[1:] * np.arange(1, deg + 1)
    # one Horner column per degree, highest first: p, p' (padded) and |p|
    cols = np.empty((deg + 1, 3, 1), dtype=complex)
    cols[::-1, 0, 0] = monic
    cols[::-1, 1, 0] = np.append(deriv, 0.0)
    cols[::-1, 2, 0] = np.abs(monic)
    # a residual below the Horner roundoff bound cannot shrink further
    noise = (2.0 * deg + 2.0) * np.finfo(float).eps
    radius = 2.0 * float((np.abs(monic[:-1]) ** (1.0 / np.arange(deg, 0, -1))).max())
    z = _start(monic)
    was_inside = np.zeros(deg, dtype=bool)
    x = np.empty((3, deg), dtype=complex)
    acc = np.empty((3, deg), dtype=complex)
    pv, dv, bound = acc[0], acc[1], acc[2].real
    for it in range(1, max_iter + 1):
        x[:2] = z
        x[2] = np.abs(z)
        acc[...] = cols[0]
        for col in cols[1:]:
            acc *= x
            acc += col
        inside = (np.abs(pv) <= noise * bound) & (bound < np.inf)
        frozen = inside & was_inside
        was_inside = inside
        if frozen.all():
            return z
        divisor = dv
        if not dv.all():
            stalled = ~inside & (dv == 0)
            if stalled.any():
                z = np.where(stalled, z * (1.0 + 1e-8) + 1e-8j, z)
                continue
            frozen |= dv == 0
            divisor = np.where(dv == 0, 1.0, dv)
        w = np.where(frozen, 0.0, pv) / divisor
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
        # no root lies outside the radius; far past it z**deg overflows
        if size > radius:
            mod = np.abs(z_next)
            z_next = np.where(mod > radius, z_next * (radius / mod), z_next)
        z = z_next
        if float(np.abs(step).max()) <= tol * (1.0 + size):
            return z
    raise RootConvergenceError(best=z)


def _start(monic: np.ndarray) -> np.ndarray:
    """Aberth start points from the Newton polygon of the coefficients.

    Over the points (k, log|c_k|) of the nonzero coefficients, each edge
    of the upper convex hull from i to j carries j - i points on the
    circle of radius (|c_i| / |c_j|)**(1 / (j - i)), at the angles
    2 pi (m / (j - i) + i / deg) + 0.7 (Bini, Numer. Algorithms 13,
    1996).  The coefficients must be finite and the constant term
    nonzero, as ``roots`` leaves them.  A radius that underflows to 0 is
    raised to the smallest normal float: 0 is never a root here.
    """
    deg = len(monic) - 1
    ks = np.flatnonzero(monic)
    hull: list[tuple[int, float]] = []
    for k, y in zip(ks.tolist(), np.log(np.abs(monic[ks])).tolist()):
        # drop the last vertex while it lies on or below the chord to (k, y)
        while len(hull) > 1 and ((hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])
                                  <= (y - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append((k, y))
    ends, logs = np.array(hull).T
    widths = np.diff(ends).astype(np.intp)
    radii = np.maximum(np.exp(-np.diff(logs) / widths), np.finfo(float).tiny)
    first = np.repeat(ends[:-1], widths)
    width = np.repeat(widths, widths)
    angles = 2.0 * np.pi * ((np.arange(deg) - first) / width + first / deg) + 0.7
    return np.repeat(radii, widths) * np.exp(1j * angles)


def _enforce_conjugates(z: np.ndarray) -> np.ndarray:
    """Snap near-real roots to the axis and average conjugate partners.

    In index order, each root above the axis takes as partner the root
    below it, not yet taken, whose conjugate is nearest (the first on a
    tie), when that distance is within 1e-6 of 1 + |root|.  One distance
    matrix serves every root; a taken partner's column is set to inf.
    """
    z = np.array(z, dtype=complex)
    scale = 1.0 + np.abs(z)
    snap = np.abs(z.imag) <= _IMAG_SNAP_RTOL * scale
    z.imag[snap] = 0.0
    pos = np.flatnonzero(z.imag > 0)
    neg = np.flatnonzero(z.imag < 0)
    if not len(neg):
        return z
    dist = np.abs(z[pos, None] - z[neg].conj())
    limit = _PAIR_MATCH_RTOL * (1.0 + np.abs(z[pos]))
    cols = np.empty(len(pos), dtype=np.intp)
    ok = np.empty(len(pos), dtype=bool)
    for r, row in enumerate(dist):
        cols[r] = c = row.argmin()
        ok[r] = row[c] <= limit[r]
        if ok[r]:
            dist[:, c] = np.inf
    i, j = pos[ok], neg[cols[ok]]
    mean = 0.5 * (z[i] + z[j].conj())
    z[i] = mean
    z[j] = mean.conj()
    return z


def eigenvalues(m) -> SpectrumResult:
    """Spectrum of a formed matrix: roots of its direct characteristic polynomial.

    Measured against LAPACK's ``eigvals`` on uniform(-1, 1) draws (seeds
    [n, d, 9]; 10 per order at n = 50, 75, 180, 190 and 200, 30 at
    n = 100, 125, 150, 160 and 170), the median matched error is 3e-15
    to 9e-15 of max(1, spectral radius) and the largest 1.6e-13
    (n = 125).  Every draw returned up to n = 220 (5 draws each at
    n = 210 and 220).  At n = 240 and 260, 3 and 4 of 5 draws raise
    ``RootConvergenceError``: z**n overflows in the Horner pass, at the
    largest start points or on Fujiwara's circle, where an iterate
    thrown far out is put back.
    """
    return roots(charpoly_direct(m))


def pencil_eigenvalues(fact: BasicFactorization) -> SpectrumResult:
    """Eigenvalues of the pencil C1 - lambda C2, i.e. the spectrum of C1 C2^-1.

    Reduces the pencil by the invertible factor and reuses the direct
    characteristic-polynomial route; the multiset equals the spectrum of
    the transform the factorization came from.  C2's rows off alpha are
    identity rows, so C2 is invertible exactly when C2[alpha] = A[alpha]
    is: the pivot test runs on that block, as :func:`pivotkit.pivot.ppt`
    runs it, and C2 is then factored whole for the solve.
    """
    c2 = np.asarray(fact.c2, dtype=float)
    if not c2.size:
        raise ValueError("characteristic polynomial needs order >= 1")
    al = fact.pivot_set
    if al:
        p = al.zero_based
        core._lu_checked(c2[p[:, None], p], al, "pivot-row factor")
    m = core._lu_solve(core._lu_factor(c2), np.asarray(fact.c1, dtype=float).T,
                       trans=1).T
    return roots(charpoly_direct(m))


# ---------------------------------------------------------------------------
# certificates

def diagonal_certificate(a, alpha, lam) -> float:
    """|det(A - D(lam))| with d_i = 1/lam on alpha and lam elsewhere.

    Vanishes exactly at the nonzero eigenvalues of ppt(a, alpha) and is
    nonzero off them, giving an eigenvalue test that never forms the
    transform.  ``lam`` may be complex; it and 1/lam must be finite.
    """
    a = core.as_matrix(a)
    n = a.shape[0]
    al = IndexSet.coerce(alpha, n)
    lam = complex(lam)
    if lam == 0 or not (cmath.isfinite(lam) and cmath.isfinite(1.0 / lam)):
        raise ValueError("the shift must be nonzero and finite with 1/lambda "
                         f"finite, got {lam}")
    d = np.where(al.mask(), 1.0 / lam, lam)
    return float(abs(np.linalg.det(a - np.diag(d))))


def singularity_check(a, alpha) -> bool:
    """True when ppt(a, alpha) is singular, decided from A(alpha) alone.

    The transform is singular exactly when the complementary principal
    block is; True exactly when A(alpha) fails the pivot test, as
    :func:`pivotkit.pivot.ppt_inverse` applies it.  Requires A[alpha] to
    pass the pivot test (so the transform exists).
    """
    a, al, _ = core._pivot_block(a, alpha)
    comp = al.complement()
    try:
        if comp:
            q = comp.zero_based
            core._lu_checked(a[q[:, None], q], comp)
    except SingularBlockError:
        return True
    return False


def spectral_mismatch(a, b) -> float:
    """Greedy minimal-distance multiset matching between two spectra.

    Repeatedly pairs the globally closest remaining values, ties to the
    first in row-major order, and returns the largest matched distance
    (0 for empty input).  Both inputs must have equal length.
    """
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if len(av) != len(bv):
        raise ValueError("spectra must have equal length")
    diff = av[:, None] - bv[None, :]
    dist = np.hypot(diff.real, diff.imag)  # abs() to the bit; np.abs need not be
    dist[np.isnan(dist)] = np.inf  # a nan distance never pairs first
    worst = 0.0
    for _ in range(len(av)):
        i, j = divmod(int(dist.argmin()), len(bv))
        worst = max(worst, dist[i, j])
        dist[i] = dist[:, j] = np.inf
    return float(worst)
