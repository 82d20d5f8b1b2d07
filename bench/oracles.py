"""Checks of pivotkit outputs, computed apart from pivotkit.

Each ``check_*`` function takes the inputs of one operation and the output
pivotkit produced, recomputes what the output must be (or a property it
must have) with numpy, scipy or mpmath, and either raises
:class:`CheckFailed` or returns the number of correct significant digits
of the output (capped at 16; ``None`` when the check is a pure property
with no reference value).  Nothing here imports pivotkit, and no check
compares against a stored copy of an earlier output.

Index sets are passed as sorted zero-based integer arrays.
"""
from __future__ import annotations

import math

import numpy as np

DIGITS_CAP = 16.0

#: The P-test threshold pivotkit documents: a principal minor of order k
#: counts as positive when it exceeds P_MINOR_RTOL * (1 + ||A||_inf ** k).
P_MINOR_RTOL = 1e-10

#: How far (as a factor) every scanned minor must sit from that threshold
#: for a P-test input to be usable; inputs are generated far from it.
P_MARGIN = 1e3

#: Relative tolerances: a wrong output is off by far more, a right one by
#: rounding on the well-conditioned inputs the workloads generate.
MATRIX_RTOL = 1e-9
SPECTRUM_RTOL = 1e-6
RADIUS_RTOL = 1e-6
PRINTED_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output disagreed with its independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digits(err: float) -> float:
    """Correct significant digits for a relative error, capped at 16."""
    if not math.isfinite(err):
        return 0.0
    if err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return max(0.0, min(DIGITS_CAP, -math.log10(err)))


def rel_err(x, ref) -> float:
    """Max-norm error of ``x`` relative to the max-norm of ``ref``."""
    x = np.asarray(x)
    ref = np.asarray(ref)
    require(x.shape == ref.shape, f"shape {x.shape} != expected {ref.shape}")
    require(bool(np.all(np.isfinite(x))), "output has non-finite entries")
    if ref.size == 0:
        return 0.0
    scale = max(float(np.abs(ref).max()), np.finfo(float).tiny)
    return float(np.abs(x - ref).max()) / scale


def _close(x, ref, rtol: float, what: str) -> float:
    err = rel_err(x, ref)
    require(err <= rtol, f"{what}: relative error {err:.3e} > {rtol:.0e}")
    return digits(err)


def complement(p, n: int) -> np.ndarray:
    return np.setdiff1d(np.arange(n), p)


# ---------------------------------------------------------------------------
# transforms, Schur complements, determinants, inverses

def transform(a: np.ndarray, p) -> np.ndarray:
    """ppt(A, p) from the block formulas, with np.linalg.solve."""
    n = a.shape[0]
    p = np.asarray(p, dtype=np.intp)
    q = complement(p, n)
    k = len(p)
    if k == 0:
        return a.copy()
    app = a[np.ix_(p, p)]
    apq = a[np.ix_(p, q)]
    aqp = a[np.ix_(q, p)]
    aqq = a[np.ix_(q, q)]
    x = np.linalg.solve(app, np.hstack([np.eye(k), apq]))   # A[p]^-1 [I, A[p,q]]
    out = np.empty_like(a)
    out[np.ix_(p, p)] = x[:, :k]
    out[np.ix_(p, q)] = -x[:, k:]
    out[np.ix_(q, p)] = aqp @ x[:, :k]
    out[np.ix_(q, q)] = aqq - aqp @ x[:, k:]
    return out


def exchange_residual(a: np.ndarray, p, b: np.ndarray) -> float:
    """Relative residual of B u = v for y = A x, the exchange the transform realises."""
    n = a.shape[0]
    x = np.cos(np.arange(1, n + 1))             # any fixed vector will do
    y = a @ x
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(p, dtype=np.intp)] = True
    u = np.where(mask, y, x)
    v = np.where(mask, x, y)
    scale = float(np.abs(b).sum(axis=1).max()) * float(np.abs(u).max()) \
        + float(np.abs(v).max())
    return float(np.abs(b @ u - v).max()) / scale


def check_ppt(a: np.ndarray, p, out) -> float:
    out = np.asarray(out)
    d = _close(out, transform(a, p), MATRIX_RTOL, "ppt")
    res = exchange_residual(a, p, out)
    require(res <= MATRIX_RTOL, f"ppt: exchange residual {res:.3e}")
    return d


def check_schur(a: np.ndarray, p, out) -> float:
    n = a.shape[0]
    p = np.asarray(p, dtype=np.intp)
    q = complement(p, n)
    ref = a[np.ix_(q, q)] - a[np.ix_(q, p)] @ np.linalg.solve(
        a[np.ix_(p, p)], a[np.ix_(p, q)])
    return _close(out, ref, MATRIX_RTOL, "schur_complement")


def check_ppt_det(a: np.ndarray, p, out) -> float:
    n = a.shape[0]
    p = np.asarray(p, dtype=np.intp)
    q = complement(p, n)
    sq, lq = np.linalg.slogdet(a[np.ix_(q, q)]) if len(q) else (1.0, 0.0)
    sp, lp = np.linalg.slogdet(a[np.ix_(p, p)]) if len(p) else (1.0, 0.0)
    require(sp != 0, "ppt_det: reference pivot block is singular")
    ref = float(sq * sp) * math.exp(lq - lp)
    out = float(out)
    require(math.isfinite(out), f"ppt_det: non-finite output {out}")
    err = abs(out - ref) / abs(ref)
    require(err <= MATRIX_RTOL, f"ppt_det: relative error {err:.3e}")
    return digits(err)


def check_inverse(a: np.ndarray, out) -> float:
    """Residual ||A X - I|| and agreement with np.linalg.inv."""
    out = np.asarray(out)
    require(out.shape == a.shape, f"inverse: shape {out.shape}")
    require(bool(np.all(np.isfinite(out))), "inverse: non-finite entries")
    n = a.shape[0]
    res = float(np.abs(a @ out - np.eye(n)).max()) / (
        float(np.abs(a).sum(axis=1).max()) * float(np.abs(out).max()))
    require(res <= MATRIX_RTOL, f"inverse: residual {res:.3e}")
    return _close(out, np.linalg.inv(a), MATRIX_RTOL, "inverse")


def predicted_sweep_flops(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6 - 1


def check_flops(n: int, count) -> None:
    want = predicted_sweep_flops(n)
    require(count == want, f"flop count {count} != n(n+1)(2n+1)/6 - 1 = {want}")


# ---------------------------------------------------------------------------
# spectra

def pair_spectra(got, ref) -> float:
    """Largest distance between two spectra paired by optimal assignment,
    relative to max(1, spectral radius)."""
    from scipy.optimize import linear_sum_assignment

    got = np.asarray(got, dtype=complex).reshape(-1)
    ref = np.asarray(ref, dtype=complex).reshape(-1)
    require(got.shape == ref.shape,
            f"spectrum has {got.size} values, expected {ref.size}")
    require(bool(np.all(np.isfinite(got))), "spectrum has non-finite values")
    cost = np.abs(got[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    scale = max(1.0, float(np.abs(ref).max()))
    return float(cost[rows, cols].max()) / scale


def check_spectrum(got, matrix: np.ndarray, radius=None) -> float:
    """Compare eigenvalues (and optionally the reported radius) with
    np.linalg.eigvals of a matrix formed in numpy."""
    ref = np.linalg.eigvals(matrix)
    err = pair_spectra(got, ref)
    require(err <= SPECTRUM_RTOL, f"spectrum: paired error {err:.3e}")
    if radius is not None:
        rerr = abs(float(radius) - float(np.abs(ref).max())) / max(
            1.0, float(np.abs(ref).max()))
        require(rerr <= SPECTRUM_RTOL, f"spectral radius: error {rerr:.3e}")
        err = max(err, rerr)
    return digits(err)


def mp_transform_spectrum(a: np.ndarray, p, dps: int = 30) -> np.ndarray:
    """Eigenvalues of ppt(A, p), the transform formed and solved in mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        n = a.shape[0]
        p = [int(i) for i in p]
        q = [int(i) for i in complement(p, n)]
        m = mpmath.matrix(a.tolist())
        b = mpmath.matrix(n, n)
        if p:
            app = mpmath.matrix([[m[i, j] for j in p] for i in p])
            inv = app ** -1
            for r, i in enumerate(p):
                for c, j in enumerate(p):
                    b[i, j] = inv[r, c]
            for r, i in enumerate(p):
                for j in q:
                    b[i, j] = -mpmath.fsum(inv[r, c] * m[p[c], j]
                                           for c in range(len(p)))
            for i in q:
                for c, j in enumerate(p):
                    b[i, j] = mpmath.fsum(m[i, p[r]] * inv[r, c]
                                          for r in range(len(p)))
            for i in q:
                for j in q:
                    b[i, j] = m[i, j] - mpmath.fsum(b[i, pk] * m[pk, j]
                                                    for pk in p)
        else:
            b = m
        ev = mpmath.eig(b, left=False, right=False)
        return np.array([complex(z) for z in ev])


def check_printed_spectrum(coeffs, roots, radius, ref_eigs) -> float:
    """``pivotkit eig`` output against a high-precision spectrum.

    The printed roots must pair with ``ref_eigs``; the printed monic
    coefficients must be those of the polynomial with roots ``ref_eigs``;
    the printed radius must be the largest modulus.
    """
    ref_eigs = np.asarray(ref_eigs, dtype=complex)
    err = pair_spectra(roots, ref_eigs)
    require(err <= PRINTED_RTOL, f"eig roots: paired error {err:.3e}")
    ref_coeffs = np.poly(ref_eigs).real[::-1]        # ascending, monic
    cerr = rel_err(np.asarray(coeffs, dtype=float), ref_coeffs)
    require(cerr <= PRINTED_RTOL, f"eig coefficients: error {cerr:.3e}")
    rho = float(np.abs(ref_eigs).max())
    rerr = abs(float(radius) - rho) / max(1.0, rho)
    require(rerr <= PRINTED_RTOL, f"eig radius: error {rerr:.3e}")
    return digits(max(err, cerr, rerr))


# ---------------------------------------------------------------------------
# principal minors and the P-test

_CHUNK = 4096


def minors_of(a: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """det A[S] for each nonempty subset bitmask S, from np.linalg.det."""
    n = a.shape[0]
    bits = (masks[:, None] >> np.arange(n)) & 1
    sizes = bits.sum(axis=1)
    out = np.empty(len(masks))
    for k in np.unique(sizes):
        rows = np.nonzero(sizes == k)[0]
        idx = np.nonzero(bits[rows])[1].reshape(len(rows), k)
        out[rows] = np.linalg.det(a[idx[:, :, None], idx[:, None, :]])
    return out


def minor_table(a: np.ndarray) -> np.ndarray:
    """det A[S] for every subset S, indexed by bitmask."""
    n = a.shape[0]
    table = np.empty(1 << n)
    table[0] = 1.0
    for start in range(1, 1 << n, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        table[masks] = minors_of(a, masks)
    return table


def hadamard_scale(a: np.ndarray) -> np.ndarray:
    """Hadamard's bound prod_{i in S} ||row i||_2 for every subset S."""
    n = a.shape[0]
    norms = np.linalg.norm(a, axis=1)
    masks = np.arange(1 << n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n)) & 1
    return np.where(bits == 1, norms, 1.0).prod(axis=1)


def check_minor_table(a: np.ndarray, out) -> float:
    """Every entry against numpy's determinant, relative to Hadamard's bound."""
    out = np.asarray(out)
    n = a.shape[0]
    require(out.shape == (1 << n,), f"minor table shape {out.shape}")
    require(bool(np.all(np.isfinite(out))), "minor table has non-finite entries")
    err = float((np.abs(out - minor_table(a)) / hadamard_scale(a)).max())
    require(err <= MATRIX_RTOL, f"minor table: scaled error {err:.3e}")
    return digits(err)


def lex_order(n: int) -> np.ndarray:
    """Bitmasks of the nonempty subsets of {1..n}, in lexicographic order of
    their ascending index tuples: (1), (1,2), (1,2,3), ..., (n)."""
    order = np.zeros(0, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        bit = np.int64(1) << i
        order = np.concatenate([[bit], bit | order, order])
    return order


def lex_rank(indices, n: int) -> int:
    """1-based position of a nonempty 1-based index tuple in lex_order(n)."""
    rank = 0
    prev = 0
    for i in indices:
        # skip the subsets starting with prev+1..i-1 (after the prefix)
        for j in range(prev + 1, i):
            rank += 1 << (n - j)
        rank += 1
        prev = i
    return rank


def p_scan(a: np.ndarray):
    """Brute-force P-test: (verdict, 1-based witness tuple or None, minors used).

    Scans the minors in lexicographic order of index sets, as the P-test
    documents, and stops at the first one not above the threshold.  Raises
    CheckFailed if a scanned minor sits within P_MARGIN of the threshold
    (the input is then too close to call).
    """
    n = a.shape[0]
    order = lex_order(n)
    norm = float(np.abs(a).sum(axis=1).max())
    for start in range(0, len(order), _CHUNK):
        masks = order[start:start + _CHUNK]
        sizes = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
        thresh = P_MINOR_RTOL * (1.0 + norm ** sizes.astype(float))
        minors = minors_of(a, masks)
        failing = np.nonzero(minors <= thresh)[0]
        stop = int(failing[0]) if failing.size else len(masks)
        require(bool(np.all(minors[:stop] >= P_MARGIN * thresh[:stop])),
                "P-test input has a minor near the threshold")
        if failing.size:
            require(minors[stop] <= -thresh[stop],
                    "P-test input has a minor near the threshold")
            witness = tuple(i + 1 for i in range(n) if int(masks[stop]) >> i & 1)
            return False, witness, start + stop + 1
    return True, None, len(order)


def check_p_test(a: np.ndarray, verdict: bool, witness) -> None:
    want, want_witness, _ = p_scan(a)
    require(bool(verdict) == want, f"P verdict {verdict}, expected {want}")
    if not want:
        got = None if witness is None else tuple(int(i) for i in witness)
        require(got == want_witness,
                f"P witness {got}, expected the lexicographically first "
                f"failing set {want_witness}")


def check_z(a: np.ndarray, verdict: bool) -> None:
    off = a - np.diag(np.diag(a))
    want = bool((off <= 0.0).all())
    require(bool(verdict) == want, f"Z verdict {verdict}, expected {want}")


def check_semipositive(a: np.ndarray, verdict: bool, witness) -> None:
    """A True verdict must carry x > 0 with A x > 0; a False one is
    confirmed infeasible by scipy's linprog on {x >= 1, A x >= 1}."""
    if verdict:
        x = np.asarray(witness, dtype=float)
        require(x.shape == (a.shape[0],), f"semipositive witness shape {x.shape}")
        require(bool(np.all(x > 0)), "semipositive witness has x_i <= 0")
        require(bool(np.all(a @ x > 0)), "semipositive witness has (Ax)_i <= 0")
        return
    from scipy.optimize import linprog

    n = a.shape[0]
    res = linprog(np.zeros(n), A_ub=-a, b_ub=-np.ones(n),
                  bounds=[(1.0, None)] * n, method="highs")
    require(res.status == 2, "semipositive verdict False, but linprog finds "
                             "x >= 1 with A x >= 1")


# ---------------------------------------------------------------------------
# pivot-set search, iteration, S-orthogonality

def radius(t: np.ndarray, p) -> float:
    return float(np.abs(np.linalg.eigvals(transform(t, p))).max())


def _usable_block(t: np.ndarray, p) -> bool:
    if len(p) == 0:
        return True
    return np.linalg.cond(t[np.ix_(p, p)]) < 1e10


def check_exhaustive(t: np.ndarray, alpha, rho) -> float:
    """The reported set attains the smallest radius over every subset."""
    import itertools

    n = t.shape[0]
    alpha = np.asarray(alpha, dtype=np.intp)
    best = radius(t, [])
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if _usable_block(t, combo):
                best = min(best, radius(t, combo))
    own = radius(t, alpha)
    err = abs(float(rho) - own) / max(1.0, own)
    require(err <= RADIUS_RTOL, f"exhaustive: reported radius {rho} but the "
                                f"set's radius is {own}")
    require(own <= best + RADIUS_RTOL * max(1.0, best),
            f"exhaustive: radius {own} above the minimum {best}")
    return digits(err)


def check_greedy(t: np.ndarray, alpha, rho) -> float:
    """Stopping property: the set's radius matches the report, is no worse
    than the empty set's, and no single added index improves it."""
    n = t.shape[0]
    alpha = sorted(int(i) for i in alpha)
    own = radius(t, alpha)
    err = abs(float(rho) - own) / max(1.0, own)
    require(err <= RADIUS_RTOL, f"greedy: reported radius {rho} but the "
                                f"set's radius is {own}")
    require(own <= radius(t, []) + RADIUS_RTOL * max(1.0, own),
            "greedy: result worse than the empty set")
    if len(alpha) < n:
        for i in range(n):
            if i in alpha:
                continue
            cand = sorted(alpha + [i])
            if _usable_block(t, cand):
                r = radius(t, cand)
                require(r >= own - RADIUS_RTOL * max(1.0, own),
                        f"greedy: adding index {i + 1} lowers the radius "
                        f"from {own} to {r}")
    return digits(err)


def check_solution(a: np.ndarray, b: np.ndarray, x, tol: float) -> float:
    """Backward residual within 10 tol ||b|| and agreement with np.linalg.solve."""
    x = np.asarray(x, dtype=float)
    require(x.shape == b.shape, f"solution shape {x.shape}")
    res = float(np.abs(a @ x - b).max())
    bound = 10.0 * tol * float(np.abs(b).max())
    require(res <= bound, f"solve: backward residual {res:.3e} > {bound:.3e}")
    return _close(x, np.linalg.solve(a, b), 1e3 * tol, "solve")


def _s_orthogonality(signs: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """(||Q^T S Q - S||_max, the scale it is judged against)."""
    s = np.diag(signs)
    res = float(np.abs(q.T @ s @ q - s).max())
    return res, max(1.0, float(np.abs(q).max()) ** 2) * q.shape[0]


def check_s_orthogonal(signs: np.ndarray, q) -> None:
    res, scale = _s_orthogonality(signs, np.asarray(q, dtype=float))
    require(res <= 1e-10 * scale, f"sorth: ||Q^T S Q - S|| = {res:.3e}")


def check_s_orthogonal_residual(signs: np.ndarray, q, printed: float) -> None:
    """The residual ``pivotkit sorth`` prints is the one of the Q it printed
    (both are rounding-level, so they agree to a few ulps of the scale)."""
    res, scale = _s_orthogonality(signs, np.asarray(q, dtype=float))
    require(abs(printed - res) <= 1e-13 * scale,
            f"sorth printed residual {printed:.3e}, recomputed {res:.3e}")
