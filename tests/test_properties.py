"""The paper's identities as deterministic hypothesis properties.

Draws are matrices of order 1-6 (1-8 for the spectral routes) whose
entries are 0 or of magnitude 1e-3 to 8, times a common scale of 1e-4,
1 or 1e4, with random pivot sets.  Examples come from the derandomized
profile in ``conftest.py``.

Tolerance rule: each property allows ``SLACK * n * eps * kappa * size``,
where kappa sums, over the pivots the computation makes, the pivoted
matrix's 2-norm over its block's smallest singular value (times the
2-norm condition numbers of whole matrices whose determinant is
compared), and size is the magnitude of the quantities compared
(largest entry, determinant or Hadamard product).  A draw whose
block fails the package pivot test has no transform to check, and
``reject``/``assume`` exclude it.  The P-test property also excludes
draws with a principal minor within a factor 1e3 of the P-test's
threshold, where the threshold and not the sign decides the verdict.
"""
from math import comb

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import assume, given, reject  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from pivotkit import (  # noqa: E402
    IndexSet,
    SingularBlockError,
    basic_factorization,
    charpoly_direct,
    exchange_vectors,
    is_p_matrix,
    lu_determinant,
    minor_table,
    pencil_eigenvalues,
    ppt,
    ppt_charpoly,
    ppt_det,
    schur_complement,
    singularity_check,
)
from pivotkit.classify import P_MINOR_RTOL  # noqa: E402

EPS = np.finfo(float).eps

# every ratio of error to the rule's bound stayed below 0.9 over 2e4
# seeded uniform, small-integer, row-scaled and near-singular draws
SLACK = 10.0

_entries = st.one_of(st.just(0.0), st.floats(1e-3, 8.0), st.floats(-8.0, -1e-3))


def _index_set(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda mask: IndexSet(tuple(i + 1 for i, b in enumerate(mask) if b), n))


@st.composite
def _problems(draw, sets=1, vector=False, max_order=6):
    """(a, alpha[, beta][, x]) with a of order 1 to max_order."""
    n = draw(st.integers(1, max_order))
    scale = draw(st.sampled_from([1e-4, 1.0, 1e4]))
    out = [draw(arrays(np.float64, (n, n), elements=_entries)) * scale]
    out += [draw(_index_set(n)) for _ in range(sets)]
    if vector:
        out.append(draw(arrays(np.float64, (n,), elements=_entries)))
    return tuple(out)


def _pivoted(a, alpha):
    """ppt(a, alpha), rejecting the draw when the block fails the pivot test."""
    try:
        return ppt(a, alpha)
    except SingularBlockError:
        reject()


def _cond(m, alpha):
    """||M|| / sigma_min(M[alpha]) in 2-norms, 1 for the empty set.

    Pivoting M on alpha divides by M[alpha] and adds the result to
    entries of M's size, so its rounding scales with the whole matrix
    against the block's smallest singular value, not with cond(M[alpha])
    alone: a 1x1 pivot small against its row has cond 1 but no such
    accuracy.
    """
    p = alpha.zero_based
    if not len(p):
        return 1.0
    smallest = np.linalg.svd(m[np.ix_(p, p)], compute_uv=False).min()
    return float(np.linalg.norm(m, 2) / smallest)


def _peak(*ms):
    return max(float(np.abs(m).max()) for m in ms)


def _symdiff(alpha, beta):
    return IndexSet(sorted(set(alpha.indices) ^ set(beta.indices)), alpha.n)


@given(_problems())
def test_involution(problem):
    a, alpha = problem
    b = _pivoted(a, alpha)
    back = _pivoted(b, alpha)
    bound = SLACK * len(a) * EPS * _cond(a, alpha) * _peak(a, b)
    assert np.abs(back - a).max() <= bound


@given(_problems(sets=2))
def test_composition_is_the_symmetric_difference(problem):
    a, alpha, beta = problem
    b = _pivoted(a, alpha)
    gamma = _symdiff(alpha, beta)
    twice, once = _pivoted(b, beta), _pivoted(a, gamma)
    kappa = _cond(a, alpha) + _cond(b, beta) + _cond(a, gamma)
    bound = SLACK * len(a) * EPS * kappa * _peak(a, b, twice, once)
    assert np.abs(twice - once).max() <= bound


@given(_problems(vector=True))
def test_exchange_identity(problem):
    a, alpha, x = problem
    b = _pivoted(a, alpha)
    u, v = exchange_vectors(a, alpha, x)
    bound = (SLACK * len(a) * EPS * _cond(a, alpha) * _peak(a, b)
             * max(_peak(u), _peak(v)))
    assert np.abs(b @ u - v).max() <= bound


@given(_problems())
def test_ppt_det_is_the_determinant_of_the_transform(problem):
    a, alpha = problem
    b = _pivoted(a, alpha)
    assume(not singularity_check(a, alpha))
    want = lu_determinant(b)
    kappa = _cond(a, alpha) * float(np.linalg.cond(b))
    assert abs(ppt_det(a, alpha) - want) <= SLACK * len(a) * EPS * kappa * abs(want)


@given(_problems())
def test_schur_determinant_identity(problem):
    a, alpha = problem
    n = len(a)
    assume(not singularity_check(a, IndexSet.empty(n)))
    try:
        s = schur_complement(a, alpha)
    except SingularBlockError:
        reject()
    p = alpha.zero_based
    want = lu_determinant(a)
    got = lu_determinant(a[np.ix_(p, p)]) * lu_determinant(s)
    kappa = (float(np.linalg.cond(a))
             + _cond(a, alpha) * (float(np.linalg.cond(s)) if s.size else 1.0))
    assert abs(got - want) <= SLACK * n * EPS * kappa * abs(want)


def _exact_minors(a):
    """det A[S] for every subset bitmask S, by elimination in 60 digits."""
    n = len(a)
    out = []
    with mpmath.workdps(60):
        for mask in range(1 << n):
            idx = [i for i in range(n) if mask >> i & 1]
            m = [[mpmath.mpf(float(a[i, j])) for j in idx] for i in idx]
            det = mpmath.mpf(1)
            for c in range(len(idx)):
                r = max(range(c, len(idx)), key=lambda r: abs(m[r][c]))
                if m[r][c] == 0:
                    det = mpmath.mpf(0)
                    break
                if r != c:
                    m[c], m[r] = m[r], m[c]
                    det = -det
                det *= m[c][c]
                for rr in range(c + 1, len(idx)):
                    f = m[rr][c] / m[c][c]
                    for cc in range(c, len(idx)):
                        m[rr][cc] -= f * m[c][cc]
            out.append(det)
    return out


@given(_problems())
def test_minor_identity_against_mpmath(problem):
    """det B[beta] = det A[alpha ^ beta] / det A[alpha] for B = ppt(A, alpha).

    The bound perturbs each row of B[beta] by the transform's rounding,
    which scales with A's entries as well as B's (the Schur block cancels
    terms of A's size), takes Hadamard's inequality on the rows left, and
    adds the minor table's own rounding, n eps times the Hadamard product
    of B[beta].
    """
    a, alpha = problem
    n = len(a)
    b = _pivoted(a, alpha)
    table = minor_table(b)
    exact = _exact_minors(a)
    home = alpha.bitmask()
    row_error = n * EPS * _cond(a, alpha) * _peak(a, b)
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        norms = [float(np.linalg.norm(b[i, idx])) for i in idx]
        hadamard = float(np.prod(norms))
        others = sum(float(np.prod(norms[:j] + norms[j + 1:])) for j in range(len(idx)))
        with mpmath.workdps(60):
            error = abs(table[mask] - exact[mask ^ home] / exact[home])
        assert error <= SLACK * (n * EPS * hadamard + row_error * others), mask


def _near_the_p_threshold(m):
    """Does some principal minor of m lie within a factor 1e3 of the
    P-test threshold P_MINOR_RTOL * (1 + ||m||_inf ** k)?"""
    n = len(m)
    orders = np.zeros(1)
    for _ in range(n):
        orders = np.concatenate((orders, orders + 1))
    limit = P_MINOR_RTOL * (1.0 + float(np.abs(m).sum(axis=1).max()) ** orders)
    table = minor_table(m)
    return bool(((table > limit / 1e3) & (table < limit * 1e3)).any())


@given(_problems())
def test_p_matrices_survive_every_pivot(problem):
    a, alpha = problem
    b = _pivoted(a, alpha)
    assume(not _near_the_p_threshold(a) and not _near_the_p_threshold(b))
    assert is_p_matrix(a).verdict == is_p_matrix(b).verdict


def _exact_charpoly(a, alpha):
    """Coefficients of det(lambda I - ppt(a, alpha)), ascending, in 60
    digits: c[n - j] = (-1)**j sum over |beta| = j of
    det A[alpha ^ beta] / det A[alpha], by the minor identity."""
    n = len(a)
    exact = _exact_minors(a)
    home = alpha.bitmask()
    with mpmath.workdps(60):
        c = [mpmath.mpf(0)] * (n + 1)
        for mask in range(1 << n):
            j = bin(mask).count("1")
            c[n - j] += (-1) ** j * exact[mask ^ home]
        return [x / exact[home] for x in c]


@given(_problems(max_order=8))
def test_three_spectral_routes_against_mpmath(problem):
    """ppt_charpoly(A, alpha), charpoly_direct(ppt(A, alpha)) and
    pencil_eigenvalues(basic_factorization(A, alpha)) against the exact
    characteristic polynomial of the transform B and its roots.

    Size of the coefficient c[n - j]: |c[n - j]| <= C(n, j) ||B||**j, and
    moving each entry of B by the transform's rounding (the involution's
    bound, in units of peak) moves it by at most C(n, j) j n peak
    ||B||**(j - 1) to first order; the sum of the two is the size.  A
    root lambda moves by at most sum_k size_k |lambda|**k / |p'(lambda)|
    per unit of coefficient error to first order.  That holds where the
    disk is far inside the gap to the next root, so the spectrum is
    compared only when every disk is 1e3 times smaller than its gap and
    mpmath's polyroots converges (it does not on a multiple root).
    """
    a, alpha = problem
    n = len(a)
    b = _pivoted(a, alpha)
    exact = _exact_charpoly(a, alpha)
    norm, peak = float(np.linalg.norm(b, 2)), _peak(a, b)
    # size[k] is that of the coefficient of lambda**k, so j = n - k
    size = [comb(n, j) * (norm ** j + j * n * peak * norm ** max(j - 1, 0))
            for j in range(n, -1, -1)]
    unit = SLACK * n * EPS * _cond(a, alpha)
    for got in (ppt_charpoly(a, alpha), charpoly_direct(b)):
        with mpmath.workdps(60):
            errors = [float(abs(mpmath.mpf(float(g)) - e)) for g, e in zip(got, exact)]
        assert all(err <= unit * sz for err, sz in zip(errors, size)), errors
    spectrum = pencil_eigenvalues(basic_factorization(a, alpha)).eigenvalues
    with mpmath.workdps(60):
        try:
            lams = (mpmath.polyroots(exact[::-1], maxsteps=200, extraprec=200)
                    if n > 1 else [-exact[0]])
        except mpmath.mp.NoConvergence:
            return
        slopes = [abs(mpmath.polyval([k * exact[k] for k in range(n, 0, -1)], lam))
                  for lam in lams]
        lams = [complex(lam) for lam in lams]
    radii = [unit * sum(sz * abs(lam) ** k for k, sz in enumerate(size)) / float(slope)
             if slope else np.inf for lam, slope in zip(lams, slopes)]
    for i, (lam, radius) in enumerate(zip(lams, radii)):
        gap = min((abs(lam - other) for j, other in enumerate(lams) if j != i),
                  default=np.inf)
        if not radius * 1e3 < gap:
            return
    matched = [int(np.argmin([abs(z - lam) for lam in lams])) for z in spectrum]
    assert sorted(matched) == list(range(n)), (spectrum, lams)
    for z, i in zip(spectrum, matched):
        assert abs(z - lams[i]) <= radii[i], (z, lams[i], radii[i])
