import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from pivotkit import spectra
from pivotkit import (
    IndexSet,
    RootConvergenceError,
    SingularBlockError,
    basic_factorization,
    charpoly_direct,
    diagonal_certificate,
    eigenvalues,
    lu_determinant,
    pencil_eigenvalues,
    poly_degree,
    poly_eval,
    poly_trim,
    ppt,
    ppt_charpoly,
    ppt_det,
    roots,
    singularity_check,
    spectral_mismatch,
)

# the divergent Jacobi matrix and its transform at {1,2} reappear throughout
T_HAT = np.array([[0.0, 2.0 / 3.0, -5.0 / 3.0],
                  [2.0 / 3.0, 0.0, -1.0 / 6.0],
                  [1.0 / 3.0, 1.0 / 3.0, -11.0 / 12.0]])


def random_pivotable(rng, n):
    # cap the pivot block's conditioning so the stated tolerances are
    # about the algorithms, not about nearly-singular draws
    while True:
        a = rng.uniform(-1.0, 1.0, (n, n))
        k = int(rng.integers(0, n + 1))
        alpha = IndexSet(sorted(rng.choice(n, size=k, replace=False) + 1), n)
        if k == 0:
            return a, alpha
        block = a[np.ix_(alpha.zero_based, alpha.zero_based)]
        if np.linalg.cond(block) <= 30.0:
            return a, alpha


def test_poly_helpers():
    assert np.array_equal(poly_trim([1.0, 2.0, 0.0, 0.0]), [1.0, 2.0])
    assert len(poly_trim([0.0, 0.0])) == 0
    assert poly_degree([3.0, 0.0, 1.0]) == 2
    assert poly_eval([1.0, 0.0, 1.0], 2.0) == pytest.approx(5.0)


def test_complex_coefficients_are_refused_not_cast():
    # cast to float, 2 + (1 + 5j) x would have the root -2, not -0.077+0.385j
    p = np.array([2 + 0j, 1 + 5j])
    for f in (poly_trim, poly_degree, roots):
        with pytest.raises(ValueError, match="coefficients must be real"):
            f(p)
    assert poly_eval([1.0, 0.0, 1.0], 1j) == 0.0  # points may be complex


def test_charpoly_diagonal():
    got = charpoly_direct(np.diag([2.0, 3.0]))
    assert np.allclose(got, [6.0, -5.0, 1.0], atol=1e-12)


def test_charpoly_iteration_matrix(stiff_iteration_matrix):
    got = charpoly_direct(stiff_iteration_matrix)
    assert np.allclose(got, [-33.0 / 16.0, -29.0 / 8.0, 0.0, 1.0], atol=1e-12)


def test_charpoly_transformed_matrix():
    got = charpoly_direct(T_HAT)
    assert np.allclose(got, [0.0, 1.0 / 6.0, 11.0 / 12.0, 1.0], atol=1e-12)


def test_charpoly_matches_numpy_poly():
    rng = np.random.default_rng(40)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = rng.uniform(-1.0, 1.0, (n, n))
        got = np.asarray(charpoly_direct(m))
        want = np.poly(m)[::-1]  # numpy returns descending order
        assert np.abs(got - want).max() <= 1e-8 * (1.0 + np.abs(want).max())


def test_ppt_charpoly_empty_alpha(worked_matrix):
    got = ppt_charpoly(worked_matrix, IndexSet.empty(3))
    want = charpoly_direct(worked_matrix)
    assert np.allclose(got, want, atol=1e-12)


def test_ppt_charpoly_pin(stiff_iteration_matrix):
    got = ppt_charpoly(stiff_iteration_matrix, IndexSet((1, 2), 3))
    assert np.allclose(got, [0.0, 1.0 / 6.0, 11.0 / 12.0, 1.0], atol=1e-12)


def test_ppt_charpoly_never_forms_transform(worked_matrix, worked_transform):
    # coefficient route (minor table of A) against the formed transform
    got = ppt_charpoly(worked_matrix, IndexSet((1, 3), 3))
    want = charpoly_direct(worked_transform)
    assert np.abs(np.asarray(got) - want).max() <= 1e-10


def test_ppt_charpoly_two_routes_random():
    rng = np.random.default_rng(71)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a, alpha = random_pivotable(rng, n)
        got = np.asarray(ppt_charpoly(a, alpha))
        want = np.asarray(charpoly_direct(ppt(a, alpha)))
        scale = 1.0 + np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-8 * scale


def test_ppt_charpoly_is_monic_with_determinant_constant():
    rng = np.random.default_rng(83)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        a, alpha = random_pivotable(rng, n)
        got = ppt_charpoly(a, alpha)
        assert len(got) == n + 1
        assert got[-1] == pytest.approx(1.0, rel=1e-12)
        want = (-1.0) ** n * ppt_det(a, alpha)
        assert got[0] == pytest.approx(want, rel=1e-8, abs=1e-9)


def _exact_charpoly(a):
    """Ascending coefficients of det(lambda I - a) as mpmath numbers.

    ``a`` is a uniform(-1, 1) draw, so 2**52 a is an integer matrix and
    the trace recurrence runs on Python integers, where every division
    by k is exact."""
    import mpmath
    n = len(a)
    m = np.array([[int(x) for x in row] for row in a * 2.0 ** 52], dtype=object)
    assert np.array_equal(m.astype(float), a * 2.0 ** 52)
    c = [0] * n + [1]
    t = np.zeros((n, n), dtype=object)
    diag = np.arange(n)
    for k in range(1, n + 1):
        t[diag, diag] += c[n - k + 1]
        t = m.dot(t)
        c[n - k] = -sum(t.diagonal()) // k
    return [mpmath.mpf(c[k]) / mpmath.mpf(2) ** (52 * (n - k)) for k in range(n + 1)]


@pytest.mark.parametrize("n", [10, 25, 40])
def test_charpoly_and_eigenvalues_against_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    a = np.random.default_rng([n, 1]).uniform(-1.0, 1.0, (n, n))
    exact = _exact_charpoly(a)
    got = charpoly_direct(a)
    with mpmath.workdps(50):
        errors = [abs(mpmath.mpf(float(g)) - e) for g, e in zip(got, exact)]
        assert max(errors) <= 1e-13 * max(abs(e) for e in exact)
        # Newton's method in 50 digits takes each root to the exact root
        # next to it; n distinct limits mean every root was found
        slope = [k * exact[k] for k in range(n, 0, -1)]
        limits = []
        for z in eigenvalues(a).eigenvalues:
            w = mpmath.mpc(z)
            for _ in range(6):
                w -= mpmath.polyval(exact[::-1], w) / mpmath.polyval(slope, w)
            assert abs(w - z) <= 1e-11 * (1 + abs(w))
            limits.append(w)
        assert min(abs(x - y) for i, x in enumerate(limits) for y in limits[:i]) > 1e-6


def test_spectra_of_a_transform_with_a_wide_spectrum():
    # spectral radius 2.05e7 and c0 = -3.5e40: a start circle of
    # 1 + max |c_k| overflowed z**8 at once on both routes
    mpmath = pytest.importorskip("mpmath")
    a = -2e4 * np.ones((8, 8))
    a[0, 0] = a[7, 0] = a[7, 7] = 0.0
    a[2, 7] = 19.53125
    alpha = IndexSet((3, 8), 8)
    b = ppt(a, alpha)
    with mpmath.workdps(50):
        exact = [complex(z) for z in mpmath.eig(mpmath.matrix(b.tolist()),
                                                 left=False, right=False)]
    radius = max(abs(z) for z in exact)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for res in (eigenvalues(b), pencil_eigenvalues(basic_factorization(a, alpha))):
            assert res.spectral_radius == pytest.approx(radius, rel=1e-12)
            assert spectral_mismatch(res.eigenvalues, exact) <= 1e-11 * radius


def test_roots_quadratic():
    res = roots([6.0, -5.0, 1.0])
    vals = sorted(x.real for x in res.eigenvalues)
    assert vals == pytest.approx([2.0, 3.0], abs=1e-12)
    assert all(x.imag == 0 for x in res.eigenvalues)
    assert res.spectral_radius == pytest.approx(3.0)


def test_roots_of_divergent_iteration_matrix(stiff_iteration_matrix):
    res = roots(charpoly_direct(stiff_iteration_matrix))
    got = sorted(x.real for x in res.eigenvalues)
    r = np.sqrt(31.0) / 2.0
    want = sorted([-1.5, (1.5 - r) / 2.0, (1.5 + r) / 2.0])
    assert got == pytest.approx(want, abs=1e-10)
    # the printed 4-digit values
    assert got == pytest.approx([-1.5, -0.6419, 2.1419], abs=5e-4)
    assert res.spectral_radius == pytest.approx((1.5 + r) / 2.0, abs=1e-10)


def test_roots_of_transformed_iteration_matrix():
    res = roots(charpoly_direct(T_HAT))
    got = sorted(x.real for x in res.eigenvalues)
    assert got == pytest.approx([-2.0 / 3.0, -0.25, 0.0], abs=1e-9)
    assert res.spectral_radius == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_roots_residual_contract():
    rng = np.random.default_rng(404)
    for _ in range(50):
        deg = int(rng.integers(1, 9))
        coeffs = rng.uniform(-1.0, 1.0, deg + 1)
        coeffs[-1] = 1.0
        res = roots(list(coeffs))
        bound = 1e-10 * np.abs(coeffs).max()
        assert max(res.residuals) <= max(bound, 1e-12)


def test_roots_conjugate_closure():
    # rotation-by-theta has an exactly conjugate eigenvalue pair
    th = 0.7
    m = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    res = roots(charpoly_direct(m))
    a, b = res.eigenvalues
    assert a == b.conjugate()
    assert a.imag != 0.0


def test_roots_conjugate_closure_two_pairs():
    blocks = np.zeros((4, 4))
    blocks[:2, :2] = [[0.3, -1.1], [1.1, 0.3]]
    blocks[2:, 2:] = [[-0.2, 0.9], [-0.9, -0.2]]
    res = roots(charpoly_direct(blocks))
    vals = sorted(res.eigenvalues, key=lambda z: (z.real, z.imag))
    assert vals[0] == vals[1].conjugate()
    assert vals[2] == vals[3].conjugate()


def test_roots_stops_at_the_first_non_finite_iterate():
    # a root near 1e160 puts the Aberth start circle where z**2
    # overflows, so the first step is not finite
    coeffs = [1.0, -1e160, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootConvergenceError) as info:
            roots(coeffs)
    assert len(info.value.best) == 2
    assert np.isfinite(info.value.best).all()
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert "iteration" in str(info.value.__cause__)


def test_start_puts_a_point_near_each_root_modulus():
    # the hull of (k, log|c_k|) has three edges of width one, of slopes
    # log 1e3, 0 and -log 1e3 (to within 0.1 %)
    monic = np.poly([1e-3, 1.0, 1e3])[::-1]
    radii = np.sort(np.abs(spectra._start(monic)))
    assert radii == pytest.approx([1e-3, 1.0, 1e3], rel=2e-3)


@pytest.mark.parametrize("n", range(2, 9))
def test_start_skips_zero_interior_coefficients(n):
    # z**n - 1 is one hull edge: n points on the unit circle; z**n - z
    # deflates a root at 0 and leaves z**(n - 1) - 1
    unity = np.zeros(n + 1)
    unity[[0, n]] = -1.0, 1.0
    assert np.abs(spectra._start(unity)) == pytest.approx(np.ones(n), rel=1e-15)
    shifted = np.roll(unity, 1)
    shifted[0] = 0.0
    shifted[n] = 1.0
    for coeffs, count in ((unity, n), (shifted, n - 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = roots(coeffs)
        want = np.exp(2j * np.pi * np.arange(count) / count)
        assert spectral_mismatch(res.eigenvalues[np.abs(res.eigenvalues) > 0.5], want) <= 1e-12
        assert np.sum(res.eigenvalues == 0) == n - count
        assert res.spectral_radius == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("coeffs", [
    [1.0, np.nan, 1.0], [np.inf, 0.0, 1.0], [1.0, 2.0, -np.inf],
    # finite, but the quotient by the leading coefficient overflows
    [1.0, 1e308, 1e-308], [np.nan, 1.0]])
def test_roots_rejects_non_finite_coefficients(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootConvergenceError) as info:
            roots(coeffs)
    assert len(info.value.best) == len(coeffs) - 1
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_start_radius_underflow_is_clipped():
    # the edge from (0, log 5e-324) to (1, log 1e300) has radius
    # 5e-624, which underflows to 0: clipped to the smallest normal
    monic = np.array([5e-324, 1e300, 1.0])
    with np.errstate(under="ignore"):
        z = spectra._start(monic)
    assert np.isfinite(z).all() and (z != 0).all()
    assert np.abs(z).min() == np.finfo(float).tiny
    # the other start point (radius 1e300) overflows z**2: a typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootConvergenceError):
            roots(monic)


@pytest.mark.parametrize("n", [50, 100, 180, 190, 200])
def test_eigenvalues_matched_error_on_uniform_draws(n):
    # eigenvalues' docstring: every draw returns, with median matched
    # error below 2e-14 and every error below 1e-13 of max(1, rho)
    from scipy.optimize import linear_sum_assignment
    errors = []
    for d in range(10):
        m = np.random.default_rng([n, d, 9]).uniform(-1.0, 1.0, (n, n))
        got = eigenvalues(m).eigenvalues
        want = np.linalg.eigvals(m)
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        errors.append(dist[rows, cols].max() / max(1.0, np.abs(want).max()))
    assert np.median(errors) <= 2e-14
    assert max(errors) <= 1e-13


def _reference_conjugates(z):
    """The conjugate pairing as a loop over pairs: each root above the
    axis in turn takes the nearest untaken partner below it."""
    z = np.array(z, dtype=complex)
    scale = 1.0 + np.abs(z)
    snap = np.abs(z.imag) <= 1e-9 * scale
    z.imag[snap] = 0.0
    pos = [i for i in range(len(z)) if z[i].imag > 0]
    neg = [i for i in range(len(z)) if z[i].imag < 0]
    used = set()
    for i in pos:
        best_j, best_d = -1, np.inf
        for j in neg:
            if j in used:
                continue
            d = abs(z[i] - np.conj(z[j]))
            if d < best_d:
                best_j, best_d = j, d
        if best_j >= 0 and best_d <= 1e-6 * (1.0 + abs(z[i])):
            mean = 0.5 * (z[i] + np.conj(z[best_j]))
            z[i] = mean
            z[best_j] = np.conj(mean)
            used.add(best_j)
    return z


def test_enforce_conjugates_matches_the_pairing_loop():
    # near-conjugate pairs within the 1e-6 tolerance, clusters in which
    # two roots above the axis want one partner, near-real roots and
    # lone roots; every third set rounded so that distances tie
    rng = np.random.default_rng(2727)
    for t in range(3000):
        n = int(rng.integers(2, 40))
        centres = rng.standard_normal(n) + 1j * rng.standard_normal(n) * rng.choice([1.0, 1e-10], n)
        centres[rng.random(n) < 0.3] = centres[0]
        z = np.where(rng.random(n) < 0.5, centres, centres.conj())
        z = z + rng.choice([0.0, 1e-9, 1e-7, 1e-5], n) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if t % 3 == 0:
            z = np.round(z, int(rng.integers(1, 8)))
        assert np.array_equal(spectra._enforce_conjugates(z), _reference_conjugates(z)), t


@np.errstate(all="ignore")
def _reference_aberth(monic, tol, max_iter, overflowed):
    """The Aberth loop before its stacked Horner pass, from the kernel's
    own start points: three ``polyval`` calls per iteration and a freeze
    test that trusts an infinite bound.
    Appends True to ``overflowed`` if a roundoff bound ever reaches inf."""
    deg = len(monic) - 1
    deriv = monic[1:] * np.arange(1, deg + 1)
    abs_coeffs = np.abs(monic)
    noise = (2.0 * deg + 2.0) * np.finfo(float).eps
    radius = 2.0 * np.max(np.abs(monic[:-1]) ** (1.0 / np.arange(deg, 0, -1)))
    z = spectra._start(monic)
    was_inside = np.zeros(deg, dtype=bool)
    for it in range(1, max_iter + 1):
        pv = npoly.polyval(z, monic)
        bound = npoly.polyval(np.abs(z), abs_coeffs)
        if np.isinf(bound).any():
            overflowed.append(True)
        inside = np.abs(pv) <= noise * bound
        frozen = inside & was_inside
        was_inside = inside
        if bool(frozen.all()):
            return z
        dv = npoly.polyval(z, deriv)
        stalled = ~inside & (dv == 0)
        if np.any(stalled):
            z = np.where(stalled, z * (1.0 + 1e-8) + 1e-8j, z)
            continue
        w = np.where(frozen | (dv == 0), 0.0, pv) / np.where(dv == 0, 1.0, dv)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1.0, denom)
        step = w / denom
        z_next = z - step
        size = float(np.abs(z_next).max())
        if not np.isfinite(size):
            raise RootConvergenceError(best=z) from FloatingPointError(
                f"non-finite Aberth iterate at iteration {it}")
        mod = np.abs(z_next)
        z_next = np.where(mod > radius, z_next * (radius / mod), z_next)
        z = z_next
        if float(np.abs(step).max()) <= tol * (1.0 + size):
            return z
    raise RootConvergenceError(best=z)


def _roots_outcome(coeffs):
    """roots(coeffs) as a comparable tuple: its arrays, or the error's."""
    try:
        res = roots(coeffs)
    except RootConvergenceError as err:
        return "raised", err.best, str(err.__cause__)
    return "returned", res.eigenvalues, res.residuals, res.spectral_radius


ROOT_DRAW_KINDS = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, (n, n)),
    "general": lambda rng, n: np.eye(n) + rng.standard_normal((n, n)) / (3.0 * np.sqrt(n)),
    "small integers": lambda rng, n: rng.integers(-3, 4, (n, n)).astype(float),
}


@pytest.mark.parametrize("kind", sorted(ROOT_DRAW_KINDS))
def test_roots_bit_identical_to_the_three_polyval_loop(kind, monkeypatch):
    # the stacked Horner pass makes the float operations of polyval in
    # polyval's order, so every root, residual and radius keeps its bits;
    # only a draw whose bound overflows may differ (it now keeps iterating)
    draw = ROOT_DRAW_KINDS[kind]
    compared = 0
    for n in range(2, 31):
        a = draw(np.random.default_rng([n, 1515]), n)
        coeffs = charpoly_direct(a)
        got = _roots_outcome(coeffs)
        overflowed = []
        monkeypatch.setattr(
            spectra, "_aberth",
            lambda monic: _reference_aberth(monic, spectra._ABERTH_TOL,
                                            spectra._ABERTH_MAX_ITER, overflowed))
        with warnings.catch_warnings():
            # the reference's residuals overflow at start points it froze
            warnings.simplefilter("ignore", RuntimeWarning)
            want = _roots_outcome(coeffs)
        monkeypatch.undo()
        if overflowed:
            continue
        compared += 1
        assert got[0] == want[0], n
        for x, y in zip(got[1:], want[1:]):
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y, equal_nan=True), n
            else:
                assert x == y, n
    # from the Newton-polygon start no draw here overflows its bound
    assert compared >= 15


def test_roots_raises_where_the_roundoff_bound_overflows():
    # the eigenvalue 1e160 puts the start circle where z**2 and so the
    # roundoff bound overflow; an infinite bound must not freeze the
    # start points (trusted, it returns them, radius 2e160)
    a = np.diag([1e160, 1e-160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootConvergenceError):
            roots(charpoly_direct(a))
        with pytest.raises(RootConvergenceError):
            eigenvalues(a)


def test_eigenvalues_wrapper():
    res = eigenvalues(np.diag([2.0, -7.0, 3.0]))
    got = sorted(x.real for x in res.eigenvalues)
    assert got == pytest.approx([-7.0, 2.0, 3.0], abs=1e-9)
    assert res.spectral_radius == pytest.approx(7.0)


def test_pencil_route_pin(worked_matrix, worked_transform):
    fact = basic_factorization(worked_matrix, IndexSet((1, 3), 3))
    res = pencil_eigenvalues(fact)
    want = roots(charpoly_direct(worked_transform)).eigenvalues
    assert spectral_mismatch(res.eigenvalues, want) <= 1e-8


def test_pencil_route_empty_alpha(worked_matrix):
    fact = basic_factorization(worked_matrix, IndexSet.empty(3))
    res = pencil_eigenvalues(fact)
    want = roots(charpoly_direct(worked_matrix)).eigenvalues
    assert spectral_mismatch(res.eigenvalues, want) <= 1e-8


def test_pencil_route_transformed_pin(stiff_iteration_matrix):
    fact = basic_factorization(stiff_iteration_matrix, IndexSet((1, 2), 3))
    res = pencil_eigenvalues(fact)
    want = [0.0, -0.25, -2.0 / 3.0]
    assert spectral_mismatch(res.eigenvalues, want) <= 1e-8


def test_pencil_route_tests_the_pivot_block_not_the_factor():
    # cond A[alpha] = 2.3e8 passes the pivot test, as ppt finds; the n x n
    # factor C2 (cond 2.3e12) would not.  Only the spectral radius is
    # pinned: the small eigenvalues are beyond the polynomial route here.
    a = np.array([[39.0625, 39.0625, 1e4, 0.0],
                  [3e4, 39.0625, 39.0625, 39.0625],
                  [39.0625] * 4,
                  [39.0625, -3e4, 39.0625, 39.0625]])
    alpha = IndexSet((1, 2, 4), 4)
    want = eigenvalues(ppt(a, alpha)).spectral_radius
    got = pencil_eigenvalues(basic_factorization(a, alpha)).spectral_radius
    assert got == pytest.approx(want, rel=1e-9)


def test_pencil_route_still_refuses_a_singular_pivot_block():
    a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 1.0, 3.0]])
    fact = basic_factorization(np.eye(3), (1, 2))
    fact.c2[:2] = a[:2]  # A[{1,2}] has rank one
    with pytest.raises(SingularBlockError, match="pivot-row factor"):
        pencil_eigenvalues(fact)
    with pytest.raises(ValueError, match="order >= 1"):
        pencil_eigenvalues(basic_factorization(np.zeros((0, 0)), ()))


def test_three_route_agreement():
    rng = np.random.default_rng(515)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a, alpha = random_pivotable(rng, n)
        e1 = roots(ppt_charpoly(a, alpha)).eigenvalues
        e2 = pencil_eigenvalues(basic_factorization(a, alpha)).eigenvalues
        e3 = roots(charpoly_direct(ppt(a, alpha))).eigenvalues
        assert spectral_mismatch(e1, e2) <= 1e-7
        assert spectral_mismatch(e1, e3) <= 1e-7


def test_diagonal_certificate_at_transform_eigenvalue(stiff_iteration_matrix):
    alpha = IndexSet((1, 2), 3)
    assert diagonal_certificate(stiff_iteration_matrix, alpha, -0.25) <= 1e-10
    assert diagonal_certificate(stiff_iteration_matrix, alpha, -2.0 / 3.0) <= 1e-10


def test_diagonal_certificate_off_spectrum(stiff_iteration_matrix):
    alpha = IndexSet((1, 2), 3)
    assert diagonal_certificate(stiff_iteration_matrix, alpha, 1.7) > 0.1


def test_diagonal_certificate_rejects_zero(stiff_iteration_matrix):
    with pytest.raises(ValueError):
        diagonal_certificate(stiff_iteration_matrix, IndexSet((1, 2), 3), 0.0)


def test_diagonal_certificate_order_one():
    a = np.array([[4.0]])
    assert diagonal_certificate(a, IndexSet((1,), 1), 0.25) <= 1e-14


def test_unit_eigenvalue_is_invariant():
    # 1 is an eigenvalue of A exactly when it is one of every transform
    a = np.diag([2.0, 3.0])
    for alpha in (IndexSet.empty(2), IndexSet((1,), 2), IndexSet((2,), 2),
                  IndexSet.full(2)):
        assert diagonal_certificate(a, alpha, 1.0) > 0.1
    b = np.diag([1.0, 3.0])
    for alpha in (IndexSet.empty(2), IndexSet((1,), 2), IndexSet((2,), 2),
                  IndexSet.full(2)):
        assert diagonal_certificate(b, alpha, 1.0) <= 1e-12


def test_pm_one_preserved_under_all_transforms():
    rng = np.random.default_rng(626)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        # triangular with a unit diagonal entry: eigenvalue exactly 1
        a = np.triu(rng.uniform(-1.0, 1.0, (n, n)), k=1)
        diag = rng.uniform(1.5, 3.0, n)
        diag[int(rng.integers(0, n))] = 1.0
        a += np.diag(diag)
        for mask in range(2 ** n):
            alpha = IndexSet([i + 1 for i in range(n) if mask >> i & 1], n)
            res = eigenvalues(ppt(a, alpha))
            assert min(abs(z - 1.0) for z in res.eigenvalues) <= 1e-7


def test_unit_shift_determinant_identities():
    # det(B -+ I) is det(A -+ I) rescaled by the pivot-block determinant
    # (up to sign), which is why +-1 membership in the spectrum is invariant
    rng = np.random.default_rng(727)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        a, alpha = random_pivotable(rng, n)
        k = len(alpha)
        dblk = 1.0
        if k:
            dblk = np.linalg.det(a[np.ix_(alpha.zero_based, alpha.zero_based)])
        b = ppt(a, alpha)
        minus = lu_determinant(b - np.eye(n))
        want_minus = (-1.0) ** (n - k) * lu_determinant(np.eye(n) - a) / dblk
        assert minus == pytest.approx(want_minus, rel=1e-9, abs=1e-11)
        plus = lu_determinant(b + np.eye(n))
        want_plus = lu_determinant(np.eye(n) + a) / dblk
        assert plus == pytest.approx(want_plus, rel=1e-9, abs=1e-11)


def test_away_from_pm_one_never_lands_on_pm_one():
    # transforms of a matrix whose spectrum avoids +-1 never acquire an
    # eigenvalue at +-1 (the distance itself may shrink, but not to zero)
    rng = np.random.default_rng(727)
    done = 0
    while done < 20:
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 1.0, (n, n))
        spectrum = np.linalg.eigvals(a)
        if min(np.abs(spectrum - 1.0).min(), np.abs(spectrum + 1.0).min()) < 0.1:
            continue
        for mask in range(2 ** n):
            idx = [i + 1 for i in range(n) if mask >> i & 1]
            alpha = IndexSet(idx, n)
            try:
                b = ppt(a, alpha)
            except SingularBlockError:
                continue
            assert abs(lu_determinant(b - np.eye(n))) > 1e-8
            assert abs(lu_determinant(b + np.eye(n))) > 1e-8
        done += 1


def test_singularity_check_pins(stiff_iteration_matrix):
    assert singularity_check(stiff_iteration_matrix, IndexSet((1, 2), 3)) is True
    assert singularity_check(np.eye(3), IndexSet((1, 2), 3)) is False


def test_singularity_check_constructed_rank_deficiency():
    rng = np.random.default_rng(828)
    a = rng.uniform(-1.0, 1.0, (5, 5)) + 2.0 * np.eye(5)
    a[4, :] = a[3, :]  # rows 4 and 5 coincide, so A({1,2,3}) is singular
    a[4, 4] = a[3, 4]
    assert singularity_check(a, IndexSet((1, 2, 3), 5)) is True
    assert abs(lu_determinant(ppt(a, IndexSet((1, 2, 3), 5)))) <= 1e-9


def test_singularity_check_agrees_with_formed_transform():
    rng = np.random.default_rng(929)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        a, alpha = random_pivotable(rng, n)
        flag = singularity_check(a, alpha)
        det = lu_determinant(ppt(a, alpha))
        if flag:
            assert abs(det) <= 1e-6
        else:
            assert det != 0.0


def test_ppt_charpoly_when_the_minors_dwarf_the_transform():
    # A has rank 3: its minors of order 4 and up are exactly 0, with
    # Hadamard bounds up to 4e35, and the residue the table leaves on them
    # reaches the coefficients divided by det A[alpha] = 1e12
    a = -1e4 * np.ones((8, 8))
    a[0, 6] = a[6, 0] = 0.0
    alpha = IndexSet((1, 7, 8), 8)
    got = roots(ppt_charpoly(a, alpha)).spectral_radius
    want = np.abs(np.linalg.eigvals(ppt(a, alpha))).max()
    assert abs(got - want) <= 1e-6 * want


def test_spectral_mismatch_needs_equal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        spectral_mismatch([1.0, 2.0], [1.0])


def _reference_mismatch(a, b):
    # the pairing loop: the first strict minimum in row-major order among
    # the remaining values, so a nan distance never wins
    av = list(np.asarray(a, dtype=complex))
    bv = list(np.asarray(b, dtype=complex))
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


def _tied_spectrum(rng, kind, n):
    if kind == "rounded":
        return np.round(rng.normal(size=n) + 1j * rng.normal(size=n), 1)
    if kind == "repeated":
        return rng.choice([0.5, -1.0, 2.0 + 1j, 2.0 - 1j], n)
    return rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n)


@pytest.mark.parametrize("kind", ["rounded", "repeated", "grid"])
def test_spectral_mismatch_matches_the_pairing_loop(kind):
    for n in range(1, 41):
        for seed in range(3):
            rng = np.random.default_rng([71, n, seed])
            a, b = _tied_spectrum(rng, kind, n), _tied_spectrum(rng, kind, n)
            assert spectral_mismatch(a, b) == _reference_mismatch(a, b)


@pytest.mark.parametrize("a, b", [
    ([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0]),
    ([1.0, complex(0.0, np.nan)], [5.0, 1.0]),
    ([np.inf, 0.0], [np.inf, 1.0]),
    ([np.inf, np.nan], [1.0, np.inf]),
    ([1e308, -1e308], [-1e308, 1e308]),
])
def test_spectral_mismatch_pairs_past_nan_and_inf_as_the_loop_does(a, b):
    with np.errstate(invalid="ignore", over="ignore"):
        assert spectral_mismatch(a, b) == _reference_mismatch(a, b)


def test_spectral_mismatch_of_nonfinite_spectra_warns_nothing():
    # Tier-1 turns every RuntimeWarning into an error; no errstate here
    assert spectral_mismatch([np.inf], [np.inf]) == np.inf
    assert spectral_mismatch([1e308, -1e308], [-1e308, 1e308]) == 0.0
    for a, b in [([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0]),
                 ([1.0, complex(0.0, np.nan)], [5.0, 1.0]),
                 ([np.inf, 0.0], [np.inf, 1.0]),
                 ([np.inf, np.nan], [1.0, np.inf])]:
        with np.errstate(invalid="ignore", over="ignore"):
            want = _reference_mismatch(a, b)
        assert spectral_mismatch(a, b) == want


def test_roots_of_a_constant_raise():
    with pytest.raises(ValueError, match="degree >= 1"):
        roots([3.0])
