import warnings

import numpy as np
import pytest

from pivotkit import (
    IndexSet,
    RootConvergenceError,
    SingularBlockError,
    basic_factorization,
    charpoly_direct,
    diagonal_certificate,
    eigenvalues,
    jacobi_system,
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
    # the coefficients of this n = 35 Jacobi matrix put the Aberth start
    # circle so far out that the first step overflows
    n = 35
    a = np.random.default_rng(0).uniform(-1.0, 1.0, (n, n))
    coeffs = charpoly_direct(jacobi_system(a, np.ones(n)).matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootConvergenceError) as info:
            roots(coeffs)
    assert len(info.value.best) == n
    assert np.isfinite(info.value.best).all()
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert "iteration" in str(info.value.__cause__)


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
