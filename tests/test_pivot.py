import numpy as np
import pytest

from pivotkit import (
    IndexSet,
    PartitionError,
    SingularBlockError,
    basic_factorization,
    combinatorial_residual,
    count_flops,
    counted_singleton_inverse,
    exchange_vectors,
    flop_estimate,
    lu_determinant,
    ppt,
    ppt_det,
    ppt_inverse,
    ppt_single,
    random_p_matrix,
    sequential_inverse,
)


def random_pivotable(rng, n):
    """Random matrix / index-set pair with a safely invertible pivot block."""
    while True:
        a = rng.uniform(-1.0, 1.0, (n, n))
        k = int(rng.integers(0, n + 1))
        idx = sorted(rng.choice(n, size=k, replace=False) + 1)
        alpha = IndexSet(idx, n)
        if k == 0:
            return a, alpha
        block = a[np.ix_(alpha.zero_based, alpha.zero_based)]
        if abs(np.linalg.det(block)) > 1e-3:
            return a, alpha


# --- construction -----------------------------------------------------------

def test_ppt_worked_pin(worked_matrix, worked_transform):
    got = ppt(worked_matrix, IndexSet((1, 3), 3))
    assert np.abs(got - worked_transform).max() <= 1e-12


def test_ppt_round_trip_gives_inverse(worked_transform, worked_inverse):
    got = ppt(worked_transform, IndexSet((2,), 3))
    assert np.abs(got - worked_inverse).max() <= 1e-12


def test_ppt_empty_returns_copy(worked_matrix):
    got = ppt(worked_matrix, IndexSet.empty(3))
    assert np.array_equal(got, worked_matrix)
    got[1, 1] = 77.0
    assert worked_matrix[1, 1] == 1.0


def test_ppt_full_is_inverse():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1.0, 1.0, (5, 5)) + 3.0 * np.eye(5)
    got = ppt(a, IndexSet.full(5))
    assert np.allclose(got, np.linalg.inv(a), atol=1e-10)


def test_ppt_block_layout():
    # spot-check each of the four blocks against the defining formulas
    rng = np.random.default_rng(8)
    a = rng.uniform(-1.0, 1.0, (6, 6)) + 2.0 * np.eye(6)
    alpha = IndexSet((2, 5), 6)
    rest = alpha.complement()
    ia = alpha.zero_based
    ic = rest.zero_based
    blk = np.linalg.inv(a[np.ix_(ia, ia)])
    b = ppt(a, alpha)
    assert np.allclose(b[np.ix_(ia, ia)], blk, atol=1e-12)
    assert np.allclose(b[np.ix_(ia, ic)], -blk @ a[np.ix_(ia, ic)], atol=1e-12)
    assert np.allclose(b[np.ix_(ic, ia)], a[np.ix_(ic, ia)] @ blk, atol=1e-12)
    schur = a[np.ix_(ic, ic)] - a[np.ix_(ic, ia)] @ blk @ a[np.ix_(ia, ic)]
    assert np.allclose(b[np.ix_(ic, ic)], schur, atol=1e-12)


def test_ppt_singular_block(stiff_iteration_matrix):
    with pytest.raises(SingularBlockError):
        ppt(stiff_iteration_matrix, IndexSet((1,), 3))


def test_involution():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        a, alpha = random_pivotable(rng, n)
        back = ppt(ppt(a, alpha), alpha)
        assert np.abs(back - a).max() <= 1e-9 * max(1.0, np.abs(a).max())


def test_singularity_not_implied():
    # the transform can be invertible while the source is singular
    a = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert lu_determinant(a) == pytest.approx(0.0, abs=1e-15)
    b = ppt(a, IndexSet((1,), 2))
    assert np.array_equal(b, [[1.0, -2.0], [1.0, 0.0]])
    assert lu_determinant(b) == pytest.approx(2.0)


# --- single-index fast path -------------------------------------------------

def test_ppt_single_pin():
    got = ppt_single(np.array([[1.0, 2.0], [1.0, 2.0]]), 1)
    assert np.array_equal(got, [[1.0, -2.0], [1.0, 0.0]])


def test_ppt_single_identity():
    for k in (1, 2, 3):
        assert np.array_equal(ppt_single(np.eye(3), k), np.eye(3))


def test_ppt_single_matches_general_path():
    rng = np.random.default_rng(77)
    a = rng.uniform(-1.0, 1.0, (7, 7)) + np.eye(7)
    assert np.abs(ppt_single(a, 3) - ppt(a, IndexSet((3,), 7))).max() <= 1e-12


def test_ppt_single_counts_n_squared():
    rng = np.random.default_rng(13)
    for n in (2, 4, 7):
        a = rng.uniform(-1.0, 1.0, (n, n)) + np.eye(n)
        with count_flops() as counter:
            ppt_single(a, 1)
        assert counter.count == n * n


def test_ppt_single_counting_keeps_the_arithmetic():
    rng = np.random.default_rng(13)
    for n in (2, 4, 7):
        a = rng.uniform(-1.0, 1.0, (n, n)) + np.eye(n)
        for k in range(1, n + 1):
            plain = ppt_single(a, k)
            with count_flops():
                counted = ppt_single(a, k)
            assert np.array_equal(counted, plain)


def test_ppt_single_zero_pivot():
    with pytest.raises(SingularBlockError):
        ppt_single(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)


# --- exchange ---------------------------------------------------------------

def test_exchange_pin(worked_matrix, worked_transform):
    u, v = exchange_vectors(worked_matrix, IndexSet((1, 3), 3), np.ones(3))
    assert np.array_equal(u, [4.0, 1.0, 11.0])
    assert np.array_equal(v, [1.0, 2.0, 1.0])
    assert np.abs(worked_transform @ u - v).max() <= 1e-12


def test_exchange_empty_alpha(worked_matrix):
    x = np.array([1.0, -2.0, 0.5])
    u, v = exchange_vectors(worked_matrix, IndexSet.empty(3), x)
    assert np.array_equal(u, x)
    assert np.allclose(v, worked_matrix @ x)


def test_exchange_property():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a, alpha = random_pivotable(rng, n)
        x = rng.uniform(-1.0, 1.0, n)
        u, v = exchange_vectors(a, alpha, x)
        b = ppt(a, alpha)
        assert np.abs(b @ u - v).max() <= 1e-9 * (1.0 + np.abs(v).max())
        # u, v are x and Ax with the alpha coordinates swapped
        y = a @ x
        za = alpha.zero_based
        assert np.array_equal(u[za], y[za])
        assert np.array_equal(v[za], x[za])


# --- basic factorization ----------------------------------------------------

def test_factorization_pin(worked_matrix):
    fact = basic_factorization(worked_matrix, IndexSet((1, 3), 3))
    assert np.array_equal(fact.c1, [[1.0, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert np.array_equal(fact.c2, [[1.0, 2, 1], [0, 1, 0], [2, 8, 1]])
    assert np.array_equal(fact.pivot_mask, [1.0, 0.0, 1.0])
    assert tuple(fact.pivot_set) == (1, 3)


def test_factorization_empty_alpha(worked_matrix):
    fact = basic_factorization(worked_matrix, IndexSet.empty(3))
    assert np.array_equal(fact.c1, worked_matrix)
    assert np.array_equal(fact.c2, np.eye(3))


def test_factorization_full_alpha(worked_matrix):
    fact = basic_factorization(worked_matrix, IndexSet.full(3))
    assert np.array_equal(fact.c1, np.eye(3))
    assert np.array_equal(fact.c2, worked_matrix)


def test_factorization_reproduces_transform():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a, alpha = random_pivotable(rng, n)
        fact = basic_factorization(a, alpha)
        b = ppt(a, alpha)
        scale = max(1.0, np.abs(fact.c1).max())
        assert np.abs(b @ fact.c2 - fact.c1).max() <= 1e-9 * scale
        # the second factor's determinant equals the pivot block's
        blk = a[np.ix_(alpha.zero_based, alpha.zero_based)]
        want = np.linalg.det(blk) if len(alpha) else 1.0
        assert lu_determinant(fact.c2) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_combinatorial_residual_pin(worked_matrix):
    assert combinatorial_residual(worked_matrix, IndexSet((1, 3), 3)) <= 1e-12


def test_combinatorial_residual_empty(worked_matrix):
    assert combinatorial_residual(worked_matrix, IndexSet.empty(3)) == 0.0


def test_combinatorial_residual_random():
    rng = np.random.default_rng(919)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a, alpha = random_pivotable(rng, n)
        b = ppt(a, alpha)
        bound = 1e-9 * (1.0 + np.abs(a).max()) * (1.0 + np.abs(b).max())
        assert combinatorial_residual(a, alpha) <= bound


# --- sequential inversion ---------------------------------------------------

def test_sequential_inverse_pin(worked_matrix, worked_inverse):
    got = sequential_inverse(worked_matrix, [IndexSet((1, 3), 3), IndexSet((2,), 3)])
    assert np.abs(got - worked_inverse).max() <= 1e-12


def test_sequential_inverse_identity():
    parts = [IndexSet((i,), 4) for i in range(1, 5)]
    assert np.array_equal(sequential_inverse(np.eye(4), parts), np.eye(4))


def test_sequential_inverse_singletons_match_lu():
    rng = np.random.default_rng(62)
    a = rng.uniform(-1.0, 1.0, (8, 8))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    parts = [IndexSet((i,), 8) for i in range(1, 9)]
    got = sequential_inverse(a, parts)
    assert np.abs(a @ got - np.eye(8)).max() <= 1e-8 * 8


def test_sequential_inverse_validates_partition(worked_matrix):
    with pytest.raises(PartitionError):
        sequential_inverse(worked_matrix, [IndexSet((1, 2), 3), IndexSet((2, 3), 3)])
    with pytest.raises(PartitionError):
        sequential_inverse(worked_matrix, [IndexSet((1,), 3)])
    with pytest.raises(PartitionError):
        sequential_inverse(worked_matrix, [])


def test_sequential_inverse_reports_failing_stage(stiff_iteration_matrix):
    # every diagonal entry is zero, so the first singleton stage must fail
    parts = [IndexSet((i,), 3) for i in range(1, 4)]
    with pytest.raises(SingularBlockError) as info:
        sequential_inverse(stiff_iteration_matrix, parts)
    assert "stage 1" in str(info.value)


# --- determinant and inverse identities ------------------------------------

def test_ppt_det_pin(worked_matrix):
    assert ppt_det(worked_matrix, IndexSet((1, 3), 3)) == pytest.approx(-1.0)


def test_ppt_det_edge_cases(worked_matrix):
    assert ppt_det(worked_matrix, IndexSet.empty(3)) == pytest.approx(5.0)
    assert ppt_det(worked_matrix, IndexSet.full(3)) == pytest.approx(0.2)


def test_ppt_det_matches_formed_transform():
    rng = np.random.default_rng(111)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a, alpha = random_pivotable(rng, n)
        want = lu_determinant(ppt(a, alpha))
        assert ppt_det(a, alpha) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_ppt_det_when_block_determinants_overflow():
    # det A[alpha] and det A(alpha) are both near 1e416 here, far beyond
    # the float range, while their ratio is moderate
    n = 600
    a = np.random.default_rng(0).standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
    half = n // 2
    sign_q, log_q = np.linalg.slogdet(a[half:, half:])
    sign_p, log_p = np.linalg.slogdet(a[:half, :half])
    want = sign_q * sign_p * np.exp(log_q - log_p)
    got = ppt_det(a, IndexSet(range(1, half + 1), n))
    assert got == pytest.approx(want, rel=1e-9)
    assert got == pytest.approx(0.4385, abs=1e-4)


def test_ppt_inverse_pin(worked_matrix):
    b = ppt(worked_matrix, IndexSet((1, 3), 3))
    binv = ppt_inverse(worked_matrix, IndexSet((1, 3), 3))
    assert np.allclose(binv, ppt(worked_matrix, IndexSet((2,), 3)))
    assert np.abs(b @ binv - np.eye(3)).max() <= 1e-9 * 3


def test_ppt_inverse_random():
    rng = np.random.default_rng(222)
    done = 0
    while done < 60:
        n = int(rng.integers(2, 9))
        a, alpha = random_pivotable(rng, n)
        comp = alpha.complement()
        if len(comp):
            blk = a[np.ix_(comp.zero_based, comp.zero_based)]
            if abs(np.linalg.det(blk)) < 1e-3:
                continue
        prod = ppt(a, alpha) @ ppt_inverse(a, alpha)
        assert np.abs(prod - np.eye(n)).max() <= 1e-9 * n
        done += 1


def test_ppt_inverse_names_offending_block():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])  # A({1}) = [0] is singular
    with pytest.raises(SingularBlockError) as info:
        ppt_inverse(a, IndexSet((1,), 2))
    assert "complementary" in str(info.value)


# --- flop accounting --------------------------------------------------------

def test_flop_estimate_pins():
    assert flop_estimate(1).predicted_ppt_inversion == 0
    assert flop_estimate(3).predicted_ppt_inversion == 13
    assert flop_estimate(5).predicted_ppt_inversion == 54
    assert flop_estimate(10).predicted_ppt_inversion == 384
    assert flop_estimate(3).predicted_lu_inversion == 23
    assert flop_estimate(5).predicted_lu_inversion == 105
    assert flop_estimate(10).predicted_lu_inversion == 834


def test_flop_estimate_measures_when_given_matrix():
    a = random_p_matrix(5, 99)
    report = flop_estimate(5, matrix=a)
    assert report.measured == 54


def test_counted_singleton_inverse_exact_counts():
    for n, seed in ((3, 11), (5, 12), (10, 13)):
        a = random_p_matrix(n, seed)
        inv, flops = counted_singleton_inverse(a)
        assert flops == n * (n + 1) * (2 * n + 1) // 6 - 1
        assert np.abs(inv - np.linalg.inv(a)).max() <= 1e-8 * n


def test_counted_singleton_inverse_feeds_ambient_counter():
    a = random_p_matrix(4, 5)
    with count_flops() as counter:
        counted_singleton_inverse(a)
    assert counter.count == 4 * 5 * 9 // 6 - 1


def test_count_flops_nesting():
    a = random_p_matrix(3, 1)
    with count_flops() as outer:
        ppt_single(a, 1)
        with count_flops() as inner:
            ppt_single(a, 2)
        ppt_single(a, 3)
    assert inner.count == 9
    assert outer.count == 18  # the inner context hides its own work
