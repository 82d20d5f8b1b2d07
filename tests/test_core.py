import numpy as np
import pytest

from pivotkit import (
    CapacityError,
    IndexSet,
    SingularBlockError,
    basic_factorization,
    block_inverse,
    det_plus_diagonal,
    exchange_vectors,
    lu_determinant,
    ppt,
    ppt_charpoly,
    ppt_det,
    ppt_inverse,
    principal_minors,
    principal_submatrix,
    schur_complement,
    singularity_check,
    submatrix,
)


def test_submatrix_selection(worked_matrix):
    a = worked_matrix
    rows = IndexSet((1, 3), 3)
    got = submatrix(a, rows, rows)
    assert np.array_equal(got, [[1.0, 1.0], [2.0, 1.0]])


def test_submatrix_rectangular_selection():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (5, 5))
    got = submatrix(a, IndexSet((2, 4), 5), IndexSet((1, 5), 5))
    expect = [[a[1, 0], a[1, 4]], [a[3, 0], a[3, 4]]]
    assert np.array_equal(got, expect)


def test_submatrix_empty_selection(worked_matrix):
    got = submatrix(worked_matrix, IndexSet.empty(3), IndexSet.empty(3))
    assert got.shape == (0, 0)


def test_submatrix_full_selection_is_identity_copy(worked_matrix):
    got = submatrix(worked_matrix, IndexSet.full(3), IndexSet.full(3))
    assert np.array_equal(got, worked_matrix)
    got[0, 0] = 99.0
    assert worked_matrix[0, 0] == 1.0  # caller's matrix untouched


def test_principal_submatrix(worked_matrix):
    got = principal_submatrix(worked_matrix, IndexSet((2,), 3))
    assert np.array_equal(got, [[1.0]])


def test_lu_determinant_pins(worked_matrix):
    assert lu_determinant(np.array([[1.0, 2.0], [1.0, 2.0]])) == pytest.approx(0.0, abs=1e-12)
    assert lu_determinant(np.eye(4)) == pytest.approx(1.0)
    assert lu_determinant(worked_matrix) == pytest.approx(5.0, rel=1e-12)
    assert lu_determinant(np.zeros((0, 0))) == 1.0


def test_lu_determinant_matches_numpy():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, (n, n))
        want = np.linalg.det(a)
        assert lu_determinant(a) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_schur_complement_pin(worked_matrix):
    s = schur_complement(worked_matrix, IndexSet((1, 3), 3))
    assert s.shape == (1, 1)
    assert s[0, 0] == pytest.approx(-5.0, rel=1e-12)


def test_schur_complement_empty_pivot(worked_matrix):
    s = schur_complement(worked_matrix, IndexSet.empty(3))
    assert np.array_equal(s, worked_matrix)


def test_schur_complement_of_iteration_matrix(stiff_iteration_matrix):
    s = schur_complement(stiff_iteration_matrix, IndexSet((1, 2), 3))
    assert s[0, 0] == pytest.approx(-11.0 / 12.0, rel=1e-12)


def test_schur_determinant_identity():
    # det(A / A[alpha]) * det A[alpha] = det A
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1.0, 1.0, (n, n))
        k = int(rng.integers(1, n))
        alpha = IndexSet(sorted(rng.choice(n, size=k, replace=False) + 1), n)
        block = a[np.ix_(alpha.zero_based, alpha.zero_based)]
        if abs(np.linalg.det(block)) < 1e-3:
            continue
        s = schur_complement(a, alpha)
        want = np.linalg.det(a) / np.linalg.det(block)
        assert abs(lu_determinant(s) - want) <= 1e-9 * (1.0 + abs(want))
        checked += 1


def test_schur_singular_block_raises(stiff_iteration_matrix):
    with pytest.raises(SingularBlockError) as info:
        schur_complement(stiff_iteration_matrix, IndexSet((1,), 3))
    assert tuple(info.value.indices) == (1,)


def test_principal_minors_pins(worked_matrix):
    table = principal_minors(worked_matrix)
    assert table[()] == 1.0
    assert table[(1,)] == pytest.approx(1.0)
    assert table[(2,)] == pytest.approx(1.0)
    assert table[(3,)] == pytest.approx(1.0)
    assert table[(1, 2)] == pytest.approx(-1.0)
    assert table[(1, 3)] == pytest.approx(-1.0)
    assert table[(2, 3)] == pytest.approx(1.0)
    assert table[(1, 2, 3)] == pytest.approx(5.0)
    assert len(table) == 8


def test_principal_minors_identity():
    table = principal_minors(np.eye(3))
    assert all(v == pytest.approx(1.0) for v in table.values())


def test_principal_minors_diagonal():
    table = principal_minors(np.diag([2.0, 3.0]))
    assert set(table) == {(), (1,), (2,), (1, 2)}
    for key, want in (((), 1.0), ((1,), 2.0), ((2,), 3.0), ((1, 2), 6.0)):
        assert table[key] == pytest.approx(want, rel=1e-12)


def test_principal_minors_max_order():
    a = np.diag([2.0, 3.0, 4.0])
    table = principal_minors(a, max_order=1)
    assert set(table) == {(), (1,), (2,), (3,)}


def test_principal_minors_top_minor_is_determinant():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        a = rng.uniform(-1.0, 1.0, (n, n))
        table = principal_minors(a)
        want = lu_determinant(a)
        assert table[tuple(range(1, n + 1))] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_principal_minors_capacity_guard():
    with pytest.raises(CapacityError):
        principal_minors(np.eye(21))


def test_det_plus_diagonal_zero_matrix():
    d = np.array([2.0, -3.0, 0.5])
    assert det_plus_diagonal(np.zeros((3, 3)), d) == pytest.approx(-3.0)


def test_det_plus_diagonal_order_one():
    assert det_plus_diagonal(np.array([[4.0]]), [2.5]) == pytest.approx(6.5)


def test_det_plus_diagonal_vs_lu(worked_matrix):
    got = det_plus_diagonal(worked_matrix, np.ones(3))
    want = lu_determinant(worked_matrix + np.eye(3))
    assert got == pytest.approx(want, rel=1e-10)


def test_det_plus_diagonal_random_agreement():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        a = rng.uniform(-1.0, 1.0, (n, n))
        d = rng.uniform(-1.0, 1.0, n)
        got = det_plus_diagonal(a, d)
        want = lu_determinant(a + np.diag(d))
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_det_plus_diagonal_complex_entries():
    a = np.array([[0.0, 1.0], [-2.0, 0.0]])
    d = np.array([1j, 1j])
    got = det_plus_diagonal(a, d)
    assert got == pytest.approx(np.linalg.det(a + np.diag(d)))


def test_det_plus_diagonal_capacity_guard():
    with pytest.raises(CapacityError):
        det_plus_diagonal(np.eye(22), np.ones(22))


def test_block_inverse_pin(worked_matrix, worked_inverse):
    got = block_inverse(worked_matrix, IndexSet((1, 3), 3))
    assert np.allclose(got, worked_inverse, atol=1e-12)


def test_block_inverse_identity():
    for k in range(4):
        alpha = IndexSet(tuple(range(1, k + 1)), 3)
        assert np.allclose(block_inverse(np.eye(3), alpha), np.eye(3))


def test_block_inverse_matches_lu_route():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, (6, 6)) + 2.0 * np.eye(6)
    got = block_inverse(a, IndexSet((1, 2, 3), 6))
    assert np.allclose(got, np.linalg.inv(a), atol=1e-9)


def test_block_inverse_random_product():
    rng = np.random.default_rng(91)
    done = 0
    while done < 50:
        n = int(rng.integers(2, 8))
        a = rng.uniform(-1.0, 1.0, (n, n)) + np.eye(n) * n
        k = int(rng.integers(1, n))
        alpha = IndexSet(sorted(rng.choice(n, size=k, replace=False) + 1), n)
        got = block_inverse(a, alpha)
        assert np.abs(a @ got - np.eye(n)).max() <= 1e-9
        done += 1


def test_block_inverse_names_failing_block():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # A[{1}] = [0]
    with pytest.raises(SingularBlockError) as info:
        block_inverse(a, IndexSet((1,), 2))
    assert "singular" in str(info.value)


def test_block_inverse_needs_only_the_block_and_its_schur_complement():
    a = np.array([[1.0, 1.0], [1.0, 0.0]])  # A({1}) = [0], A/A[{1}] = [-1]
    assert np.array_equal(block_inverse(a, IndexSet((1,), 2)), np.linalg.inv(a))


def test_block_inverse_names_a_singular_schur_complement():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])  # A/A[{1}] = [0]
    with pytest.raises(SingularBlockError) as info:
        block_inverse(a, IndexSet((1,), 2))
    assert "Schur complement" in str(info.value)
    assert info.value.indices == IndexSet((2,), 2)


# every operation that needs A[alpha] invertible factors it in one place
KERNEL_USERS = {
    "ppt": ppt,
    "block_inverse": block_inverse,
    "schur_complement": schur_complement,
    "ppt_inverse": ppt_inverse,
    "ppt_det": ppt_det,
    "exchange_vectors": lambda a, al: exchange_vectors(a, al, np.ones(3)),
    "basic_factorization": basic_factorization,
    "singularity_check": singularity_check,
    "ppt_charpoly": ppt_charpoly,
}


@pytest.mark.parametrize("name", sorted(KERNEL_USERS))
def test_singular_pivot_block_is_named(name):
    a = np.array([[1.0, 1.0, 0.0],
                  [1.0, 1.0, 2.0],
                  [3.0, 0.0, 1.0]])  # A[{1,2}] is singular, A is not
    alpha = IndexSet((1, 2), 3)
    with pytest.raises(SingularBlockError) as info:
        KERNEL_USERS[name](a, alpha)
    assert info.value.indices == alpha


def test_matrix_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        lu_determinant(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_determinant(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        lu_determinant(np.array([[np.inf]]))


@pytest.mark.parametrize("order", [1, 2, 5, 12, 31, 32, 40])
def test_lu_solve_matches_getrs_bit_for_bit(order):
    # small blocks take the triangular-solve route, the rest getrs
    from scipy import linalg as sla

    from pivotkit import core

    rng = np.random.default_rng(order)
    a = rng.standard_normal((order, order))
    lup = sla.lu_factor(a)
    for cols in (1, 2, 7, order + 3):
        b = rng.standard_normal((order, cols))
        for trans in (0, 1):
            for rhs in (b, b.T.copy().T, b[:, 0]):
                want = sla.lu_solve(lup, rhs, trans=trans)
                assert np.array_equal(core._lu_solve(lup, rhs, trans), want)
