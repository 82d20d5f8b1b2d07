import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pivotkit import (
    ENUMERATION_LIMIT,
    CapacityError,
    IndexSet,
    SingularBlockError,
    as_vector,
    basic_factorization,
    block_inverse,
    det_plus_diagonal,
    exchange_vectors,
    is_p_matrix,
    lu_determinant,
    minor_table,
    ppt,
    ppt_charpoly,
    ppt_det,
    ppt_inverse,
    principal_minors,
    principal_submatrix,
    random_p_matrix,
    schur_complement,
    singularity_check,
    submatrix,
)
from pivotkit import core
from pivotkit.core import _GROWTH_RTOL, _pivot_tolerance


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


def _exact_minor_table(a):
    """det A[S] for every subset bitmask S, by elimination over the rationals."""
    n = a.shape[0]
    entries = [[Fraction(x) for x in row] for row in a.tolist()]
    table = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        m = [[entries[i][j] for j in idx] for i in idx]
        det = Fraction(1)
        for c in range(len(idx)):
            r = next((r for r in range(c, len(idx)) if m[r][c]), None)
            if r is None:
                det = Fraction(0)
                break
            if r != c:
                m[c], m[r] = m[r], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, len(idx)):
                f = m[r][c] / m[c][c]
                for j in range(c + 1, len(idx)):
                    m[r][j] -= f * m[c][j]
        table.append(det)
    return table


def _hadamard_bounds(a):
    """prod_{i in S} ||row i|| for every subset bitmask S."""
    n = a.shape[0]
    masks = np.arange(1 << n)
    rows = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    return np.where(rows, np.linalg.norm(a, axis=1), 1.0).prod(axis=1)


def _zero_diagonal(a):
    np.fill_diagonal(a, 0.0)
    return a


def _small_schur_pivot(a, pivot=1e-9):
    """Set a[k, k], k = n // 2, so that (A/A[:k])_kk is about ``pivot``:
    above the pivot test, far below its row."""
    k = a.shape[0] // 2
    a[k, k] -= a[k, k] - a[k, :k] @ np.linalg.solve(a[:k, :k], a[:k, k]) - pivot
    return a


def _small_corner(a):
    a[0, 0] = 1e-11
    return a


def _zero_then_small_pivot(a):
    # the pseudo-pivot corrections of sets holding index 1 read sets
    # computed through the small pivot of index 2
    a[0, 0] = 0.0
    a[1:2, 1:2] = 1e-11
    return a


def _zero_row_and_column(a):
    # sets holding row 1 have Hadamard bound 0, so their minors must be 0
    a[0] = 0.0
    a[:, -1] = 0.0
    return a


MINOR_FAMILIES = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, (n, n)),
    "zero row and column": lambda rng, n: _zero_row_and_column(
        rng.uniform(-1.0, 1.0, (n, n))),
    "zero diagonal": lambda rng, n: _zero_diagonal(rng.uniform(-1.0, 1.0, (n, n))),
    "integers": lambda rng, n: rng.integers(-3, 4, (n, n)).astype(float),
    "integer rank 2": lambda rng, n: (rng.integers(-3, 4, (n, 2))
                                      @ rng.integers(-3, 4, (2, n))).astype(float),
    "rank 1": lambda rng, n: np.outer(rng.uniform(-1.0, 1.0, n),
                                      rng.uniform(-1.0, 1.0, n)),
    "rank 3": lambda rng, n: rng.uniform(-1.0, 1.0, (n, 3)) @ rng.uniform(-1.0, 1.0, (3, n)),
    "graded rows": lambda rng, n: 10.0 ** -np.arange(n)[:, None] * rng.uniform(-1.0, 1.0, (n, n)),
    "graded columns": lambda rng, n: rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** -np.arange(n),
    # zero pivots in rows far below the scale of A
    "graded rows, zero diagonal": lambda rng, n: _zero_diagonal(
        10.0 ** -np.arange(n)[:, None] * rng.uniform(-1.0, 1.0, (n, n))),
    "scale 1e-6": lambda rng, n: 1e-6 * rng.uniform(-1.0, 1.0, (n, n)),
    "scale 1e6": lambda rng, n: 1e6 * rng.uniform(-1.0, 1.0, (n, n)),
    # pivots that pass the pivot test but would swell the sweep's update
    "small corner pivot": lambda rng, n: _small_corner(rng.uniform(-1.0, 1.0, (n, n))),
    "small Schur pivot": lambda rng, n: _small_schur_pivot(rng.uniform(-1.0, 1.0, (n, n))),
    "zero, then small pivot": lambda rng, n: _zero_then_small_pivot(
        rng.uniform(-1.0, 1.0, (n, n))),
}


@pytest.mark.parametrize("family", sorted(MINOR_FAMILIES))
def test_minor_table_matches_exact_minors(family):
    rng = np.random.default_rng(sorted(MINOR_FAMILIES).index(family))
    for n in list(range(1, 9)) * 2:
        a = MINOR_FAMILIES[family](rng, n)
        exact = np.array([float(m) for m in _exact_minor_table(a)])
        err = np.abs(minor_table(a) - exact)
        assert (err <= 1e-12 * _hadamard_bounds(a)).all(), (family, n)


def test_minor_table_small_accepted_pivot():
    # a 1e-11 pivot passes the pivot test; dividing through it would cost
    # about 1e-6 in det A (Hadamard's bound is about 0.6)
    a = np.array([[1e-11, 0.3, 0.7], [0.6, 0.1, 0.5], [0.2, 0.9, 0.4]])
    exact = np.array([float(m) for m in _exact_minor_table(a)])
    assert np.abs(minor_table(a) - exact).max() <= 1e-15


def test_minor_table_is_exact_when_every_level_has_zero_pivots():
    # adjacency of the 8-cycle: zero diagonal, and zero Schur pivots at
    # every level of the sweep, inside pseudo-pivoted sets too
    a = np.roll(np.eye(8), 1, axis=1) + np.roll(np.eye(8), -1, axis=1)
    got = [Fraction(m) for m in minor_table(a).tolist()]
    assert got == _exact_minor_table(a)


def test_minor_table_is_zero_on_sets_with_a_zero_row():
    # these sets have Hadamard bound 0; the pseudo-pivot corrections used
    # to leave -4.5e-44 at masks 11, 13, 14 and 1.3e-55 at mask 15
    table = minor_table(np.diag([0.0, 0.0, 0.0, 3.0000000000000003e-4, 0.0]))
    want = np.zeros(32)
    want[[0, 8]] = 1.0, 3.0000000000000003e-4
    assert np.array_equal(table, want)


def _set_first_minor_table(a):
    """The sweep with its stack stored as (2**k sets, m, m): the layout
    the minor table had before the sets moved to the last axis, kept as
    the reference that layout change must match bit for bit."""
    n = a.shape[0]
    tiny = _pivot_tolerance(float(np.abs(a).max(initial=0.0)))
    table = np.ones(1)
    stack = a[None]
    fixes = []
    for k in range(n):
        pivots = stack[:, 0, 0].copy()
        rows = stack[:, 0]
        bad = np.flatnonzero(
            (pivots ** 2 < _GROWTH_RTOL ** 2 * np.einsum("ij,ij->i", rows, rows))
            | (np.abs(pivots) < tiny))
        if bad.size:
            lift = np.maximum(_GROWTH_RTOL * np.linalg.norm(rows[bad], axis=1), tiny)
            lift = np.copysign(np.exp2(np.ceil(np.log2(lift))), pivots[bad])
            fixes.append((k, bad, lift - pivots[bad]))
            pivots[bad] = lift
        table = np.concatenate((table, table * pivots))
        rest = stack[:, 1:, 1:]
        stack = np.concatenate((rest, rest - stack[:, 1:, :1] * (
            stack[:, :1, 1:] / pivots[:, None, None])))
    for k, bad, delta in reversed(fixes):
        sets = table.reshape(-1, 2, 1 << k)
        sets[:, 1, bad] -= delta * sets[:, 0, bad]
    table[1 << np.arange(n)] = np.diag(a)
    return table


def _zero_heavy_integers(rng, n):
    # about 60 % zeros: many minors are exactly 0 and many pivots are lifted
    a = rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.4)
    return a.astype(float)


REFERENCE_FAMILIES = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, (n, n)),
    "zero diagonal": lambda rng, n: _zero_diagonal(rng.uniform(-1.0, 1.0, (n, n))),
    "1e-11 first pivot": lambda rng, n: _small_corner(rng.uniform(-1.0, 1.0, (n, n))),
    "scaled rows": lambda rng, n: (10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
                                   * rng.uniform(-1.0, 1.0, (n, n))),
    "zero-heavy integers": _zero_heavy_integers,
    "scale 1e-9": lambda rng, n: 1e-9 * rng.uniform(-1.0, 1.0, (n, n)),
    "P-matrix": lambda rng, n: random_p_matrix(n, int(rng.integers(1 << 30))),
}


def _reference_draws(family):
    rng = np.random.default_rng([24, sorted(REFERENCE_FAMILIES).index(family)])
    for n in list(range(1, 17)) * 3 + [20]:
        yield REFERENCE_FAMILIES[family](rng, n)


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_minor_table_has_the_bits_of_the_set_first_sweep(family):
    for a in _reference_draws(family):
        assert np.array_equal(minor_table(a), _set_first_minor_table(a)), a.shape


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_p_test_verdicts_match_the_set_first_sweep(family, monkeypatch):
    draws = list(_reference_draws(family))
    got = [is_p_matrix(a) for a in draws]
    monkeypatch.setattr(core, "_minor_table", _set_first_minor_table)
    for a, cert in zip(draws, got):
        want = is_p_matrix(a)
        assert (cert.verdict, cert.witness) == (want.verdict, want.witness), a.shape


def test_minor_table_at_orders_zero_to_two():
    assert np.array_equal(minor_table(np.zeros((0, 0))), [1.0])
    assert np.array_equal(minor_table([[-0.3]]), [1.0, -0.3])
    assert np.array_equal(minor_table([[2.0, 3.0], [5.0, 7.0]]), [1.0, 2.0, 7.0, -1.0])
    # a zero first pivot is lifted and corrected back exactly
    assert np.array_equal(minor_table([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0, 0.0, -1.0])
    assert principal_minors(np.zeros((0, 0))) == {(): 1.0}


def test_empty_and_order_one_consumers_of_the_minor_table():
    cert = is_p_matrix(np.zeros((0, 0)))
    assert cert.verdict is True and cert.witness is None
    assert det_plus_diagonal(np.zeros((0, 0)), np.zeros(0)) == 1.0
    assert np.array_equal(ppt_charpoly([[4.0]], IndexSet.empty(1)), [-4.0, 1.0])
    assert np.array_equal(ppt_charpoly([[4.0]], IndexSet((1,), 1)), [-0.25, 1.0])


def test_principal_minors_is_a_view_of_the_minor_table():
    a = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 7))
    table = minor_table(a)
    minors = principal_minors(a)
    assert len(minors) == len(table)
    for key, value in minors.items():
        assert value == table[IndexSet(key, 7).bitmask()]


def test_principal_minors_max_order_filters_the_table():
    a = np.random.default_rng(4).uniform(-1.0, 1.0, (9, 9))
    table = minor_table(a)
    minors = principal_minors(a, max_order=2)
    assert len(minors) == 1 + 9 + 36
    masks = [IndexSet(key, 9).bitmask() for key in minors]
    assert masks == sorted(masks)
    for key, mask in zip(minors, masks):
        assert minors[key] == table[mask]


def test_principal_minors_capacity_guard_comes_first():
    with pytest.raises(CapacityError):
        principal_minors(np.eye(21), max_order=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        principal_minors(np.eye(3), max_order=-1)


def test_minor_table_at_the_enumeration_limit():
    n = ENUMERATION_LIMIT
    rng = np.random.default_rng(20)
    a = rng.uniform(-1.0, 1.0, (n, n))
    table = minor_table(a)
    assert table.shape == (1 << n,)
    norms = np.linalg.norm(a, axis=1)
    for mask in rng.choice(1 << n, 200, replace=False):
        idx = [i for i in range(n) if mask >> i & 1]
        want = np.linalg.det(a[np.ix_(idx, idx)]) if idx else 1.0
        assert abs(table[mask] - want) <= 1e-12 * np.prod(norms[idx])


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
    # orders with more than 50 000 subsets in the sum
    for n in (16, 17, 18):
        a = rng.uniform(-1.0, 1.0, (n, n))
        d = rng.uniform(-1.0, 1.0, n)
        got = det_plus_diagonal(a, d)
        want = lu_determinant(a + np.diag(d))
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
    a = rng.uniform(-1.0, 1.0, (16, 16))
    d = rng.uniform(-1.0, 1.0, 16) + 1j * rng.uniform(-1.0, 1.0, 16)
    got = det_plus_diagonal(a, d)
    want = np.linalg.det(a + np.diag(d))
    assert isinstance(got, complex)
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


def test_block_inverse_leaves_its_input_alone():
    rng = np.random.default_rng(92)
    a = rng.uniform(-1.0, 1.0, (40, 40)) + 7.0 * np.eye(40)
    before = a.copy()
    alpha = IndexSet(tuple(sorted(rng.choice(40, size=17, replace=False) + 1)), 40)
    block_inverse(a, alpha)
    assert np.array_equal(a, before)
    # the first pivot changes the working copy before the second one fails
    ones = np.ones((2, 2))
    with pytest.raises(SingularBlockError, match="Schur complement"):
        block_inverse(ones, IndexSet((1,), 2))
    assert np.array_equal(ones, np.ones((2, 2)))


def test_minor_table_memory_with_a_small_first_pivot():
    # the 1e-11 pivot is lifted and every set holding index 1 corrected
    # after the sweep; the singleton entry is A's own diagonal
    a = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 20))
    a[0, 0] = 1e-11
    tracemalloc.start()
    try:
        table = minor_table(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[1] == 1e-11
    assert peak < 64e6


@pytest.mark.parametrize("pivots", ["small first pivot", "zero diagonal"])
def test_minor_table_memory_whatever_the_pivots(pivots):
    # lifted pivots are corrected in place and no set is recomputed, so the
    # peak is the sweep's own whatever the pivots
    a = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 20))
    if pivots == "small first pivot":
        a[0, 0] = 1e-11
    else:
        np.fill_diagonal(a, 0.0)
    tracemalloc.start()
    try:
        minor_table(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


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


@pytest.mark.parametrize("order", range(1, 41))
def test_lu_solve_matches_getrs_with_and_without_a_permutation(order):
    # both sides of _TRSM_ORDER; the permutation a pivot stage builds once
    # must give the same bits as the one each solve would build itself
    import scipy.linalg as sla

    from pivotkit import core

    rng = np.random.default_rng(1000 + order)
    a = rng.standard_normal((order, order))
    lup = sla.lu_factor(a)
    perm = core._lu_perm(lup[1])
    for cols in (1, 2, 3):
        b = rng.standard_normal((order, cols))
        for rhs in (b, np.asfortranarray(b)):
            for trans in (0, 1):
                want = sla.lu_solve(lup, rhs, trans=trans)
                assert np.array_equal(core._lu_solve(lup, rhs, trans), want)
                assert np.array_equal(
                    core._lu_solve(lup, rhs, trans, perm=perm), want)


def test_exactly_singular_block_raises_without_a_warning():
    import warnings

    from pivotkit import core, sequential_inverse

    a = np.array([[1.0, 2.0, 0.0],
                  [2.0, 4.0, 1.0],
                  [0.0, 1.0, 3.0]])  # A[{1,2}] has rank one
    alpha = IndexSet((1, 2), 3)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(SingularBlockError):
            core._lu_checked(a[:2, :2], alpha)
        with pytest.raises(SingularBlockError):
            ppt(a, alpha)
        with pytest.raises(SingularBlockError):
            sequential_inverse(a, [alpha, (3,)])
    assert seen == []


def test_det_plus_diagonal_checks_the_diagonal():
    with pytest.raises(ValueError, match="length 3"):
        det_plus_diagonal(np.eye(3), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        det_plus_diagonal(np.eye(3), [1.0, np.nan, 1.0])


def test_as_vector_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, np.inf])


def test_index_set_rejects_duplicates_and_a_negative_order():
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet((2, 2), 3)
    with pytest.raises(ValueError, match="nonnegative"):
        IndexSet((), -1)


def test_det_plus_diagonal_memory_is_the_minor_tables():
    # the table is folded one index at a time: no weight array beside it
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, (20, 20))
    d = rng.uniform(-1.0, 1.0, 20) + 1j * rng.uniform(-1.0, 1.0, 20)
    tracemalloc.start()
    try:
        got = det_plus_diagonal(a, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.linalg.det(a + np.diag(d))
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
    assert peak < 30e6


def test_as_matrix_rejects_complex_entries():
    with pytest.raises(ValueError, match="real"):
        ppt(np.array([[1j, 0.0], [0.0, 1.0]]), [2])
    with pytest.raises(ValueError, match="real"):
        ppt([[1j, 0.0], [0.0, 1.0]], [2])
    with pytest.raises(ValueError, match="real"):
        core.as_matrix(np.eye(2, dtype=complex))
    assert core.as_matrix(np.eye(2, dtype=int)).dtype == np.float64


def test_as_vector_rejects_complex_entries():
    with pytest.raises(ValueError, match="real"):
        as_vector(np.array([1.0, 2j]))
    with pytest.raises(ValueError, match="real"):
        as_vector(np.ones(2, dtype=complex), 2)
    assert as_vector([np.int64(1), 2]).dtype == np.float64


def test_index_set_rejects_non_integral_indices_and_orders():
    with pytest.raises(ValueError, match="integers"):
        IndexSet([1.5], 2)
    with pytest.raises(ValueError, match="integer"):
        IndexSet([1], 2.5)
    with pytest.raises(ValueError, match="integers"):
        ppt(np.eye(2), [1.5])
    assert IndexSet([np.int64(2), 1.0], np.int64(2)) == IndexSet((1, 2), 2)
    assert IndexSet([2.0], 2.0).n == 2


def test_principal_minors_rejects_a_non_integral_max_order():
    with pytest.raises(ValueError, match="integer"):
        principal_minors(np.eye(2), max_order=1.5)
    assert principal_minors(np.eye(2), max_order=1.0) \
        == principal_minors(np.eye(2), max_order=np.int64(1)) \
        == {(): 1.0, (1,): 1.0, (2,): 1.0}
