import itertools

import numpy as np
import pytest

from pivotkit import (
    CapacityError,
    IndexSet,
    NotOrthogonalError,
    SingularBlockError,
    block_inverse,
    exchange_vectors,
    is_p_matrix,
    is_semipositive,
    is_z_matrix,
    lu_determinant,
    make_s_orthogonal,
    minor_table,
    ppt,
    principal_minors,
    random_orthogonal,
    random_p_matrix,
    schur_complement,
    signature_plus_set,
)
from pivotkit import classify, core
from pivotkit.classify import P_MINOR_RTOL

M_MATRIX = np.array([[3.0, -1.0, -1.0],
                     [-1.0, 3.0, -1.0],
                     [-1.0, -1.0, 3.0]])


def all_subsets(n):
    for mask in range(2 ** n):
        yield IndexSet([i + 1 for i in range(n) if mask >> i & 1], n)


# --- P-matrix test ----------------------------------------------------------

def test_p_test_worked_matrix(worked_matrix):
    cert = is_p_matrix(worked_matrix)
    assert not cert.verdict
    assert tuple(cert.witness) == (1, 2)
    assert not cert  # certificate is falsy when the verdict is


def test_p_test_identity():
    cert = is_p_matrix(np.eye(4))
    assert cert.verdict
    assert cert.witness is None
    assert bool(cert)


def test_p_test_stiff_matrix(stiff_system):
    a, _ = stiff_system
    cert = is_p_matrix(a)
    assert not cert.verdict
    assert tuple(cert.witness) == (1, 2)  # 1 - 9/4 < 0


def test_p_test_capacity_guard():
    with pytest.raises(CapacityError):
        is_p_matrix(np.eye(21))


def test_p_witness_is_lexicographically_first():
    # failing subsets are (2,), (3,), (1,2), (1,3); tuple order puts (1,2) first
    a = np.diag([1.0, -1.0, -1.0])
    cert = is_p_matrix(a)
    assert tuple(cert.witness) == (1, 2)
    # (1,2,3) comes before (1,3), (2,3) and (3,) in tuple order
    cert = is_p_matrix(np.diag([1.0, 2.0, -1.0, 4.0]))
    assert tuple(cert.witness) == (1, 2, 3)
    # failing subsets are (2,), (1,3), (2,3): bitmask order puts (2,) first
    a = np.array([[1.0, 2.0, 2.0],
                  [-2.0, -1.0, 0.0],
                  [2.0, 0.0, 1.0]])
    cert = is_p_matrix(a)
    assert tuple(cert.witness) == (1, 3)


# entries near 1 behind a leading pivot near 1e-10: each determinant lies
# dozens of thresholds from P_MINOR_RTOL * (1 + ||A||**3), on the side
# np.linalg.det gives
SMALL_PIVOT_NOT_P = np.array([
    [3.101800698045414e-10, -0.621786856062735, -0.9293080648969505],
    [0.24807096894664946, 0.45302561340391473, 0.8004067400275613],
    [0.7351567048606269, 0.05379187380443212, 0.44586957767182994]])
SMALL_PIVOT_P = np.array([
    [3.859602901383563e-10, 0.6257900091852134, 0.9989871749073957],
    [-0.42647846375943543, 0.4790465751581733, 1.8097559835992225],
    [-0.5274410175485961, 0.002181131703878056, 1.2959008447761826]])


@pytest.mark.parametrize("a, want", [(SMALL_PIVOT_NOT_P, (False, (1, 2, 3))),
                                     (SMALL_PIVOT_P, (True, None))])
def test_p_test_behind_a_small_leading_pivot(a, want):
    norm = float(np.abs(a).sum(axis=1).max())
    det = np.linalg.det(a)
    assert abs(det) > 30 * P_MINOR_RTOL * (1.0 + norm ** 3)
    assert (det > 0) == want[0]
    cert = is_p_matrix(a)
    got = (cert.verdict, None if cert.witness is None else tuple(cert.witness))
    assert got == want


@pytest.mark.parametrize("scale", [1e40, 1e150])
def test_p_test_of_a_large_norm_matrix(scale):
    a = scale * random_p_matrix(12, 1)
    assert is_p_matrix(a).verdict
    a[2, 2] = -a[2, 2]
    cert = is_p_matrix(a)
    assert not cert.verdict
    assert cert.witness == is_p_matrix(a / scale).witness


# --- fixture generator ------------------------------------------------------

def test_random_p_matrix_order_one():
    a = random_p_matrix(1, 0)
    assert a.shape == (1, 1) and a[0, 0] > 0


def test_random_p_matrix_seeded_verdicts():
    assert is_p_matrix(random_p_matrix(5, 42)).verdict
    table = principal_minors(random_p_matrix(8, 7))
    positives = [v for key, v in table.items() if key]
    assert len(positives) == 255
    assert min(positives) > 0.0


def test_random_p_matrix_deterministic():
    assert np.array_equal(random_p_matrix(6, 3), random_p_matrix(6, 3))
    assert not np.array_equal(random_p_matrix(6, 3), random_p_matrix(6, 4))


def test_random_p_matrix_diagonal_dominance():
    a = random_p_matrix(7, 11)
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    assert np.all(np.diag(a) > off)


# --- Z-matrix test ----------------------------------------------------------

def test_z_test_pins(worked_matrix, stiff_system):
    assert is_z_matrix(np.eye(3))
    assert is_z_matrix(stiff_system[0])
    assert not is_z_matrix(worked_matrix)
    assert is_z_matrix(M_MATRIX)


def test_z_test_ignores_diagonal_sign():
    assert is_z_matrix(np.diag([-5.0, 2.0]))


@pytest.mark.parametrize("test", [is_p_matrix, is_z_matrix, is_semipositive])
def test_class_tests_leave_their_argument_unchanged(test, worked_matrix):
    # each test works on its validated copy, never on the caller's array
    for a in (worked_matrix, M_MATRIX, np.diag([-5.0, 2.0]),
              np.asfortranarray(random_p_matrix(4, 2))):
        before = a.copy()
        test(a)
        assert np.array_equal(a, before)


# --- semipositivity ---------------------------------------------------------

def test_semipositive_identity():
    cert = is_semipositive(np.eye(3))
    assert cert.verdict
    assert np.all(cert.witness > 0)
    assert np.all(np.eye(3) @ cert.witness > 0)


def test_semipositive_negated_identity():
    cert = is_semipositive(-np.eye(3))
    assert not cert.verdict
    assert cert.witness is None


def test_semipositive_stiff_matrix(stiff_system):
    # a Z-matrix with a negative principal minor admits no positive image
    assert not is_semipositive(stiff_system[0]).verdict


def test_semipositive_p_fixtures():
    for seed in range(8):
        n = 3 + seed % 4
        a = random_p_matrix(n, seed)
        cert = is_semipositive(a)
        assert cert.verdict
        assert np.all(cert.witness > 0)
        assert np.all(a @ cert.witness > 0)


def test_semipositive_single_entry():
    assert is_semipositive(np.array([[0.5]])).verdict
    assert not is_semipositive(np.array([[-0.5]])).verdict


def test_semipositive_after_a_tableau_blow_up():
    # a P-matrix (diagonal plus a small skew part) on which one small pivot
    # grows the tableau to about 1e7; the next reduced cost, -1.2e-9, is
    # rounding noise of that size and must not enter
    a = np.array([
        [1.1428454776166908, -0.011174035805144977, -0.04186377499429581,
         -0.006000005062263867, -0.0037270336994439726, -0.05725004973355348],
        [0.011174035805144977, 1.0863245120464327, 0.047015558363498175,
         0.013016494458497604, 0.05075806109149398, 0.003149130815406638],
        [0.04186377499429581, -0.047015558363498175, 1.1656185411579707,
         -0.06913604582749364, -0.0027364543782868317, -0.0018271851140394257],
        [0.006000005062263867, -0.013016494458497604, 0.06913604582749364,
         1.0175170356602552, 0.00034149568938027924, 0.0502411826864647],
        [0.0037270336994439726, -0.05075806109149398, 0.0027364543782868317,
         -0.00034149568938027924, 1.0885790302714848, -0.06276748725849918],
        [0.05725004973355348, -0.003149130815406638, 0.0018271851140394257,
         -0.0502411826864647, 0.06276748725849918, 1.15949445525356],
    ])
    assert is_p_matrix(a).verdict
    cert = is_semipositive(a)
    assert cert.verdict
    assert np.all(cert.witness > 0)
    assert np.all(a @ cert.witness > 0)


def _phase_one_by_loops(a):
    # the phase-one simplex entry by entry, the reference for the array
    # operations of classify._phase_one_feasible
    tol, feas_tol = classify._SIMPLEX_TOL, classify._SIMPLEX_FEAS_TOL
    n = a.shape[0]
    r = 1.0 - a.sum(axis=1)
    flip = np.where(r < 0.0, -1.0, 1.0)
    tab = np.zeros((n + 1, 3 * n + 1))
    tab[:n, :n] = a * flip[:, None]
    tab[:n, n:2 * n] = np.diag(-flip)
    tab[:n, 2 * n:3 * n] = np.eye(n)
    tab[:n, -1] = r * flip
    tab[n, :] = -tab[:n, :].sum(axis=0)
    tab[n, 2 * n:3 * n] = 0.0
    basis = list(range(2 * n, 3 * n))
    while True:
        entering = next((j for j in range(3 * n) if tab[n, j] < -tol * max(
            1.0, float(np.abs(tab[:n, j]).max()))), -1)
        if entering < 0:
            if -tab[n, -1] > feas_tol:
                return None
            x = np.ones(n)
            for row, var in enumerate(basis):
                if var < n:
                    x[var] += max(0.0, tab[row, -1])
            return x
        leaving, best = -1, np.inf
        for i in range(n):
            coef = tab[i, entering]
            if coef > tol:
                ratio = tab[i, -1] / coef
                if ratio < best - tol or (
                        abs(ratio - best) <= tol
                        and (leaving < 0 or basis[i] < basis[leaving])):
                    leaving, best = i, ratio
        tab[leaving, :] /= tab[leaving, entering]
        for i in range(n + 1):
            if i != leaving and tab[i, entering] != 0.0:
                tab[i, :] -= tab[i, entering] * tab[leaving, :]
        basis[leaving] = entering


def test_phase_one_matches_the_loop_reference():
    for n in range(1, 11):
        for seed in range(6):
            rng = np.random.default_rng([71, n, seed])
            for a in (random_p_matrix(n, 7000 + 10 * n + seed),
                      rng.standard_normal((n, n)),
                      rng.integers(-3, 4, (n, n)).astype(float),
                      -rng.uniform(0.0, 1.0, (n, n)) + np.diag(rng.uniform(-0.5, 0.5, n))):
                want = _phase_one_by_loops(a)
                got = classify._phase_one_feasible(a)
                if want is None:
                    assert got is None
                else:
                    assert np.array_equal(got, want)


# --- preservation properties ------------------------------------------------

def test_p_preserved_by_every_transform():
    for seed in range(10):
        n = 2 + seed % 5
        a = random_p_matrix(n, 100 + seed)
        for alpha in all_subsets(n):
            assert is_p_matrix(ppt(a, alpha)).verdict


def test_p_transform_back_implication():
    # if one transform is P, so is the source (run through an involution)
    rng = np.random.default_rng(5)
    for seed in range(10):
        n = 2 + seed % 5
        p = random_p_matrix(n, 200 + seed)
        k = int(rng.integers(0, n + 1))
        alpha = IndexSet(sorted(rng.choice(n, size=k, replace=False) + 1), n)
        a = ppt(p, alpha)
        assert is_p_matrix(ppt(a, alpha)).verdict  # == p
        assert is_p_matrix(a).verdict


def test_schur_complements_of_p_are_p():
    for seed in range(10):
        n = 2 + seed % 5
        a = random_p_matrix(n, 300 + seed)
        for alpha in all_subsets(n):
            if len(alpha) == n:
                continue
            assert is_p_matrix(schur_complement(a, alpha)).verdict


def test_inverse_of_p_is_p():
    for seed in range(10):
        n = 2 + seed % 5
        a = random_p_matrix(n, 400 + seed)
        alpha = IndexSet(tuple(range(1, n // 2 + 1)), n)
        assert is_p_matrix(block_inverse(a, alpha)).verdict


def test_semipositivity_preserved_with_witness_transfer():
    # u carries the semipositivity witness across the transform: with
    # y = A x, u interleaves x and y so u > 0 and B u = v > 0
    count = 0
    for seed in range(12):
        n = 2 + seed % 5
        a = random_p_matrix(n, 500 + seed)
        cert = is_semipositive(a)
        assert cert.verdict
        x = cert.witness
        for alpha in all_subsets(n):
            try:
                b = ppt(a, alpha)
            except SingularBlockError:
                continue
            u, v = exchange_vectors(a, alpha, x)
            assert np.all(u > 0) and np.all(v > 0)
            assert np.abs(b @ u - v).max() <= 1e-9 * (1 + np.abs(v).max())
            assert is_semipositive(b).verdict
            count += 1
    assert count >= 100


def test_transforms_can_break_z_structure():
    # an M-matrix whose transform has a positive off-diagonal entry
    assert is_z_matrix(M_MATRIX) and is_p_matrix(M_MATRIX).verdict
    b = ppt(M_MATRIX, IndexSet((1,), 3))
    assert not is_z_matrix(b)
    assert b[0, 1] == pytest.approx(1.0 / 3.0)


# --- orthogonal factory and S-orthogonality ---------------------------------

def test_random_orthogonal_residuals():
    for n, seed in ((1, 0), (3, 1), (6, 9), (8, 4)):
        r = random_orthogonal(n, seed)
        assert np.abs(r.T @ r - np.eye(n)).max() <= 1e-12 * max(1, n)
        assert abs(abs(lu_determinant(r)) - 1.0) <= 1e-10


def test_random_orthogonal_deterministic():
    assert np.array_equal(random_orthogonal(5, 2), random_orthogonal(5, 2))


def test_random_orthogonal_order_one():
    r = random_orthogonal(1, 3)
    assert r.shape == (1, 1) and abs(r[0, 0]) == pytest.approx(1.0)


def test_signature_plus_set():
    plus = signature_plus_set(np.array([1.0, -1.0, 1.0, -1.0]))
    assert tuple(plus) == (1, 3)
    with pytest.raises(ValueError):
        signature_plus_set(np.array([1.0, 0.5]))


def test_s_orthogonal_identity_signature():
    r = random_orthogonal(4, 3)
    q = make_s_orthogonal(np.ones(4), r)
    assert np.abs(q - r.T).max() <= 1e-12


def test_s_orthogonal_negated_signature():
    r = random_orthogonal(4, 3)
    q = make_s_orthogonal(-np.ones(4), r)
    assert np.array_equal(q, r)


def test_s_orthogonal_mixed_signature_pin():
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    q = make_s_orthogonal(signs, random_orthogonal(4, 5))
    s = np.diag(signs)
    assert np.abs(q.T @ s @ q - s).max() <= 1e-8 * 4


def test_s_orthogonal_congruence_grid():
    for n in range(2, 9):
        for seed in range(20):
            r = random_orthogonal(n, seed)
            rng = np.random.default_rng(1000 * n + seed)
            signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            q = make_s_orthogonal(signs, r)
            s = np.diag(signs)
            assert np.abs(q.T @ s @ q - s).max() <= 1e-8 * n


def test_s_orthogonal_rejects_non_orthogonal():
    r = random_orthogonal(3, 1)
    r[0, 0] += 1e-6
    with pytest.raises(NotOrthogonalError):
        make_s_orthogonal(np.array([1.0, -1.0, 1.0]), r)


def test_s_orthogonal_rejects_bad_signature():
    r = random_orthogonal(3, 1)
    with pytest.raises(ValueError):
        make_s_orthogonal(np.array([1.0, 2.0, -1.0]), r)
    with pytest.raises(ValueError):
        make_s_orthogonal(np.ones(4), r)


# --- P-test against a brute-force scan --------------------------------------

def brute_force_p_test(a):
    """Verdict and witness of a lexicographic scan with np.linalg.det."""
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max()) if n else 0.0
    subsets = sorted(c for k in range(1, n + 1)
                     for c in itertools.combinations(range(1, n + 1), k))
    for beta in subsets:
        idx = np.array(beta) - 1
        if np.linalg.det(a[np.ix_(idx, idx)]) <= P_MINOR_RTOL * (
                1.0 + norm ** len(beta)):
            return False, beta
    return True, None


def p_test_families(rng, n):
    yield rng.uniform(-1.0, 1.0, (n, n))
    if n == 0:
        return
    yield random_p_matrix(n, int(rng.integers(2**31)))
    perturbed = random_p_matrix(n, int(rng.integers(2**31)))
    i, j = rng.integers(n, size=2)
    perturbed[i, j] += 3.0 * rng.standard_normal()
    yield perturbed
    # small integers: many minors are exactly zero
    yield rng.integers(-3, 4, (n, n)).astype(float)
    g = rng.standard_normal((n, n))
    s = rng.standard_normal((n, n))
    yield (g @ g.T + 0.1 * np.eye(n) + s - s.T) * 10.0 ** rng.uniform(-3, 3)
    # ill-conditioned triangular P-matrix
    yield (np.triu(rng.uniform(-1e3, 1e3, (n, n)), 1)
           + np.diag(10.0 ** rng.uniform(-4, 2, n)))


def test_p_test_matches_brute_force_scan():
    rng = np.random.default_rng(2024)
    verdicts = set()
    for n in range(10):  # n = 0 included: the empty matrix is P
        for _ in range(4):
            for a in p_test_families(rng, n):
                cert = is_p_matrix(a)
                want = brute_force_p_test(a)
                got = (cert.verdict,
                       None if cert.witness is None else tuple(cert.witness))
                assert got == want, (n, a)
                verdicts.add(cert.verdict)
    assert verdicts == {True, False}


def test_p_test_reads_one_minor_table(monkeypatch):
    calls = []

    def counted(a):
        calls.append(len(a))
        return minor_table(a)

    monkeypatch.setattr(core, "minor_table", counted)
    assert is_p_matrix(random_p_matrix(10, 3)).verdict
    assert calls == [10]


def test_p_test_at_the_enumeration_guard():
    assert is_p_matrix(random_p_matrix(20, 0)).verdict
    with pytest.raises(CapacityError):
        is_p_matrix(random_p_matrix(21, 0))


def test_generators_reject_empty_orders():
    with pytest.raises(ValueError, match="at least 1"):
        random_p_matrix(0, seed=1)
    with pytest.raises(ValueError, match="at least 1"):
        random_orthogonal(0, seed=1)
    with pytest.raises(ValueError, match="nonempty"):
        signature_plus_set([])


def least_failing_set(fails):
    """min of the failing sets as sorted tuples.  Sorted tuples compare as
    their members in ascending order padded with 0, so keep the sets whose
    next member is least, one member at a time, until one runs out."""
    rest = np.flatnonzero(fails)
    witness = []
    while True:
        low = rest & -rest  # each set's next member as a bit; 0 once it runs out
        least = int(low.min())
        if least == 0:
            return tuple(witness)
        rest = rest[low == least] ^ least
        witness.append(least.bit_length())


def failing_mask_families(n):
    """(family, failing mask, its least failing set or None if not pinned)."""
    rng = np.random.default_rng([n, 25])
    for family, where, least in (("only the full set", -1, tuple(range(1, n + 1))),
                                 ("only {n}", 1 << n - 1, (n,)),
                                 ("every set holding 1", slice(1, None, 2), (1,))):
        fails = np.zeros(1 << n, dtype=bool)
        fails[where] = True
        yield family, fails, least
    for density in (0.001, 0.01, 0.1, 0.5, 0.9):
        fails = rng.random(1 << n) < density
        fails[0] = False
        yield f"density {density}", fails, None


@pytest.mark.parametrize("n", range(1, 21))
def test_p_witness_from_a_table_of_signs(monkeypatch, n):
    # a set fails exactly where the table reads -1; the search reads only
    # the table, so every order up to the guard is cheap to cover
    for family, fails, least in failing_mask_families(n):
        table = np.where(fails, -1.0, 1.0)
        monkeypatch.setattr(core, "minor_table", lambda a: table)
        cert = is_p_matrix(np.eye(n))
        if not fails.any():
            assert cert.verdict and cert.witness is None, family
            continue
        want = least_failing_set(fails)
        if n <= 10:  # the tuple minimum itself, where listing the sets is cheap
            assert want == min(tuple(i + 1 for i in range(n) if mask >> i & 1)
                               for mask in np.flatnonzero(fails).tolist())
        assert least in (None, want), family
        assert not cert.verdict, family
        assert tuple(cert.witness) == want, family


def test_random_p_matrix_rejects_a_non_integral_order():
    with pytest.raises(ValueError, match="integer"):
        random_p_matrix(2.7, 0)
    assert np.array_equal(random_p_matrix(2.0, 0), random_p_matrix(2, 0))
    assert np.array_equal(random_p_matrix(np.int64(3), 0), random_p_matrix(3, 0))


def test_random_orthogonal_rejects_a_non_integral_order():
    with pytest.raises(ValueError, match="integer"):
        random_orthogonal(2.7, 0)
    assert np.array_equal(random_orthogonal(2.0, 0), random_orthogonal(2, 0))
    assert np.array_equal(random_orthogonal(np.int64(3), 0), random_orthogonal(3, 0))
