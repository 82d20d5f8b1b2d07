"""One rule for each principal-block question: the pivot test decides
singularity, one LU determinant serves every caller, and the Schur
complement is the alpha^c block of the transform."""
import math

import numpy as np
import pytest
import scipy.linalg

from pivotkit import (
    IndexSet,
    SingularBlockError,
    diagonal_certificate,
    lu_determinant,
    ppt,
    ppt_inverse,
    schur_complement,
    singularity_check,
)


def _reference_det(a):
    """Signed product of scipy's LU pivots, multiplied left to right."""
    lu, piv = scipy.linalg.lu_factor(a)
    det = 1.0
    for pivot in np.diag(lu).tolist():
        det *= pivot
    swaps = sum(int(p) != i for i, p in enumerate(piv))
    return -det if swaps % 2 else det


def _random_alpha(rng, n):
    mask = rng.random(n) < 0.5
    return IndexSet(tuple(int(i) + 1 for i in np.flatnonzero(mask)), n)


def test_singularity_check_is_scale_free_on_small_blocks():
    assert singularity_check(0.1 * np.eye(12), IndexSet.empty(12)) is False
    a = np.diag([1e-3, 1e-3, 1e-3, 1e-3, 1.0])
    assert singularity_check(a, IndexSet((5,), 5)) is False


def test_singularity_check_finds_a_scaled_rank_deficient_block():
    rng = np.random.default_rng(3)
    a = 1e3 * rng.uniform(-1.0, 1.0, (5, 5))
    a[:, 4] = a[:, 2] - a[:, 3]     # the columns of A(alpha) are dependent
    a[0, 0] = a[1, 1] = 1e3
    assert singularity_check(a, IndexSet((1, 2), 5)) is True


def test_singularity_check_agrees_with_ppt_inverse():
    rng = np.random.default_rng(20)
    seen = set()
    for trial in range(400):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-4, 4)
        alpha = _random_alpha(rng, n)
        q = alpha.complement().zero_based
        if trial % 3 == 0 and len(q) >= 2:
            # A(alpha) singular up to a relative perturbation
            a[q[-1]] = a[q[-2]] * (1.0 + 10.0 ** rng.uniform(-16, -8))
        try:
            flag = singularity_check(a, alpha)
        except SingularBlockError:
            with pytest.raises(SingularBlockError):
                ppt_inverse(a, alpha)
            continue
        try:
            ppt_inverse(a, alpha)
            raised = False
        except SingularBlockError as err:
            raised = err.what == "complementary principal block"
        assert flag is raised
        seen.add(flag)
    assert seen == {True, False}


def test_schur_complement_is_the_transform_block():
    rng = np.random.default_rng(40)
    for n in range(2, 41):
        a = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        alpha = _random_alpha(rng, n)
        if not alpha or len(alpha) == n:
            alpha = IndexSet((1,), n)
        q = alpha.complement().zero_based
        s = schur_complement(a, alpha)
        want = ppt(a, alpha)[np.ix_(q, q)]
        assert s.flags.c_contiguous
        assert np.abs(s - want).max() <= 1e-13 * np.abs(want).max()


def test_lu_determinant_is_the_signed_pivot_product():
    rng = np.random.default_rng(60)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-2, 2)
        want = _reference_det(a)
        assert math.isfinite(want) and abs(want) >= np.finfo(float).tiny
        got = lu_determinant(a)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_lu_determinant_survives_an_overflowing_pivot_product():
    # pivots 1e200 then 1e-200: the running product overflows, det is 1
    a = np.diag([1e200, 1e200, 1e-200, 1e-200])
    assert lu_determinant(a) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 1e-320,
                                 complex(math.nan, 0.0), complex(0.0, 1e-320)])
def test_diagonal_certificate_rejects_a_non_finite_shift(lam):
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError):
        diagonal_certificate(a, IndexSet((1,), 2), lam)
