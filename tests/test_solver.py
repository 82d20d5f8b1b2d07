import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pivotkit import solver
from pivotkit import (
    CapacityError,
    IndexSet,
    RootConvergenceError,
    SingularBlockError,
    ZeroDiagonalError,
    iterate,
    jacobi_system,
    ppt,
    roots,
    charpoly_direct,
    eigenvalues,
    select_alpha,
    solve,
    transform_fixed_point,
)

D_PIN = np.array([-2.0 / 3.0, -2.0 / 3.0, 1.0 / 3.0])


def test_jacobi_system_pin(stiff_system, stiff_iteration_matrix):
    a, b = stiff_system
    sys0 = jacobi_system(a, b)
    assert np.abs(sys0.matrix - stiff_iteration_matrix).max() <= 1e-12
    assert np.array_equal(sys0.offset, b)
    assert np.abs(np.diag(sys0.matrix)).max() == 0.0


def test_jacobi_system_identity():
    sys0 = jacobi_system(np.eye(3), np.array([4.0, 5.0, 6.0]))
    assert np.abs(sys0.matrix).max() == 0.0
    assert np.array_equal(sys0.offset, [4.0, 5.0, 6.0])


def test_jacobi_system_diagonal():
    sys0 = jacobi_system(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.abs(sys0.matrix).max() == 0.0
    assert np.array_equal(sys0.offset, [1.0, 1.0])


def test_jacobi_system_fixed_points_solve_the_system():
    rng = np.random.default_rng(90)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, (n, n))
        a += np.diag(np.sign(np.diag(a)) + np.diag(a))  # push diagonal away from 0
        b = rng.uniform(-1.0, 1.0, n)
        sys0 = jacobi_system(a, b)
        x = np.linalg.solve(a, b)
        assert np.abs(sys0.matrix @ x + sys0.offset - x).max() <= 1e-9 * (1 + np.abs(x).max())


def test_jacobi_system_zero_diagonal():
    a = np.array([[1.0, 2.0], [3.0, 0.0]])
    with pytest.raises(ZeroDiagonalError) as info:
        jacobi_system(a, np.ones(2))
    assert info.value.index == 2


def test_transform_fixed_point_pin(stiff_system):
    a, b = stiff_system
    sys0 = jacobi_system(a, b)
    sys1 = transform_fixed_point(sys0, IndexSet((1, 2), 3))
    want = np.array([[0.0, 2.0 / 3.0, -5.0 / 3.0],
                     [2.0 / 3.0, 0.0, -1.0 / 6.0],
                     [1.0 / 3.0, 1.0 / 3.0, -11.0 / 12.0]])
    assert np.abs(sys1.matrix - want).max() <= 1e-12
    assert np.abs(sys1.offset - D_PIN).max() <= 1e-12


def test_transform_fixed_point_empty(stiff_system):
    a, b = stiff_system
    sys0 = jacobi_system(a, b)
    sys1 = transform_fixed_point(sys0, IndexSet.empty(3))
    assert np.array_equal(sys1.matrix, sys0.matrix)
    assert np.array_equal(sys1.offset, sys0.offset)


def test_transform_preserves_fixed_points():
    rng = np.random.default_rng(17)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1.0, 1.0, (n, n))
        a += np.diag(np.abs(a).sum(axis=1) + 0.5)
        b = rng.uniform(-1.0, 1.0, n)
        sys0 = jacobi_system(a, b)
        k = int(rng.integers(1, n + 1))
        alpha = IndexSet(sorted(rng.choice(n, size=k, replace=False) + 1), n)
        blk = sys0.matrix[np.ix_(alpha.zero_based, alpha.zero_based)]
        if abs(np.linalg.det(blk)) < 1e-2:
            continue
        sys1 = transform_fixed_point(sys0, alpha)
        x0 = np.linalg.solve(np.eye(n) - sys0.matrix, sys0.offset)
        x1 = np.linalg.solve(np.eye(n) - sys1.matrix, sys1.offset)
        assert np.abs(x0 - x1).max() <= 1e-8 * (1.0 + np.abs(x0).max())
        done += 1


def test_iterate_divergence(stiff_system):
    a, b = stiff_system
    report = iterate(jacobi_system(a, b), np.zeros(3), 1e-10, 200)
    assert not report.converged
    assert report.iterations < 200  # stopped by the blow-up guard, not the cap
    tail = report.residual_history[-5:]
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
    assert min(ratios) >= 1.5  # sustained growth


def test_iterate_immediate_fixed_point():
    sys0 = jacobi_system(np.eye(3), np.array([1.0, 2.0, 3.0]))
    report = iterate(sys0, np.zeros(3), 1e-12, 50)
    assert report.converged
    assert report.iterations == 1
    assert np.array_equal(report.solution, [1.0, 2.0, 3.0])


def test_iterate_transformed_convergence(stiff_system):
    a, b = stiff_system
    sys1 = transform_fixed_point(jacobi_system(a, b), IndexSet((1, 2), 3))
    report = iterate(sys1, np.zeros(3), 1e-10, 10000)
    assert report.converged
    assert report.residual_history[-1] <= 1e-10
    assert report.rho_estimate == pytest.approx(2.0 / 3.0, abs=0.05)
    x = report.solution
    assert np.abs(a @ x - b).max() <= 10 * 1e-10 * np.abs(b).max()


def test_iterate_respects_budget(stiff_system):
    a, b = stiff_system
    sys1 = transform_fixed_point(jacobi_system(a, b), IndexSet((1, 2), 3))
    report = iterate(sys1, np.zeros(3), 1e-10, 7)
    assert not report.converged
    assert report.iterations == 7


@pytest.mark.parametrize("limits", [
    {"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf}, {"tol": "1e-10"},
    {"max_iter": 2.5}, {"max_iter": -5}, {"max_iter": math.inf},
    {"max_iter": None}], ids=["tol-nan", "tol-negative", "tol-inf", "tol-str",
                              "max_iter-2.5", "max_iter-negative",
                              "max_iter-inf", "max_iter-None"])
def test_solve_and_iterate_reject_limits_they_cannot_use(limits, monkeypatch):
    a, b = np.diag([2.0, 4.0]), np.ones(2)

    def searched(*args, **kwargs):
        raise AssertionError("the limits are checked before any search")
    monkeypatch.setattr(solver, "select_alpha", searched)
    name = next(iter(limits))
    with pytest.raises(ValueError, match=name):
        solve(a, b, alpha="exhaustive", **limits)
    with pytest.raises(ValueError, match=name):
        iterate(jacobi_system(a, b), **limits)


def test_iterate_accepts_a_zero_tol_and_whole_caps(stiff_system):
    report = solve(np.diag([2.0, 4.0]), np.ones(2), tol=0.0)
    assert report.converged and report.iterations == 1
    sys1 = transform_fixed_point(jacobi_system(*stiff_system), IndexSet((1, 2), 3))
    for cap in (7, 7.0, np.int64(7), np.float64(7.0)):
        report = iterate(sys1, tol=1e-10, max_iter=cap)
        assert not report.converged and report.iterations == 7
    assert iterate(sys1, max_iter=0).iterations == 0


def test_iterate_converged_residual_invariant():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        t = rng.uniform(-1.0, 1.0, (n, n))
        t *= 0.8 / max(1.0, np.abs(np.linalg.eigvals(t)).max())
        c = rng.uniform(-1.0, 1.0, n)
        from pivotkit import FixedPointSystem
        report = iterate(FixedPointSystem(t, c), np.zeros(n), 1e-8, 5000)
        assert report.converged
        assert report.residual_history[-1] <= 1e-8


def test_select_alpha_exhaustive_pin(stiff_iteration_matrix):
    alpha, rho = select_alpha(stiff_iteration_matrix, mode="exhaustive")
    assert tuple(alpha) == (1, 2)
    assert rho == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_select_alpha_zero_matrix():
    alpha, rho = select_alpha(np.zeros((3, 3)), mode="exhaustive")
    assert len(alpha) == 0
    assert rho == 0.0


def test_select_alpha_greedy_stalls_on_zero_diagonal(stiff_iteration_matrix):
    # every singleton block of a Jacobi-style matrix is singular, so the
    # greedy search cannot leave the empty set
    alpha, rho = select_alpha(stiff_iteration_matrix, mode="greedy")
    assert len(alpha) == 0
    assert rho == pytest.approx(2.1419410907075056, abs=1e-9)


def test_select_alpha_greedy_diagonal_pin():
    t = np.diag([2.0, 0.5])
    ae, re = select_alpha(t, mode="exhaustive")
    ag, rg = select_alpha(t, mode="greedy")
    assert tuple(ae) == (1,) and re == pytest.approx(0.5)
    assert tuple(ag) == (1,) and rg == pytest.approx(0.5)


def test_select_alpha_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(88)
    for _ in range(25):
        t = rng.uniform(-1.0, 1.0, (4, 4)) + np.diag(rng.uniform(0.5, 1.5, 4))
        _, re = select_alpha(t, mode="exhaustive")
        _, rg = select_alpha(t, mode="greedy")
        assert re <= rg + 1e-9


def test_select_alpha_budget_limits_growth():
    t = np.diag([4.0, 3.0, 2.0])
    alpha, _ = select_alpha(t, mode="greedy", budget=1)
    assert len(alpha) <= 1


@pytest.mark.parametrize("budget", [2.5, math.inf, -math.inf, math.nan, "2"])
def test_select_alpha_rejects_a_budget_that_is_not_a_whole_number(budget):
    with pytest.raises(ValueError, match="budget"):
        select_alpha(np.diag([4.0, 3.0, 2.0]), mode="greedy", budget=budget)


def test_select_alpha_integral_budgets_keep_their_meaning():
    t = np.diag([4.0, 3.0, 2.0])
    full = select_alpha(t, mode="greedy")
    assert len(full[0]) == 3
    assert select_alpha(t, mode="greedy", budget=3.0) == full
    assert select_alpha(t, mode="greedy", budget=np.int64(2))[0] == IndexSet((1, 2), 3)
    plain = (IndexSet.empty(3), solver._transform_radius(t, IndexSet.empty(3)))
    assert plain[1] == pytest.approx(4.0)
    for none in (0, -2):
        assert select_alpha(t, mode="greedy", budget=none) == plain


def test_solve_greedy_reports_when_root_finding_fails():
    # a diagonal of 1e-11 gives this n = 35 Jacobi matrix entries up to
    # 1e11, so its characteristic polynomial overflows; the search must
    # rank it as inf instead of raising
    n = 35
    a = np.random.default_rng(0).uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(a, 1e-11)
    report = solve(a, np.ones(n), alpha="greedy")
    assert report.alpha is not None and not report.alpha
    assert not report.converged
    _, rho = select_alpha(jacobi_system(a, np.ones(n)).matrix, mode="greedy")
    assert rho == np.inf


def _set_of(mask, n=3):
    return IndexSet([i + 1 for i in range(n) if mask >> i & 1], n)


def _reference_exhaustive(t):
    # every candidate by the paper route, first strict minimum in
    # (size, lexicographic) order
    n = t.shape[0]
    best_set = IndexSet.empty(n)
    best_rho = solver._transform_radius(t, best_set)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            rho = solver._transform_radius(t, IndexSet(combo, n))
            if rho < best_rho:
                best_set, best_rho = IndexSet(combo, n), rho
    return best_set, best_rho


def _reference_greedy(t):
    n = t.shape[0]
    current = IndexSet.empty(n)
    current_rho = solver._transform_radius(t, current)
    for _ in range(n):
        best_aug, best_rho = None, current_rho
        for i in range(1, n + 1):
            if i not in current:
                cand = IndexSet(current.indices + (i,), n)
                rho = solver._transform_radius(t, cand)
                if rho < best_rho:
                    best_aug, best_rho = cand, rho
        if best_aug is None:
            break
        current, current_rho = best_aug, best_rho
    return current, current_rho


def _rescue_jacobi(rng, n):
    """Zero-diagonal T = ppt(B, {i, j}) with rho(T) > 1.6 and rho(B) small,
    so the search has to find the pair."""
    i, j = np.sort(rng.choice(n, 2, replace=False))
    b = rng.uniform(-1.0, 1.0, (n, n)) * (0.5 / np.sqrt(n))
    q, r = rng.uniform(0.3, 0.6, 2) * rng.choice([-1.0, 1.0], 2)
    b[i, i] = b[j, j] = 0.0
    b[i, j], b[j, i] = q, r
    e = np.array([[0.0, 1.0 / r], [1.0 / q, 0.0]])
    for k in set(range(n)) - {i, j}:
        b[k, k] = b[k, [i, j]] @ e @ b[[i, j], k]
    t = ppt(b, IndexSet((i + 1, j + 1), n))
    np.fill_diagonal(t, 0.0)
    return t


def _greedy_climb(rng, n):
    """ppt(diag(d) + noise, alpha0), |alpha0| = 4, |d_i| in (0.3, 0.9):
    each greedy round pivots one index of alpha0 back."""
    d = (0.3 + 0.6 * (rng.permutation(n) + 0.5) / n) * rng.choice([-1.0, 1.0], n)
    t0 = np.diag(d) + rng.uniform(-1.0, 1.0, (n, n)) * (0.05 / n)
    alpha0 = np.sort(rng.choice(n, 4, replace=False)) + 1
    return ppt(t0, IndexSet(tuple(alpha0), n))


def test_select_alpha_exhaustive_matches_the_full_paper_route():
    for n in range(3, 8):
        for seed in range(4):
            t = _rescue_jacobi(np.random.default_rng([61, n, seed]), n)
            assert select_alpha(t, mode="exhaustive") == _reference_exhaustive(t)


def test_select_alpha_greedy_matches_the_full_paper_route():
    for n in range(6, 11):
        for seed in range(3):
            t = _greedy_climb(np.random.default_rng([62, n, seed]), n)
            alpha, rho = select_alpha(t, mode="greedy")
            assert len(alpha) == 4
            assert (alpha, rho) == _reference_greedy(t)


# -- the batched ranking against the per-candidate one it replaced -----

def _reference_cheap_radius(t, al):
    """max |eigvals(ppt(T, alpha))| of the one formed transform, inf when
    the pivot fails: the ranking radius computed one candidate at a time."""
    try:
        m = ppt(t, al) if al else t
    except (SingularBlockError, ValueError):
        return math.inf
    return float(np.abs(np.linalg.eigvals(m)).max(initial=0.0))


def _reference_best_candidate(t, cands, incumbent=math.inf):
    cheap = [_reference_cheap_radius(t, al) for al in cands]
    best_i, best_rho = None, incumbent
    for i in sorted(range(len(cands)), key=cheap.__getitem__):
        if cheap[i] > best_rho + solver._CONFIRM_MARGIN * max(1.0, best_rho):
            break
        rho = solver._transform_radius(t, cands[i])
        if rho < best_rho or (rho == best_rho and best_i is not None
                              and i < best_i):
            best_i, best_rho = i, rho
    return best_i, best_rho


def _reference_select(t, mode):
    # both searches with one formed transform and one eigvals per candidate
    n = t.shape[0]
    if mode == "exhaustive":
        cands = [IndexSet(combo, n) for size in range(n + 1)
                 for combo in itertools.combinations(range(1, n + 1), size)]
        i, rho = _reference_best_candidate(t, cands)
        return cands[0 if i is None else i], rho
    current = IndexSet.empty(n)
    rho = solver._transform_radius(t, current)
    for _ in range(n):
        cands = [IndexSet(current.indices + (i,), n)
                 for i in range(1, n + 1) if i not in current]
        i, rho = _reference_best_candidate(t, cands, rho)
        if i is None:
            break
        current = cands[i]
    return current, rho


def _draw(kind, rng, n):
    if kind == "rescue":
        return _rescue_jacobi(rng, n)
    if kind == "climb":
        return _greedy_climb(rng, n)
    return rng.uniform(-1.0, 1.0, (n, n))


def _assert_same_ranking(got, want):
    # inf on exactly the same sets, within 1e-10 relative elsewhere
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite])
                  <= 1e-10 * np.abs(want[finite]))


def _draws(kind, orders, seeds, key):
    for n in orders:
        if kind == "climb" and n < 4:
            continue
        for seed in range(seeds):
            yield n, _draw(kind, np.random.default_rng([key, n, seed]), n)


@pytest.mark.parametrize("kind", ["rescue", "climb", "uniform"])
def test_table_radii_equal_the_per_candidate_ranking(kind):
    for n, t in _draws(kind, range(3, 11), 3, 64):
        _assert_same_ranking(
            solver._table_radii(t),
            [_reference_cheap_radius(t, _set_of(mask, n)) for mask in range(1 << n)])


def _assert_greedy_rounds_rank_alike(t):
    # each round grows from the transform the previous round's winner got
    n = t.shape[0]
    tiny = solver.core._pivot_tolerance(float(np.abs(t).max(initial=0.0)))
    current, base, steppable = IndexSet.empty(n), t, True
    rho = solver._transform_radius(t, current)
    for _ in range(n):
        masks, live, cheap = solver._round_radii(t, base, steppable, current, tiny)
        _assert_same_ranking(cheap, [_reference_cheap_radius(t, _set_of(m, n))
                                     for m in masks])
        i, rho = solver._best_candidate(t, masks, cheap, rho)
        if i is None:
            break
        current, steppable = _set_of(masks[i], n), live[i]
        base = ppt(t, current)


@pytest.mark.parametrize("kind", ["rescue", "climb", "uniform"])
def test_greedy_round_radii_equal_the_per_candidate_ranking(kind):
    for _, t in _draws(kind, range(3, 11), 3, 65):
        _assert_greedy_rounds_rank_alike(t)


def _chain_pivot(n, seed):
    # the step from {1} onto index 2 meets the Schur pivot 1e-11, which
    # the step refuses and the block pivot of ppt(T, {1, 2}) accepts
    t = np.random.default_rng([66, n, seed]).uniform(-1.0, 1.0, (n, n))
    t[0, 0] = 1.0
    t[1, 1] = t[1, 0] * t[0, 1] + 1e-11
    return t


@pytest.mark.parametrize("t", [
    np.zeros((0, 0)), np.zeros((1, 1)), np.array([[-0.25]]),
    np.array([[0.0, 1.5, 0.25], [1.5, 0.0, 2.5], [0.5, 0.5, 0.0]]),
    np.array([[1.0, 1e200], [1e200, 1.0]]),
    np.diag([1e-11, 0.5, 2.0]) + np.triu(np.ones((3, 3)), 1),
    _chain_pivot(3, 0), _chain_pivot(6, 1),
    # greedy's first winner is {1}, whose step is refused
    np.array([[0.005, 1.0, 0.01], [1.0, 1e-4, 0.01], [0.01, 0.01, 0.3]]),
], ids=["0x0", "zero1x1", "1x1", "zero-diagonal", "overflow", "small-pivot",
        "chain3", "chain6", "refused-winner"])
def test_table_radii_on_edge_inputs(t):
    n = t.shape[0]
    want = [_reference_cheap_radius(t, _set_of(mask, n)) for mask in range(1 << n)]
    _assert_same_ranking(solver._table_radii(t), want)
    _assert_greedy_rounds_rank_alike(t)
    assert select_alpha(t, mode="exhaustive") == _reference_select(t, "exhaustive")
    assert select_alpha(t, mode="greedy") == _reference_select(t, "greedy")


def test_table_radii_form_a_refused_step_directly():
    t = _chain_pivot(4, 2)
    assert abs(ppt(t, (1,))[1, 1]) == pytest.approx(1e-11, rel=1e-4)
    radii = solver._table_radii(t)
    assert np.isfinite(radii).all()
    assert radii[0b11] == pytest.approx(_reference_cheap_radius(t, IndexSet((1, 2), 4)),
                                        rel=1e-10)


@pytest.mark.parametrize("kind", ["rescue", "climb", "uniform"])
def test_select_alpha_exhaustive_matches_per_candidate_ranking(kind):
    count = 0
    for n, t in _draws(kind, range(3, 9), 21 if kind == "climb" else 17, 67):
        assert select_alpha(t, mode="exhaustive") == _reference_select(t, "exhaustive")
        count += 1
    assert count >= 100


@pytest.mark.parametrize("kind", ["rescue", "climb", "uniform"])
def test_select_alpha_greedy_matches_per_candidate_ranking(kind):
    count = 0
    for n, t in _draws(kind, range(3, 13), 12 if kind == "climb" else 10, 68):
        assert select_alpha(t, mode="greedy") == _reference_select(t, "greedy")
        count += 1
    assert count >= 100


def test_select_alpha_exhaustive_in_chunks(monkeypatch):
    # n = 13 takes two chunks of 2**12 transforms (5.5 MB each); the
    # whole table of 2**13 would hold 11.1 MB, and its build peaks at 24 MB
    t = _greedy_climb(np.random.default_rng([69, 13]), 13)
    tracemalloc.start()
    try:
        chunked = select_alpha(t, mode="exhaustive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (1 << 12) * 13 * 13 * 8  # 16.6 MB; measured 12.2 MB
    monkeypatch.setattr(solver, "_TABLE_DOUBLES", (1 << 13) * 13 * 13)
    assert select_alpha(t, mode="exhaustive") == chunked
    assert len(chunked[0]) == 4 and chunked[1] < 1.0


def test_select_alpha_greedy_in_slices(monkeypatch):
    # a budget of two 11x11 transforms slices the rounds at n = 8 and 11,
    # as the budget of 8 MB slices them above n = 101
    draws = [_greedy_climb(np.random.default_rng([70, n]), n) for n in (5, 8, 11)]
    whole = [select_alpha(t, mode="greedy") for t in draws]
    monkeypatch.setattr(solver, "_TABLE_DOUBLES", 2 * 11 * 11)
    assert [select_alpha(t, mode="greedy") for t in draws] == whole
    assert all(len(alpha) == 4 for alpha, _ in whole)


def test_select_alpha_runs_the_paper_route_only_where_a_set_can_win(monkeypatch):
    t = _rescue_jacobi(np.random.default_rng([63, 6]), 6)
    paper = solver._transform_radius
    calls = []

    def counted(t, al):
        calls.append(al)
        return paper(t, al)
    monkeypatch.setattr(solver, "_transform_radius", counted)
    alpha, rho = select_alpha(t, mode="exhaustive")
    assert len(calls) <= 3 and alpha in calls
    assert rho < 1.0


def test_select_alpha_ties_resolve_in_search_order_not_rank_order(monkeypatch):
    # {1, 2} and {1, 2, 3} both give radius 1; rank the larger set first
    t = np.diag([2.0, 2.0, 1.0])
    paper = solver._transform_radius
    monkeypatch.setattr(solver, "_table_radii", lambda t: np.array(
        [paper(t, al) - 1e-12 * len(al) for al in map(_set_of, range(8))]))
    alpha, rho = select_alpha(t, mode="exhaustive")
    assert tuple(alpha) == (1, 2)
    assert (alpha, rho) == _reference_exhaustive(t)


def test_select_alpha_ties_resolve_by_key_not_bitmask_order(monkeypatch):
    # {2, 3} (bitmask 6) precedes {1, 4} (bitmask 9) in bitmask order and
    # is ranked first; both tie at the least paper radius
    tied = {(2, 3): 0.1, (1, 4): 0.2}
    monkeypatch.setattr(solver, "_table_radii", lambda t: np.array(
        [tied.get(_set_of(mask, 4).indices, 1.0) for mask in range(16)]))
    monkeypatch.setattr(solver, "_transform_radius",
                        lambda t, al: 0.5 if al.indices in tied else 1.0)
    assert select_alpha(np.eye(4), mode="exhaustive") == (IndexSet((1, 4), 4), 0.5)


def test_select_alpha_confirms_a_winner_ranked_within_the_margin(
        monkeypatch, stiff_iteration_matrix):
    # the winner's cheap radius sits just above the runner-up's paper
    # radius, so the runner-up is confirmed first and the walk must go on
    t = stiff_iteration_matrix
    paper = solver._transform_radius
    radii = sorted((paper(t, IndexSet(c, 3)), c) for size in range(4)
                   for c in itertools.combinations((1, 2, 3), size))
    (rho_win, win), (rho_second, _) = radii[:2]
    assert rho_win < rho_second < math.inf

    def ranked(t, al):
        return rho_second + 5e-9 if al.indices == win else paper(t, al)
    monkeypatch.setattr(solver, "_table_radii", lambda t: np.array(
        [ranked(t, al) for al in map(_set_of, range(8))]))
    assert select_alpha(t, mode="exhaustive") == (IndexSet(win, 3), rho_win)


def test_select_alpha_ranks_an_overflowing_pivot_as_inf():
    t = np.array([[1.0, 1e200], [1e200, 1.0]])
    # both singleton transforms overflow; the full pivot is T^-1
    alpha, rho = select_alpha(t, mode="exhaustive")
    assert tuple(alpha) == (1, 2) and math.isfinite(rho)
    # rho(T) itself is out of reach of the characteristic polynomial
    alpha, rho = select_alpha(t, mode="greedy")
    assert len(alpha) == 0 and rho == math.inf


def test_eigenvalues_overflowing_recurrence_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootConvergenceError):
            eigenvalues(np.array([[1.0, 1e200], [1e200, 1.0]]))


def test_select_alpha_capacity_guard():
    with pytest.raises(CapacityError):
        select_alpha(np.eye(16), mode="exhaustive")


def test_solve_exhaustive(stiff_system):
    a, b = stiff_system
    report = solve(a, b, alpha="exhaustive", tol=1e-10)
    assert report.converged
    assert tuple(report.alpha) == (1, 2)
    assert np.abs(a @ report.solution - b).max() <= 10 * 1e-10 * np.abs(b).max()
    assert report.rho_estimate == pytest.approx(2.0 / 3.0, abs=0.05)


def test_solve_explicit_alpha(stiff_system):
    a, b = stiff_system
    report = solve(a, b, alpha=IndexSet((1, 2), 3), tol=1e-10)
    assert report.converged
    assert np.abs(a @ report.solution - b).max() <= 10 * 1e-10 * np.abs(b).max()


def test_solve_plain_jacobi_diverges(stiff_system):
    a, b = stiff_system
    report = solve(a, b, tol=1e-10, max_iter=200)
    assert not report.converged  # reported, not raised


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    report = solve(np.eye(3), b)
    assert report.converged
    assert report.iterations == 1
    assert np.array_equal(report.solution, b)


def test_solve_diagonally_dominant_plain_path():
    a = np.array([[4.0, 1.0], [-1.0, 5.0]])
    b = np.array([1.0, 2.0])
    report = solve(a, b, tol=1e-12)
    assert report.converged
    assert report.alpha is None
    assert np.abs(a @ report.solution - b).max() <= 10 * 1e-12 * np.abs(b).max()


def test_solve_backward_residual_random_trials():
    rng = np.random.default_rng(314)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        a = rng.uniform(-1.0, 1.0, (n, n))
        a += np.diag(np.abs(a).sum(axis=1) + 0.5)
        b = rng.uniform(-1.0, 1.0, n)
        report = solve(a, b, tol=1e-10)
        assert report.converged
        assert np.abs(a @ report.solution - b).max() <= 10 * 1e-10 * np.abs(b).max()


def test_solve_transform_beats_plain_on_stiff_case(stiff_system):
    a, b = stiff_system
    plain = solve(a, b, tol=1e-10, max_iter=500)
    fixed = solve(a, b, alpha=IndexSet((1, 2), 3), tol=1e-10, max_iter=500)
    assert not plain.converged and fixed.converged


def test_transform_radius_matches_charpoly_route(stiff_iteration_matrix):
    that = ppt(stiff_iteration_matrix, IndexSet((1, 2), 3))
    rho = roots(charpoly_direct(that)).spectral_radius
    assert rho == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_select_alpha_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown search mode"):
        select_alpha(np.zeros((3, 3)), mode="random")


def test_solve_rejects_an_unknown_alpha_mode():
    with pytest.raises(ValueError, match="unknown alpha mode"):
        solve(np.eye(3), np.ones(3), alpha="best")


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_select_alpha_on_the_empty_matrix(mode):
    alpha, rho = select_alpha(np.zeros((0, 0)), mode=mode)
    assert alpha == IndexSet.empty(0)
    assert rho == 0.0


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_solve_searches_the_empty_system(mode):
    report = solve(np.zeros((0, 0)), [], alpha=mode)
    assert report.converged
    assert report.alpha == IndexSet.empty(0)
    assert report.solution.shape == (0,)
