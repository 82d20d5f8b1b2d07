"""Every check accepts pivotkit's output and rejects a perturbed one.

Run with ``python3 -m pytest bench/tests``.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pivotkit as pk

import inputs
import oracles
import run
import workloads
from oracles import CheckFailed

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rng(*key):
    return np.random.default_rng(list(key))


def bump(x, i=0, rel=1e-6):
    """A copy of x with its i-th entry (flat) moved by a relative amount."""
    y = np.array(x, dtype=complex if np.iscomplexobj(x) else float)
    flat = y.reshape(-1)
    flat[i] = flat[i] * (1 + rel) + rel
    return y


def test_ppt_check():
    a = inputs.general(rng(1), 9)
    p = inputs.pivot_set(rng(2), 9)
    out = pk.ppt(a, tuple(p + 1))
    assert oracles.check_ppt(a, p, out) > 12
    with pytest.raises(CheckFailed):
        oracles.check_ppt(a, p, bump(out, 7))
    with pytest.raises(CheckFailed):
        oracles.check_ppt(a, p, pk.ppt(a, tuple(p[:-1] + 1)))


def test_exchange_identity_alone_rejects():
    a = inputs.general(rng(3), 6)
    p = np.array([1, 4])
    b = pk.ppt(a, (2, 5))
    assert oracles.exchange_residual(a, p, b) < 1e-14
    assert oracles.exchange_residual(a, p, bump(b, 3)) > 1e-9


def test_schur_and_det_checks():
    a = inputs.general(rng(4), 30)
    p = inputs.pivot_set(rng(5), 30)
    al = tuple(p + 1)
    s = pk.schur_complement(a, al)
    assert oracles.check_schur(a, p, s) > 12
    with pytest.raises(CheckFailed):
        oracles.check_schur(a, p, bump(s, 11))
    d = pk.ppt_det(a, al)
    assert oracles.check_ppt_det(a, p, d) > 12
    with pytest.raises(CheckFailed):
        oracles.check_ppt_det(a, p, d * (1 + 1e-7))
    with pytest.raises(CheckFailed):
        oracles.check_ppt_det(a, p, float("nan"))


def test_inverse_and_flop_checks():
    a = inputs.general(rng(6), 40)
    inv, flops = pk.counted_singleton_inverse(a)
    assert oracles.check_inverse(a, inv) > 12
    oracles.check_flops(40, flops)
    with pytest.raises(CheckFailed):
        oracles.check_inverse(a, bump(inv, 41, 1e-7))
    with pytest.raises(CheckFailed):
        oracles.check_flops(40, flops + 1)
    p = inputs.pivot_set(rng(7), 40)
    x = pk.ppt_inverse(a, tuple(p + 1))
    assert oracles.check_inverse(oracles.transform(a, p), x) > 12
    with pytest.raises(CheckFailed):
        oracles.check_inverse(oracles.transform(a, p), pk.ppt(a, tuple(p + 1)))


def test_spectrum_checks():
    a = inputs.uniform(rng(8), 20)
    res = pk.eigenvalues(a)
    assert oracles.check_spectrum(res.eigenvalues, a, res.spectral_radius) > 9
    with pytest.raises(CheckFailed):
        oracles.check_spectrum(bump(res.eigenvalues, 3, 1e-4), a)
    with pytest.raises(CheckFailed):
        oracles.check_spectrum(res.eigenvalues, a, res.spectral_radius * 1.001)
    with pytest.raises(CheckFailed):
        oracles.check_spectrum(res.eigenvalues[:-1], a)


def test_printed_spectrum_check_against_mpmath():
    a, p = inputs.spread_transform(rng(9), 7)
    res = pk.roots(pk.ppt_charpoly(a, tuple(p + 1)))
    coeffs = pk.ppt_charpoly(a, tuple(p + 1))
    ref = oracles.mp_transform_spectrum(a, p)
    assert oracles.check_printed_spectrum(coeffs, res.eigenvalues,
                                          res.spectral_radius, ref) > 11
    with pytest.raises(CheckFailed):
        oracles.check_printed_spectrum(coeffs, bump(res.eigenvalues, 2),
                                       res.spectral_radius, ref)
    with pytest.raises(CheckFailed):
        oracles.check_printed_spectrum(bump(coeffs, 4), res.eigenvalues,
                                       res.spectral_radius, ref)
    with pytest.raises(CheckFailed):
        oracles.check_printed_spectrum(coeffs, res.eigenvalues,
                                       res.spectral_radius * (1 + 1e-7), ref)


def test_minor_table_check():
    a = inputs.general(rng(10), 10)
    t = pk.minor_table(a)
    assert oracles.check_minor_table(a, t) > 12
    with pytest.raises(CheckFailed):
        oracles.check_minor_table(a, bump(t, 777))


def test_lex_order_and_rank():
    n = 5
    order = oracles.lex_order(n)
    tuples = [tuple(i + 1 for i in range(n) if m >> i & 1) for m in order]
    assert tuples == sorted(tuples)
    assert len(set(order.tolist())) == 2 ** n - 1
    for pos, tup in enumerate(tuples, start=1):
        assert oracles.lex_rank(tup, n) == pos


@pytest.mark.parametrize("make,want", [
    (inputs.p_matrix, (True, None)),
    (inputs.non_p_early, (False, (1, 2))),
    (inputs.non_p_late, (False, (12,))),
])
def test_p_test_check(make, want):
    a = make(rng(11), 12)
    cert = pk.is_p_matrix(a)
    witness = None if cert.witness is None else tuple(cert.witness)
    assert (cert.verdict, witness) == want
    oracles.check_p_test(a, cert.verdict, witness)
    with pytest.raises(CheckFailed):
        oracles.check_p_test(a, not cert.verdict, witness)
    if not cert.verdict:
        with pytest.raises(CheckFailed):
            oracles.check_p_test(a, False, (1,))


def test_p_inputs_keep_their_margin():
    for n in (12, 15):
        for seed in range(5):
            for make in (inputs.p_matrix, inputs.non_p_early, inputs.non_p_late):
                oracles.p_scan(make(rng(seed, n), n))


def test_z_and_semipositive_checks():
    z = inputs.z_matrix(rng(12), 6)
    oracles.check_z(z, pk.is_z_matrix(z))
    with pytest.raises(CheckFailed):
        oracles.check_z(z, False)
    nz = inputs.not_z_matrix(rng(13), 6)
    with pytest.raises(CheckFailed):
        oracles.check_z(nz, True)
    p = inputs.p_matrix(rng(14), 6)
    cert = pk.is_semipositive(p)
    oracles.check_semipositive(p, cert.verdict, cert.witness)
    with pytest.raises(CheckFailed):
        oracles.check_semipositive(p, True, -np.asarray(cert.witness))
    with pytest.raises(CheckFailed):
        oracles.check_semipositive(p, False, None)
    neg = inputs.not_semipositive(rng(15), 6)
    assert not pk.is_semipositive(neg).verdict
    oracles.check_semipositive(neg, False, None)
    with pytest.raises(CheckFailed):
        oracles.check_semipositive(neg, True, np.ones(6))


def test_exhaustive_check():
    a = inputs.rescue(rng(16), 5)[0]
    t = np.eye(5) - a / np.diag(a)[:, None]
    alpha, rho = pk.select_alpha(t, "exhaustive")
    al = [i - 1 for i in alpha]
    assert oracles.check_exhaustive(t, al, rho) > 9
    with pytest.raises(CheckFailed):
        oracles.check_exhaustive(t, al, rho * 1.01)
    with pytest.raises(CheckFailed):
        oracles.check_exhaustive(t, [], oracles.radius(t, []))


def test_greedy_check():
    t = inputs.greedy_target(rng(17), 10)
    alpha, rho = pk.select_alpha(t, "greedy")
    al = [i - 1 for i in alpha]
    assert len(al) >= 2
    assert oracles.check_greedy(t, al, rho) > 9
    with pytest.raises(CheckFailed):
        oracles.check_greedy(t, al, rho * 1.01)
    stopped_early = al[:-1]
    with pytest.raises(CheckFailed):
        oracles.check_greedy(t, stopped_early, oracles.radius(t, stopped_early))


def test_solution_and_sorth_checks():
    a, b, al = inputs.rescue(rng(18), 8)
    rep = pk.solve(a, b, tol=1e-12, alpha=tuple(al + 1))
    assert rep.converged
    assert oracles.check_solution(a, b, rep.solution, 1e-12) > 10
    with pytest.raises(CheckFailed):
        oracles.check_solution(a, b, bump(rep.solution, 2, 1e-8), 1e-12)
    signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    q = pk.make_s_orthogonal(signs, pk.random_orthogonal(5, 3))
    oracles.check_s_orthogonal(signs, q)
    with pytest.raises(CheckFailed):
        oracles.check_s_orthogonal(signs, bump(q, 6))
    s = np.diag(signs)
    resid = float(np.abs(q.T @ s @ q - s).max())
    oracles.check_s_orthogonal_residual(signs, q, resid)
    with pytest.raises(CheckFailed):
        oracles.check_s_orthogonal_residual(signs, q, resid + 1e-9)


def test_rescue_systems_need_the_pivot():
    for n in (3, 6, 12):
        for seed in range(20):
            a, b, al = inputs.rescue(rng(seed, n), n)
            t = np.eye(n) - a / np.diag(a)[:, None]
            assert np.abs(np.diag(t)).max() < 1e-12
            assert oracles.radius(t, []) > 1.0
            assert oracles.radius(t, al) < 0.8


def test_desk_round_checks_pass_and_reject_other_exit_codes(tmp_path):
    desk = workloads.Desk(5, str(tmp_path), orders=(3, 5, 8))
    ops = desk.round(0)
    families = {op.family for op in ops}
    assert {"cli.ppt", "cli.eig", "cli.solve_exhaustive", "cli.check_p_no",
            "cli.sorth"} <= families
    for op in ops:
        rc, *rest = op.settle(op.run())
        op.check((rc, *rest))
        with pytest.raises(CheckFailed):
            op.check((rc + 1, *rest))


def _nudge_all(tokens):
    return [repr(float(t) * (1 + 1e-6) + 1e-6) for t in tokens]


def _variants(lines):
    """Copies of printed output, each with one checked value changed."""
    def nudge(tok):
        return repr(float(tok) * (1 + 1e-6) + 1e-6)

    out = []
    for i, line in enumerate(lines):
        toks = line.split()
        if toks[:1] == ["verdict"]:
            toks[1] = "false" if toks[1] == "true" else "true"
        elif i == 1 and lines[0].strip().isdigit():
            toks[-1] = nudge(toks[-1])           # a matrix entry
        elif toks[:1] in (["coeff"], ["root"], ["spectral_radius"], ["x"]) \
                and toks[0] not in {ln.split()[0] for ln in lines[:i]}:
            toks[-1] = nudge(toks[-1])
        else:
            continue
        out.append(lines[:i] + [" ".join(toks)] + lines[i + 1:])
    return out


def test_desk_checks_reject_perturbed_printed_values(tmp_path):
    desk = workloads.Desk(6, str(tmp_path), orders=(4, 6))
    tried = set()
    for op in desk.round(0):
        rc, out, err, *kept = op.settle(op.run())
        if op.family == "cli.ppt_out":           # its output is the -o file
            text = kept[0].splitlines()
            text[1] = " ".join(_nudge_all(text[1].split()))
            tried.add(op.family)
            with pytest.raises(CheckFailed):
                op.check((rc, out, err, "\n".join(text) + "\n"))
        for lines in _variants(out.splitlines()):
            tried.add(op.family)
            with pytest.raises(CheckFailed):
                op.check((rc, "\n".join(lines) + "\n", err))
    assert len(tried) >= 16


def test_failing_spectra_fail_on_every_fixed_draw():
    for r in range(workloads.rounds_for("dense", 60)):
        op = workloads.dense_op("eigenvalues_n40", workloads.FAILING_EIG_ORDER,
                                rng(0), fixed_key=r)
        with pytest.raises(pk.RootConvergenceError):
            op.run()


def test_failing_draws_do_not_depend_on_the_seed():
    a = workloads.dense_op("eigenvalues_n40", 40, rng(1), fixed_key=2)
    b = workloads.dense_op("eigenvalues_n40", 40, rng(2), fixed_key=2)
    assert a.expect is pk.RootConvergenceError
    with pytest.raises(pk.RootConvergenceError) as ea:
        a.run()
    with pytest.raises(pk.RootConvergenceError) as eb:
        b.run()
    assert np.array_equal(ea.value.best, eb.value.best, equal_nan=True)


TRACED = """
import json, sys
import numpy as np
import pivotkit as pk
import pivotkit.cli
import inputs, tracing
tracer = tracing.Tracer()
tracer.install()
rng = lambda *k: np.random.default_rng(list(k))
pk.sequential_inverse(inputs.general(rng(19), 6), [(1, 2), (3,), (4, 5, 6)])
pk.is_p_matrix(inputs.non_p_early(rng(20), 6))
t = inputs.greedy_target(rng(21), 6)
pk.select_alpha(t, "greedy")
print(json.dumps(tracing.layer_metrics(tracer.spans, 3)))
"""


def test_layer_metrics_from_traced_calls():
    # in a fresh interpreter: installing the tracer rebinds pivotkit's names
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(BENCH), "src"), BENCH]))
    proc = subprocess.run([sys.executable, "-c", TRACED], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout)
    assert m["pivot.sequential_inverse.stages"] == 3
    assert m["core.lu.factor_calls"] >= 3
    assert m["core.lu.multi_rhs_solve_calls"] >= 1
    assert m["core.minors_evaluated"] == 2 ** 6 - 1
    assert m["classify.p_minors_used_ratio"] == pytest.approx(2 / 63)
    assert m["indexing.IndexSet.calls"] > 0
    assert m["solver.select_alpha.candidates"] >= 6
    assert m["spectra.charpoly_direct.calls"] == m["solver.select_alpha.candidates"]
    # run.py adds the import, process and trace metrics to these
    assert set(m) | {"import.total_ms", "import.scipy_linalg_ms",
                     "process.cpu_over_wall", "trace.ops_per_s"} == \
        {metric["name"] for metric in _spec()["per_layer"]}


def _spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_every_metric():
    raw = {"latencies_ms": [1.0, 2.0], "failed": [False, False], "rounds": [0, 0],
           "families": ["a", "b"], "digits": [12.0, None], "peak_rss_mb": 50.0}
    assert set(run.end_to_end(raw, [0.5])) == \
        {metric["name"] for metric in _spec()["end_to_end"]}
    assert [w["name"] for w in _spec()["workloads"]] == ["desk", "dense", "subsets"]
