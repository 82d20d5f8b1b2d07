"""The three workloads: fixed operation lists built from a seed.

A workload is a list of rounds; each round is a list of :class:`Op` in a
fixed order.  The number of rounds is fixed by the run length alone, so
every run of a workload attempts the same operations in the same order,
and only the input values depend on the seed.

* ``desk``: in-process ``pivotkit.cli.main(argv)`` calls on files at
  orders 3-12, covering all six subcommands.  Per-call overhead
  dominates.
* ``dense``: library calls on BLAS-sized blocks (n = 100-800) plus the
  formed-matrix spectral routes at n = 10-25; no subset enumeration.
* ``subsets``: the 2**n enumerations at orders 12-19 (minor tables,
  spectra from minors, P-tests) and the pivot-set searches.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracles
from oracles import require


@dataclass(eq=False)
class Op:
    """One timed call.  ``run`` performs it; ``check`` validates its output
    (returning correct digits or None).  ``expect`` names an exception the
    call is known to raise on every draw; such a call counts as failed.
    ``keep``, when given, turns the output into what ``check`` reads; it
    runs after the timed call, for outputs that live outside the return
    value (a file the call wrote)."""

    family: str
    order: int
    run: Callable[[], object]
    check: Callable[[object], float | None]
    expect: type[BaseException] | None = None
    keep: Callable[[object], object] | None = None

    def settle(self, out):
        return out if self.keep is None else self.keep(out)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _one_based(p) -> tuple[int, ...]:
    return tuple(int(i) + 1 for i in p)


#: Nominal seconds of work in one round, used only to turn ``--seconds``
#: into a fixed number of rounds.
ROUND_SECONDS = {"desk": 0.6, "dense": 2.5, "subsets": 20.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / ROUND_SECONDS[workload])))


def interleave(groups) -> list[Op]:
    """The calls of every group spread evenly over one round, in a fixed
    order: the k-th of m calls of a group sits at (k + 1/2) / m of the way.

    Outside load on a shared machine comes in bursts of seconds.  Run back
    to back, the calls of the family that holds the median would all share
    one such window, and the median latency would read that window's
    speed; spread over the round, they sample the whole run."""
    keyed = [((k + 0.5) / len(ops), slot, k, op)
             for slot, ops in enumerate(groups) for k, op in enumerate(ops)]
    return [op for *_, op in sorted(keyed, key=lambda key: key[:3])]


# ===========================================================================
# desk: CLI calls on files

DESK_ORDERS = tuple(range(3, 13))
DESK_EIG_POOL = 4      # distinct eig inputs; round r uses set r % DESK_EIG_POOL
DESK_TOL = 1e-12
EXHAUSTIVE_MAX_ORDER = 5


def _spec(p) -> str:
    return ",".join(str(i) for i in _one_based(p))


def _write_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _write_vector(path: str, b: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(repr(float(x)) + "\n" for x in b))


def parse_matrix_lines(lines: list[str]) -> np.ndarray:
    n = int(lines[0])
    out = np.array([[float(t) for t in line.split()] for line in lines[1:n + 1]])
    require(out.shape == (n, n), f"printed matrix has shape {out.shape}")
    return out


def _keyed(lines: list[str], key: str) -> list[list[str]]:
    return [line.split()[1:] for line in lines if line.split()[:1] == [key]]


def _cli(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        import pivotkit.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pivotkit.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()
    return call


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _expect_rc(result, rc: int) -> list[str]:
    got, out, err = result
    require(got == rc, f"exit code {got}, expected {rc}; stderr: {err.strip()}")
    return out.splitlines()


class Desk:
    """Writes each round's input files and builds its CLI calls.

    Every round gets fresh inputs, except that the ``eig`` inputs cycle
    through DESK_EIG_POOL sets: their reference spectra come from mpmath,
    which costs up to a tenth of a second per matrix, so each is computed
    once and every later output on the same file is checked against it.
    """

    def __init__(self, seed: int, workdir: str, orders=DESK_ORDERS):
        self.seed = seed
        self.dir = workdir
        self.orders = orders
        self.memo: dict = {}

    def _inputs(self, r: int, n: int, folder: str) -> dict:
        rng = _rng(self.seed, r, n)
        base = os.path.join(folder, f"n{n}_")
        d = {"n": n, "base": base, "eig_key": (r % DESK_EIG_POOL, n)}
        d["gen"] = inputs.general(rng, n)
        d["alphas"] = [inputs.pivot_set(rng, n, int(rng.integers(1, n)))
                       for _ in range(2)]
        d["partition"] = inputs.partition(rng, n, max(1, n // 3))
        d["jac"] = inputs.jacobi(rng, n)
        d["resc"] = inputs.rescue(rng, n)
        d["pmat"] = inputs.p_matrix(rng, n)
        d["nonp"] = (inputs.non_p_early if n % 2 else inputs.non_p_late)(rng, n)
        d["zmat"] = inputs.z_matrix(rng, n)
        d["nonz"] = inputs.not_z_matrix(rng, n)
        d["neg"] = inputs.not_semipositive(rng, n)
        d["signs"] = inputs.signature(rng, n)
        d["sorth_seed"] = int(rng.integers(0, 2**31))
        d["eig"], d["eig_alpha"] = inputs.spread_transform(
            _rng(self.seed, DESK_EIG_POOL + 1, *d["eig_key"]), n)
        for name in ("gen", "eig", "pmat", "nonp", "zmat", "nonz", "neg"):
            _write_matrix(base + name, d[name])
        for name in ("jac", "resc"):
            _write_matrix(base + name, d[name][0])
            _write_vector(base + name + "_b", d[name][1])
        return d

    def round(self, r: int) -> list[Op]:
        folder = os.path.join(self.dir, f"round{r}")
        os.makedirs(folder)
        ops = []
        for n in self.orders:
            ops.extend(self._calls(self._inputs(r, n, folder)))
        return ops

    def _calls(self, d: dict) -> list[Op]:
        n, base = d["n"], d["base"]
        gen = d["gen"]
        a1, a2 = d["alphas"]
        out_path = base + "out"
        ops = [
            Op("cli.ppt", n, _cli(["ppt", base + "gen", "--alpha", _spec(a1)]),
               lambda res: oracles.check_ppt(
                   gen, a1, parse_matrix_lines(_expect_rc(res, 0)))),
            Op("cli.ppt_out", n, _cli(["ppt", base + "gen", "--alpha", _spec(a2),
                                    "-o", out_path]),
               lambda res: self._check_ppt_file(res, gen, a2),
               keep=lambda res: (*res, _read(out_path))),
            Op("cli.invert", n, _cli(["invert", base + "gen"]),
               lambda res: oracles.check_inverse(
                   gen, parse_matrix_lines(_expect_rc(res, 0)))),
            Op("cli.invert_partition", n,
               _cli(["invert", base + "gen", "--partition",
                     ";".join(_spec(p) for p in d["partition"])]),
               lambda res: oracles.check_inverse(
                   gen, parse_matrix_lines(_expect_rc(res, 0)))),
            Op("cli.invert_flops", n, _cli(["invert", base + "gen", "--flops"]),
               lambda res: self._check_flops(res, gen)),
            Op("cli.eig", n, _cli(["eig", base + "eig", "--alpha", _spec(d["eig_alpha"])]),
               lambda res: self._check_eig(res, d)),
            Op("cli.solve_none", n,
               _cli(["solve", base + "jac", base + "jac_b", "--tol", str(DESK_TOL)]),
               lambda res: self._check_solve(res, d["jac"], None)),
            Op("cli.solve_alpha", n,
               _cli(["solve", base + "resc", base + "resc_b", "--alpha",
                     _spec(d["resc"][2]), "--tol", str(DESK_TOL)]),
               lambda res: self._check_solve(res, d["resc"], None)),
            Op("cli.solve_greedy", n,
               _cli(["solve", base + "jac", base + "jac_b", "--alpha",
                     "auto-greedy", "--tol", str(DESK_TOL)]),
               lambda res: self._check_solve(res, d["jac"], "auto")),
        ]
        if n <= EXHAUSTIVE_MAX_ORDER:
            ops.append(Op(
                "cli.solve_exhaustive", n,
                _cli(["solve", base + "resc", base + "resc_b", "--alpha",
                      "auto-exhaustive", "--tol", str(DESK_TOL)]),
                lambda res: self._check_solve(res, d["resc"], "auto")))
        ops += [
            Op("cli.check_p", n, _cli(["check", base + "pmat", "p"]),
               lambda res: self._check_p(res, d["pmat"], 0)),
            Op("cli.check_p_no", n, _cli(["check", base + "nonp", "p"]),
               lambda res: self._check_p(res, d["nonp"], 4)),
            Op("cli.check_z", n, _cli(["check", base + "zmat", "z"]),
               lambda res: self._check_z(res, d["zmat"], 0)),
            Op("cli.check_z_no", n, _cli(["check", base + "nonz", "z"]),
               lambda res: self._check_z(res, d["nonz"], 4)),
            Op("cli.check_semipositive", n,
               _cli(["check", base + "pmat", "semipositive"]),
               lambda res: self._check_semi(res, d["pmat"], 0)),
            Op("cli.check_semipositive_no", n,
               _cli(["check", base + "neg", "semipositive"]),
               lambda res: self._check_semi(res, d["neg"], 4)),
            Op("cli.sorth", n, _cli(["sorth", "--seed", str(d["sorth_seed"]), "--",
                                  d["signs"]]),
               lambda res: self._check_sorth(res, d["signs"])),
        ]
        return ops

    # -- checks of printed output -------------------------------------

    @staticmethod
    def _check_ppt_file(res, a, p):
        *res, text = res
        require(_expect_rc(res, 0) == [], "ppt -o wrote to stdout")
        return oracles.check_ppt(a, p, parse_matrix_lines(text.splitlines()))

    @staticmethod
    def _check_flops(res, a):
        lines = _expect_rc(res, 0)
        n = a.shape[0]
        dig = oracles.check_inverse(a, parse_matrix_lines(lines))
        tail = dict((line.split()[0], int(line.split()[1])) for line in lines[n + 1:])
        oracles.check_flops(n, tail.get("measured_flops"))
        require(tail.get("predicted_ppt_flops") == oracles.predicted_sweep_flops(n),
                "predicted_ppt_flops is not n(n+1)(2n+1)/6 - 1")
        require(tail.get("predicted_lu_flops") == math.ceil(5 * n ** 3 / 6),
                "predicted_lu_flops is not ceil(5 n^3 / 6)")
        return dig

    def _check_eig(self, res, d):
        lines = _expect_rc(res, 0)
        coeffs = [float(v[1]) for v in _keyed(lines, "coeff")]
        roots = [complex(float(v[1]), float(v[2])) for v in _keyed(lines, "root")]
        radius = float(_keyed(lines, "spectral_radius")[0][0])
        key = d["eig_key"]
        if key not in self.memo:
            self.memo[key] = oracles.mp_transform_spectrum(d["eig"], d["eig_alpha"])
        return oracles.check_printed_spectrum(coeffs, roots, radius, self.memo[key])

    @staticmethod
    def _check_solve(res, system, mode):
        a, b = system[0], system[1]
        lines = _expect_rc(res, 0)
        require(_keyed(lines, "converged") == [["true"]], "solve did not converge")
        if mode == "auto":
            require(len(_keyed(lines, "alpha")) == 1, "auto solve printed no alpha")
        x = np.array([float(v[1]) for v in _keyed(lines, "x")])
        return oracles.check_solution(a, b, x, DESK_TOL)

    @staticmethod
    def _check_p(res, a, rc):
        lines = _expect_rc(res, rc)
        verdict = _keyed(lines, "verdict") == [["true"]]
        wit = _keyed(lines, "witness")
        witness = tuple(int(i) for i in wit[0][0].split(",")) if wit else None
        oracles.check_p_test(a, verdict, witness)
        return None

    @staticmethod
    def _check_z(res, a, rc):
        lines = _expect_rc(res, rc)
        oracles.check_z(a, _keyed(lines, "verdict") == [["true"]])
        return None

    @staticmethod
    def _check_semi(res, a, rc):
        lines = _expect_rc(res, rc)
        wit = _keyed(lines, "witness")
        oracles.check_semipositive(a, _keyed(lines, "verdict") == [["true"]],
                                   [float(v) for v in wit[0]] if wit else None)
        return None

    @staticmethod
    def _check_sorth(res, signs):
        lines = _expect_rc(res, 0)
        s = np.array([1.0 if ch == "+" else -1.0 for ch in signs])
        q = parse_matrix_lines(lines)
        oracles.check_s_orthogonal(s, q)
        oracles.check_s_orthogonal_residual(
            s, q, float(_keyed(lines, "residual")[0][0]))
        return None


def desk_warmup(workdir: str) -> list[Op]:
    """One call of each subcommand on the smallest order, fixed inputs."""
    return Desk(0, workdir, orders=DESK_ORDERS[:1]).round(0)


# ===========================================================================
# dense: library calls on large blocks

#: (family, orders) of one dense round; each entry is one call per order.
#: Twenty spectra at n = 15 hold the median operation: their cost is
#: steady, where a ppt at n = 300 swings between about 4 and 22 ms with
#: the BLAS threads.  Eight ppt at n = 100 and eight ppt_det at n = 200,
#: about 1 ms each, balance the 26 calls above the spectra, so that the
#: median is the middle of that family, not its upper tail, where it
#: meets ppt at n = 300 and ppt_det at n = 800.  The 24 blocked sequential
#: inverses at n = 800 of a run are the only calls above ~250 ms, so the
#: tail operation (the eleventh largest) is one of them, near their median.
DENSE_ROUND = (
    ("ppt", (100,) * 8 + (300, 300, 300, 300, 800)),
    ("ppt_inverse", (100, 400, 800)),
    ("ppt_det", (100,) + (200,) * 8 + (300, 400, 600, 800)),
    ("block_inverse", (100, 200, 400, 600)),
    ("schur_complement", (100, 200, 300, 400, 800)),
    ("sequential_inverse_singletons", (100, 150)),
    ("sequential_inverse_blocked", (800, 800, 800)),
    ("eigenvalues", (10,) + (15,) * 20 + (20, 25)),
    ("pencil_eigenvalues", (10, 15, 20)),
    ("counted_singleton_inverse", (40, 60, 80)),
    ("eigenvalues_n40", (40,)),
)

#: Order of the spectra that fail: pivotkit's charpoly-plus-Aberth route
#: raises RootConvergenceError on uniform(-1, 1) draws from n = 35 on.
FAILING_EIG_ORDER = 40


def dense_op(family: str, n: int, rng, fixed_key: int = 0) -> Op:
    import pivotkit as pk

    if family in ("ppt", "ppt_inverse", "ppt_det", "block_inverse",
                  "schur_complement"):
        a = inputs.general(rng, n)
        p = inputs.pivot_set(rng, n)
        al = _one_based(p)
        if family == "ppt":
            return Op(family, n, lambda: pk.ppt(a, al),
                      lambda out: oracles.check_ppt(a, p, out))
        if family == "ppt_inverse":
            return Op(family, n, lambda: pk.ppt_inverse(a, al),
                      lambda out: oracles.check_inverse(oracles.transform(a, p), out))
        if family == "ppt_det":
            return Op(family, n, lambda: pk.ppt_det(a, al),
                      lambda out: oracles.check_ppt_det(a, p, out))
        if family == "block_inverse":
            return Op(family, n, lambda: pk.block_inverse(a, al),
                      lambda out: oracles.check_inverse(a, out))
        return Op(family, n, lambda: pk.schur_complement(a, al),
                  lambda out: oracles.check_schur(a, p, out))
    if family.startswith("sequential_inverse"):
        a = inputs.general(rng, n)
        if family.endswith("singletons"):
            parts = [(i,) for i in range(1, n + 1)]
        else:
            width = int(rng.integers(32, 65))
            parts = [_one_based(b) for b in inputs.partition(rng, n, width)]
        return Op(family, n, lambda: pk.sequential_inverse(a, parts),
                  lambda out: oracles.check_inverse(a, out))
    if family == "eigenvalues":
        a = inputs.uniform(rng, n)
        return Op(family, n, lambda: pk.eigenvalues(a),
                  lambda out: oracles.check_spectrum(out.eigenvalues, a,
                                                     out.spectral_radius))
    if family == "pencil_eigenvalues":
        a, p = inputs.spread_transform(rng, n)
        al = _one_based(p)
        return Op(family, n,
                  lambda: pk.pencil_eigenvalues(pk.basic_factorization(a, al)),
                  lambda out: oracles.check_spectrum(
                      out.eigenvalues, oracles.transform(a, p), out.spectral_radius))
    if family == "counted_singleton_inverse":
        a = inputs.general(rng, n)

        def check(out):
            inv, flops = out
            oracles.check_flops(n, flops)
            return oracles.check_inverse(a, inv)
        return Op(family, n, lambda: pk.counted_singleton_inverse(a), check)
    if family == "eigenvalues_n40":
        # fixed draws, independent of the seed: the failure is the program's
        a = inputs.uniform(_rng(FAILING_EIG_ORDER, fixed_key), n)
        return Op(family, n, lambda: pk.eigenvalues(a),
                  lambda out: oracles.check_spectrum(out.eigenvalues, a,
                                                     out.spectral_radius),
                  expect=pk.RootConvergenceError)
    raise ValueError(f"unknown dense family {family}")


def dense_round(seed: int, r: int) -> list[Op]:
    ops = []
    for slot, (family, orders) in enumerate(DENSE_ROUND):
        for i, n in enumerate(orders):
            ops.append(dense_op(family, n, _rng(seed, r, slot, i), fixed_key=r))
    return ops


def dense_warmup() -> list[Op]:
    return [dense_op(family, min(orders), _rng(0, slot), fixed_key=0)
            for slot, (family, orders) in enumerate(DENSE_ROUND)
            if family != "eigenvalues_n40"]


# ===========================================================================
# subsets: 2**n enumerations and pivot-set searches

#: The one subsets round.  120 P-tests of P-matrices at n = 12 hold the
#: median operation: every P-test computes all 2**n - 1 minors, so their
#: cost does not depend on the draw, where a greedy search's cost follows
#: the root-finder's iteration counts and its median over a run moved by
#: about 8 % from seed to seed.  Only a few calls at n <= 13 cost about as
#: much or less, and about fifty calls cost more, so the median sits inside
#: that family.  Sixteen P-tests at n = 17 sit right below the four
#: largest calls (the n = 19 and n = 18 P-tests, the exhaustive searches
#: at n = 8 and 9), so the tail operation, the eleventh largest, is always
#: an n = 17 P-test.  Of the 146 P-tests, 8 could stop at their second
#: minor (an early witness) and 138 must scan all 2**n - 1 minors.
SUBSETS_ROUND = (
    ("minor_table", (12, 13, 14, 15, 16, 17)),
    ("charpoly_roots", (12, 12, 12, 13, 13, 13, 14, 14, 15, 16, 17)),
    ("is_p_full", (12,) * 120 + (14, 16) + (17,) * 6 + (19,)),
    ("is_p_early", (12, 14, 16) + (17,) * 5),
    ("is_p_late", (12, 14, 16) + (17,) * 5 + (18,)),
    ("select_exhaustive", (6, 7, 8, 9)),
    ("select_greedy", (6,) * 6 + (8, 9, 10, 11, 12)),
)


def subsets_op(family: str, n: int, rng) -> Op:
    import pivotkit as pk

    if family == "minor_table":
        a = inputs.general(rng, n)
        return Op(family, n, lambda: pk.minor_table(a),
                  lambda out: oracles.check_minor_table(a, out))
    if family == "charpoly_roots":
        a, p = inputs.spread_transform(rng, n)
        al = _one_based(p)
        return Op(family, n, lambda: pk.roots(pk.ppt_charpoly(a, al)),
                  lambda out: oracles.check_spectrum(
                      out.eigenvalues, oracles.transform(a, p), out.spectral_radius))
    if family.startswith("is_p"):
        make = {"is_p_full": inputs.p_matrix, "is_p_early": inputs.non_p_early,
                "is_p_late": inputs.non_p_late}[family]
        a = make(rng, n)

        def check(cert):
            w = None if cert.witness is None else tuple(cert.witness)
            oracles.check_p_test(a, cert.verdict, w)
            return None
        return Op(family, n, lambda: pk.is_p_matrix(a), check)
    if family == "select_exhaustive":
        a = inputs.rescue(rng, n)[0]
        t = np.eye(n) - a / np.diag(a)[:, None]      # its Jacobi matrix
        return Op(family, n, lambda: pk.select_alpha(t, "exhaustive"),
                  lambda out: oracles.check_exhaustive(
                      t, [i - 1 for i in out[0]], out[1]))
    if family == "select_greedy":
        t = inputs.greedy_target(rng, n)
        return Op(family, n, lambda: pk.select_alpha(t, "greedy"),
                  lambda out: oracles.check_greedy(
                      t, [i - 1 for i in out[0]], out[1]))
    raise ValueError(f"unknown subsets family {family}")


def subsets_round(seed: int, r: int) -> list[Op]:
    return interleave([subsets_op(family, n, _rng(seed, r, slot, i))
                       for i, n in enumerate(orders)]
                      for slot, (family, orders) in enumerate(SUBSETS_ROUND))


def subsets_warmup() -> list[Op]:
    return [subsets_op(family, min(orders), _rng(0, slot))
            for slot, (family, orders) in enumerate(SUBSETS_ROUND)]


# ===========================================================================

def round_maker(workload: str, seed: int, workdir: str) -> Callable[[int], list[Op]]:
    """round number -> the operations of that round, the same in every
    process that builds them with the same seed."""
    if workload == "desk":
        return Desk(seed, workdir).round
    if workload == "dense":
        return lambda r: dense_round(seed, r)
    return lambda r: subsets_round(seed, r)
