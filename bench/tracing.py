"""Spans around pivotkit's layers, installed at run time from the benchmark.

:meth:`Tracer.install` wraps the public functions of each pivotkit module,
the main methods of ``IndexSet``, and the ``scipy.linalg.lu_factor`` /
``lu_solve`` calls pivotkit makes.  A wrapped function is rebound in every
pivotkit namespace that binds it, so ``solver.ppt`` is wrapped as well as
``pivot.ppt``; the scipy calls are wrapped through a proxy put in place
of the ``scipy.linalg`` module in pivotkit's namespaces only, so the
benchmark's own scipy calls are not counted.

Each call records a span ``[name, start, end, parent, info, raised]`` in
memory; :func:`layer_metrics` turns the spans into the per-layer metrics
and :meth:`Tracer.write` writes them out at the end of the run.  A span's
self time is its duration minus the durations of its child spans (calls
are nested on one thread, so children never overlap).
"""
from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

from oracles import lex_rank

#: The pivotkit modules whose public functions are wrapped.
MODULES = ("cli", "matrixio", "indexing", "core", "pivot", "spectra",
           "solver", "classify")

_INDEXSET_METHODS = ("__init__", "mask", "bitmask", "complement", "spec")
_INDEXSET_CLASSMETHODS = ("empty", "full", "coerce", "parse")

NAME, START, END, PARENT, INFO, RAISED = range(6)


def _nrhs(args, kwargs, result):
    b = args[1] if len(args) > 1 else kwargs.get("b")
    shape = getattr(b, "shape", ())
    return shape[1] if len(shape) == 2 else 1


def _p_test(args, kwargs, result):
    n = len(args[0])
    witness = result.witness
    return n, None if witness is None else tuple(witness.indices)


#: What a span keeps besides its times, by span name: small values only,
#: so the spans hold no arrays alive.
_INFO = {
    "scipy.lu_solve": _nrhs,
    "matrixio.read_matrix": lambda args, kw, res: args[0],
    "matrixio.read_vector": lambda args, kw, res: args[0],
    "matrixio.format_matrix": lambda args, kw, res: len(res),
    "matrixio.format_vector": lambda args, kw, res: len(res),
    "core.minor_table": lambda args, kw, res: len(res) - 1,
    "core.principal_minors": lambda args, kw, res: len(res) - 1,
    "pivot.counted_singleton_inverse": lambda args, kw, res: res[1],
    "pivot.sequential_inverse":
        lambda args, kw, res: len(args[1]) if hasattr(args[1], "__len__") else None,
    "solver.iterate": lambda args, kw, res: res.iterations,
    "classify.is_p_matrix": _p_test,
}


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` in pivotkit's namespaces."""

    def __init__(self, real, **wrapped):
        self._real = real
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                stack.pop()
                rec[RAISED] = type(exc).__name__
                raise
            rec[END] = clock()
            stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        import scipy.linalg

        import pivotkit

        modules = [importlib.import_module(f"pivotkit.{m}") for m in MODULES]
        replaced = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replaced[obj] = self.wrap(f"{short}.{attr}", obj)
        lu = {name: self.wrap(f"scipy.{name}", getattr(scipy.linalg, name))
              for name in ("lu_factor", "lu_solve")}
        proxy = _LinalgProxy(scipy.linalg, **lu)
        for mod in [pivotkit] + modules:
            for attr, obj in list(vars(mod).items()):
                if obj is scipy.linalg:
                    setattr(mod, attr, proxy)
                elif inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                elif obj is scipy.linalg.lu_factor or obj is scipy.linalg.lu_solve:
                    setattr(mod, attr, lu[obj.__name__])
        cls = pivotkit.indexing.IndexSet
        for attr in _INDEXSET_METHODS:
            setattr(cls, attr, self.wrap(f"indexing.IndexSet.{attr}",
                                         cls.__dict__[attr]))
        for attr in _INDEXSET_CLASSMETHODS:
            raw = cls.__dict__[attr].__func__
            setattr(cls, attr, classmethod(self.wrap(f"indexing.IndexSet.{attr}", raw)))
        fget = cls.__dict__["zero_based"].fget
        setattr(cls, "zero_based",
                property(self.wrap("indexing.IndexSet.zero_based", fget)))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\traised\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i}\t{rec[NAME]}\t{rec[START]:.9f}\t{rec[END]:.9f}\t"
                         f"{rec[PARENT]}\t{rec[RAISED] or ''}\n")


_READ = ("matrixio.read_matrix", "matrixio.read_vector",
         "matrixio.parse_matrix", "matrixio.parse_vector")
_WRITE = ("matrixio.format_matrix", "matrixio.format_vector",
          "matrixio.write_matrix", "matrixio.write_vector")


def layer_metrics(spans: list[list], attempted: int) -> dict[str, float]:
    """Per-layer metrics from spans (all but import.*, process.*, trace.*)."""
    n_spans = len(spans)
    child = [0.0] * n_spans
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    raised: dict[str, int] = defaultdict(int)
    info_sum: dict[str, float] = defaultdict(float)
    solve_max = 0.0
    multi_rhs = 0
    read_bytes = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] += 1
        self_ms[name] += (rec[END] - rec[START] - child[i]) * 1e3
        if rec[RAISED]:
            raised[name] += 1
        info = rec[INFO]
        if name == "scipy.lu_solve":
            solve_max = max(solve_max, (rec[END] - rec[START]) * 1e3)
            multi_rhs += info is not None and info >= 2
        elif name in ("matrixio.read_matrix", "matrixio.read_vector"):
            if info is not None:
                read_bytes += os.path.getsize(info)
        elif isinstance(info, (int, float)):
            info_sum[name] += info

    # pivot-set search: each candidate set costs one radius evaluation
    # (an eigenvalues call) unless its pivot block was rejected first
    candidates = skipped = 0
    # P-test: minors needed for the verdict against minors computed below it
    needed = computed = 0
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        name = rec[NAME]
        if parent >= 0 and spans[parent][NAME] == "solver.select_alpha":
            if name == "spectra.eigenvalues":
                candidates += 1
                skipped += rec[RAISED] is not None
            elif name == "pivot.ppt" and rec[RAISED] is not None:
                candidates += 1
                skipped += 1
        if name == "classify.is_p_matrix" and rec[INFO] is not None:
            n, witness = rec[INFO]
            needed += (1 << n) - 1 if witness is None else lex_rank(witness, n)
        if name in ("core.minor_table", "core.principal_minors") and rec[INFO]:
            j = parent
            while j >= 0 and spans[j][NAME] != "classify.is_p_matrix":
                j = spans[j][PARENT]
            if j >= 0:
                computed += rec[INFO]

    def total(names):
        return sum(self_ms[n] for n in names)

    return {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": self_ms["cli.main"],
        "matrixio.read.self_ms": total(_READ),
        "matrixio.read.bytes": read_bytes,
        "matrixio.write.self_ms": total(_WRITE),
        "matrixio.write.bytes": info_sum["matrixio.format_matrix"]
        + info_sum["matrixio.format_vector"],
        "indexing.IndexSet.calls": calls["indexing.IndexSet.__init__"],
        "indexing.self_ms": sum(v for k, v in self_ms.items()
                                if k.startswith("indexing.")),
        "core.lu.factor_calls": calls["scipy.lu_factor"],
        "core.lu.factor_per_op": calls["scipy.lu_factor"] / max(1, attempted),
        "core.lu.factor_ms": self_ms["scipy.lu_factor"],
        "core.lu.solve_calls": calls["scipy.lu_solve"],
        "core.lu.multi_rhs_solve_calls": multi_rhs,
        "core.lu.solve_ms": self_ms["scipy.lu_solve"],
        "core.lu.solve_max_ms": solve_max,
        "core.as_matrix.self_ms": self_ms["core.as_matrix"],
        "core.schur_complement.self_ms": self_ms["core.schur_complement"],
        "core.block_inverse.self_ms": self_ms["core.block_inverse"],
        "core.minor_table.self_ms": self_ms["core.minor_table"],
        "core.principal_minors.self_ms": self_ms["core.principal_minors"],
        "core.minors_evaluated": info_sum["core.minor_table"]
        + info_sum["core.principal_minors"],
        "pivot.ppt.calls": calls["pivot.ppt"],
        "pivot.ppt.self_ms": self_ms["pivot.ppt"],
        "pivot.sequential_inverse.self_ms": self_ms["pivot.sequential_inverse"],
        "pivot.sequential_inverse.stages": info_sum["pivot.sequential_inverse"],
        "pivot.counted_singleton_inverse.self_ms":
            self_ms["pivot.counted_singleton_inverse"],
        "pivot.flops_counted": info_sum["pivot.counted_singleton_inverse"],
        "spectra.charpoly_direct.calls": calls["spectra.charpoly_direct"],
        "spectra.charpoly_direct.self_ms": self_ms["spectra.charpoly_direct"],
        "spectra.ppt_charpoly.self_ms": self_ms["spectra.ppt_charpoly"],
        "spectra.roots.calls": calls["spectra.roots"],
        "spectra.roots.self_ms": self_ms["spectra.roots"],
        "spectra.roots.failed": raised["spectra.roots"],
        "solver.select_alpha.self_ms": self_ms["solver.select_alpha"],
        "solver.select_alpha.candidates": candidates,
        "solver.select_alpha.skipped_ratio": skipped / candidates if candidates else 0.0,
        "solver.iterate.self_ms": self_ms["solver.iterate"],
        "solver.iterate.sweeps": info_sum["solver.iterate"],
        "classify.is_p_matrix.self_ms": self_ms["classify.is_p_matrix"],
        "classify.p_minors_used_ratio": needed / computed if computed else 0.0,
        "classify.is_semipositive.self_ms": self_ms["classify.is_semipositive"],
    }
