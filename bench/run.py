"""pivotkit benchmark.

    python3 bench/run.py --workload {desk,dense,subsets} --seed N \
        --seconds T --trace {0,1}

Run from anywhere; pivotkit is imported from the ``src`` directory next to
this one, never from an installed copy.  Each workload runs in fresh
Python processes (see ``child.py``): several are started only to time
set-up, and one runs the batch.  The batch is a fixed number of whole
rounds, set by ``--seconds`` alone, so every run of a workload attempts
the same operations in the same order; ``--seed`` only changes the input
values.  The batch process sets no BLAS thread variable: the benchmark
measures pivotkit in the environment a user gets.  Its outputs are
checked here, in this process, which builds the same operations from the
same seed and runs its own BLAS on one thread, so that no worker of its
spins beside a timed call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the batch runs
with spans recorded around every layer and the metrics are the per-layer
ones.  Names and units come from ``BENCHMARK.json``.  Lines before it
summarise the run for a reader.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh processes timed from start to the end of warm-up; the batch
#: process is one of them.  set-up time is their median.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
#: A child process is killed after CHILD_TIMEOUT_BASE + CHILD_TIMEOUT_PER_S
#: * --seconds: the batch spends about --seconds in calls and as much
#: again in set-up and checks.
CHILD_TIMEOUT_BASE = 60.0
CHILD_TIMEOUT_PER_S = 4.0
#: The tail latency is the (TAIL_BEYOND + 1)-th largest, so that exactly
#: TAIL_BEYOND operations lie beyond it.
TAIL_BEYOND = 10


#: The caller's environment, taken before main() sets this process's own
#: BLAS threads; every process that runs pivotkit starts from it.
USER_ENV = dict(os.environ)


class BenchError(RuntimeError):
    pass


def child_timeout(seconds: float) -> float:
    return CHILD_TIMEOUT_BASE + CHILD_TIMEOUT_PER_S * seconds


def _env() -> dict:
    env = dict(USER_ENV)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


class Child:
    """A workload process, killed and reaped however the run ends."""

    def __init__(self, args: argparse.Namespace, *extra: str):
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
        self.err_path = os.path.join(OUT, f"child-{args.workload}-{args.seed}.err")
        self._err = open(self.err_path, "w", encoding="utf-8")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._err, env=_env(), cwd=ROOT)
        self._timer = threading.Timer(child_timeout(args.seconds), self.proc.terminate)
        self._timer.start()

    def ready(self) -> float:
        """Seconds from process start until it reported the end of warm-up."""
        line = self.proc.stdout.readline()
        if line.strip() != b"READY":
            raise BenchError(f"workload process did not get ready: {line!r}"
                             f"{self._stderr_tail()}")
        return time.perf_counter() - self.start

    def receive(self) -> tuple:
        """The next record the batch process sent (see ``child.py``)."""
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError) as exc:
            code = self.proc.wait()
            raise BenchError(f"workload process stopped ({exc!r}, exit code {code})"
                             f"{self._stderr_tail()}") from None

    def go_on(self) -> None:
        """Lets the batch process start its next call."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()

    def finish(self) -> None:
        self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"workload process exited with {code}"
                             f"{self._stderr_tail()}")

    def _stderr_tail(self) -> str:
        self._err.flush()
        with open(self.err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        return f"\n--- stderr ---\n{tail}" if tail else ""

    def close(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.terminate()       # lets the child remove its work directory
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._err.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def setup_probe(args) -> float:
    with Child(args, "--setup-only") as child:
        t = child.ready()
        child.finish()
        return t


def judge(op, error, out) -> tuple[bool, float | None, str | None]:
    """(failed, correct digits, complaint) of one call."""
    if error is not None:
        expected, text = error
        return True, None, None if expected else f"{op.family}: raised {text}"
    try:
        return False, op.check(out), None
    except Exception as exc:        # a wrong or unreadable output
        return True, None, f"{op.family}: {type(exc).__name__}: {exc}"


def run_batch(args) -> tuple[float, dict]:
    """Runs the batch in a fresh process and checks each output here while
    that process waits.  Returns its set-up time and the raw results."""
    import workloads

    raw = {key: [] for key in ("families", "orders", "rounds", "latencies_ms",
                               "failed", "digits", "wrong")}
    checkdir = os.path.join(OUT, f"check-{os.getpid()}")
    os.makedirs(checkdir)
    try:
        make_round = workloads.round_maker(args.workload, args.seed, checkdir)
        with Child(args) as child:
            t = child.ready()
            current, ops = None, iter(())
            while True:
                record = child.receive()
                if record[0] == "done":
                    break
                _, family, order, r, ms, error, out = record
                if r != current:
                    current, ops = r, iter(make_round(r))
                op = next(ops, None)
                if op is None or (op.family, op.order) != (family, order):
                    raise BenchError(f"round {r}: the batch ran {family} n={order}, "
                                     f"where {op and op.family} was built here")
                failed, digits, complaint = judge(op, error, out)
                child.go_on()
                for key, value in (("families", family), ("orders", order),
                                   ("rounds", r), ("latencies_ms", ms),
                                   ("failed", failed), ("digits", digits)):
                    raw[key].append(value)
                if complaint:
                    raw["wrong"].append(complaint)
            child.finish()
    finally:
        shutil.rmtree(checkdir, ignore_errors=True)
    raw.update(record[1])
    return t, raw


def _scipy_linalg_ms(rows: list[tuple[int, float, str]]) -> float:
    """Cumulative import time of scipy.linalg.  Its own line is missing
    when scipy loads it lazily, so then sum its outermost submodules."""
    sub = [(depth, ms) for depth, ms, name in rows
           if name == "scipy.linalg" or name.startswith("scipy.linalg.")]
    if not sub:
        return 0.0
    top = min(depth for depth, _ in sub)
    return sum(ms for depth, ms in sub if depth == top)


def import_times() -> dict[str, float]:
    """Cumulative import times of pivotkit and scipy.linalg, from -X importtime."""
    totals, linalg = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import pivotkit"], capture_output=True, text=True,
                              env=_env(), cwd=ROOT, timeout=child_timeout(0))
        if proc.returncode != 0:
            raise BenchError(f"import pivotkit failed:\n{proc.stderr[-2000:]}")
        rows = []
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)$", line)
            if m:
                rows.append((len(m.group(2)), int(m.group(1)) / 1e3, m.group(3)))
        totals.append(next(ms for _, ms, name in rows if name == "pivotkit"))
        linalg.append(_scipy_linalg_ms(rows))
    return {"import.total_ms": statistics.median(totals),
            "import.scipy_linalg_ms": statistics.median(linalg)}


def end_to_end(raw: dict, setup: list[float]) -> dict[str, float]:
    done = [t for t, f in zip(raw["latencies_ms"], raw["failed"]) if not f]
    if not done:
        raise BenchError("no operation completed")
    ordered = sorted(done)
    tail = ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": throughput(raw),
        "op_p50_ms": statistics.median(done),
        "op_tail_ms": tail,
        "peak_rss_mb": raw["peak_rss_mb"],
        "accuracy_digits": accuracy(raw),
    }


def report(metrics: dict[str, float], kind: str) -> dict[str, dict]:
    """The metrics as ``BENCHMARK.json`` lists them under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(units) != set(metrics):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


def throughput(raw: dict) -> float:
    """Median over rounds of completed operations per second of call time.

    Every round runs the same operations, so a round's rate is one sample
    of the machine's speed; the median leaves out rounds that a burst of
    outside load slowed."""
    done: dict[int, int] = {}
    wall: dict[int, float] = {}
    for r, t, f in zip(raw["rounds"], raw["latencies_ms"], raw["failed"]):
        done[r] = done.get(r, 0) + (not f)
        wall[r] = wall.get(r, 0.0) + t / 1e3
    return statistics.median(done[r] / wall[r] for r in wall)


def accuracy(raw: dict) -> float:
    """The fewest correct digits of any operation family's median output.

    The single worst output of a run depends on which draw came up (its
    digits range over several units between seeds); a family's median
    does not, and a route that loses accuracy moves it."""
    by_family: dict[str, list[float]] = {}
    for fam, d in zip(raw["families"], raw["digits"]):
        if d is not None:
            by_family.setdefault(fam, []).append(d)
    if not by_family:
        raise BenchError("no output was compared with a reference value")
    return min(statistics.median(ds) for ds in by_family.values())


def summary(raw: dict) -> list[str]:
    """Which family holds the median and the tail operation, for a reader."""
    done = sorted((t, f"{fam} n={n}") for t, fam, n, f in zip(
        raw["latencies_ms"], raw["families"], raw["orders"], raw["failed"]) if not f)
    n = len(done)
    lines = [f"# attempted {len(raw['failed'])}, failed {sum(raw['failed'])}, "
             f"completed {n}"]
    if n:
        k = max(0, n - 1 - TAIL_BEYOND)
        lines.append(f"# median op {done[n // 2][0]:.3f} ms ({done[n // 2][1]}); "
                     f"tail = p{100.0 * k / max(1, n - 1):.2f}, the {n - k}-th largest: "
                     f"{done[k][0]:.3f} ms ({done[k][1]})")
    for msg in raw["wrong"][:10]:
        lines.append(f"# WRONG {msg}")
    return lines


def _terminate(signum, frame):
    # unwinds through Child.__exit__, which kills and reaps the child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("desk", "dense", "subsets"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "pivotkit", "__init__.py")):
        print(f"error: no pivotkit sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # for the checks in this process only; set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    try:
        if args.trace:
            _, raw = run_batch(args)
            metrics = dict(import_times())
            metrics.update(raw["layers"])
            metrics["process.cpu_over_wall"] = raw["cpu_s"] / raw["wall_s"]
            metrics["trace.ops_per_s"] = throughput(raw)
            result = report(metrics, "per_layer")
        else:
            setup = [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            t, raw = run_batch(args)
            setup.append(t)
            result = report(end_to_end(raw, setup), "end_to_end")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in summary(raw):
        print(line)
    print(json.dumps({"correct": not raw["wrong"], "attempted": len(raw["failed"]),
                      "failed": sum(raw["failed"]), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
