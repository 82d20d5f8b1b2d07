"""One workload process: import pivotkit, warm up, run the batch.

Started by ``run.py`` as ``python3 bench/child.py --workload W --seed S
--seconds T --trace 0|1 [--setup-only]`` with ``src`` first on
``PYTHONPATH``.  It writes ``READY`` to standard output once ``import
pivotkit`` and the untimed warm-up (one call of each operation family on
its smallest input) are done; ``run.py`` times the process up to that
line as set-up.  With ``--setup-only`` it stops there.

Otherwise it runs every round, timing each call alone.  After each call
it sends one pickled record to standard output, ``("op", family, order,
round, latency_ms, error, output)``, and waits for a line on standard
input before the next call: ``run.py`` checks the output in its own
process meanwhile, so no check's imports or arrays count in this
process's memory, and nothing runs beside a timed call.  ``error`` is
None, or ``(expected, text)`` when the call raised.  The last record is
``("done", totals)``.
"""
import argparse
import os
import pickle
import resource
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("desk", "dense", "subsets"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _terminate(signum, frame):
    # unwinds through the finally below, which removes the work directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = _parse(argv)
    import pivotkit

    where = os.path.dirname(os.path.abspath(pivotkit.__file__))
    if where != os.path.join(SRC, "pivotkit"):
        print(f"error: imported pivotkit from {where}, not from {SRC}",
              file=sys.stderr)
        return 3

    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _warmup_ops(workloads, workload, workdir):
    if workload == "desk":
        warm = os.path.join(workdir, "warm")
        os.makedirs(warm)
        return workloads.desk_warmup(warm)
    if workload == "dense":
        return workloads.dense_warmup()
    return workloads.subsets_warmup()


def _run(args, workloads, workdir) -> int:
    for op in _warmup_ops(workloads, args.workload, workdir):
        op.run()
    send = sys.stdout.buffer
    send.write(b"READY\n")
    send.flush()
    if args.setup_only:
        return 0

    make_round = workloads.round_maker(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    clock, cpu = time.perf_counter, time.process_time
    attempted = 0
    wall = busy = 0.0
    for r in range(workloads.rounds_for(args.workload, args.seconds)):
        for op in make_round(r):
            c0 = cpu()
            t0 = clock()
            try:
                out = op.run()
                error = None
            except Exception as e:          # judged by run.py, never hidden
                out = None
                error = (op.expect is not None and isinstance(e, op.expect),
                         f"{type(e).__name__}: {e}")
            t1 = clock()
            c1 = cpu()
            wall += t1 - t0
            busy += c1 - c0
            attempted += 1
            if error is None:
                out = op.settle(out)
            pickle.dump(("op", op.family, op.order, r, (t1 - t0) * 1e3, error, out),
                        send, protocol=pickle.HIGHEST_PROTOCOL)
            send.flush()
            if not sys.stdin.buffer.readline():
                print("error: run.py stopped reading", file=sys.stderr)
                return 1

    totals = {
        "wall_s": wall,
        "cpu_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        totals["layers"] = tracing.layer_metrics(tracer.spans, attempted)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv"))
    pickle.dump(("done", totals), send, protocol=pickle.HIGHEST_PROTOCOL)
    send.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
