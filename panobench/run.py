#!/usr/bin/env python3
"""panograph benchmark: one workload per process.

    python3 panobench/run.py --workload {train_desk,train_panoramic}
                             --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload until S seconds of timed work are done,
checks every output against the restatements in ``checks.py`` outside the
timed region, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the program's public functions and methods are wrapped (``spans.py``) and
the metrics are per layer, plus the traced end-to-end figures under
``trace.*``. The spans are written to ``.panobench/traces/``.

The program is taken from ``src/`` of the checkout that holds this file;
without it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".panobench")
WORKLOAD_NAMES = ("train_desk", "train_panoramic")


def set_threads() -> None:
    """At most nproc compute threads: BLAS gets every core, the features
    pool one worker (it runs while the calling thread waits, and calls no
    BLAS). Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    os.environ["PANOGRAPH_THREADS"] = "1"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "panograph", "__init__.py")):
        print(f"error: no panograph sources under {SRC}", file=sys.stderr)
        return 2
    set_threads()
    sys.path.insert(0, SRC)

    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setup_times = []
        for _ in range(workloads.SETUP_REPEATS):
            elapsed, model = workloads.setup_once(w, args.seed)
            setup_times.append(elapsed)
        run = workloads.Run(w, args.seed, args.seconds, workdir, tracer)
        if w.name == "train_desk":
            workloads.run_train_desk(run)
        else:
            workloads.run_train_panoramic(run, model)
        del model
        metrics = run.metrics(setup_times)
        if tracer:
            tracer.uninstall()
            layer = spans.layer_metrics(tracer.spans, run.counts, threading.main_thread().ident)
            for name, value in metrics.items():
                if name not in ("setup_s", "peak_rss_mb"):
                    layer["trace." + name] = value
            layer["trace.spans"] = (float(len(tracer.spans)), "count")
            layer["trace.overhead_share"] = (
                len(tracer.spans) * tracer.span_cost_s() / run.timed_s, "ratio")
            tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"))
            metrics = layer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = run.ledger
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:40s} {value:14.6g} {unit}")
    print(f"{args.workload:16s} timed {run.timed_s:.1f} s, {ledger.attempted} operations, "
          f"{ledger.failed} failed")
    print(json.dumps({
        "correct": not ledger.errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
