#!/usr/bin/env python3
"""Compare two sets of benchmark runs of one workload.

    python3 panobench/compare.py BASE.jsonl NEW.jsonl

Each file holds the last stdout line of several runs (one JSON object a
line), for instance from

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 panobench/run.py --workload train_desk --seed $seed --seconds 20 --trace 0 | tail -1
    done > base.jsonl

For every end-to-end metric in BENCHMARK.json it prints each set's median
and quartile spread ((Q3 - Q1) / median, as ``statistics.quantiles(n=4)``
gives them), and the change of the NEW median against BASE in the
direction that is worse, against the metric's bound. It also compares the
share of failed operations. With ``--overhead`` NEW is a set of traced runs
(``--trace 1``) and the lines show what tracing costs each throughput.
Exits 1 when a spread exceeds its bound (setup_s excepted), a median is
worse by more than its bound, or the failed shares differ.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    ok = True
    print(f"{'metric':24s} {'base median':>12s} {'spread':>7s} {'new median':>12s} {'spread':>7s}"
          f" {'worse by':>9s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        name = m["name"]
        key = "trace." + name if args.overhead else name
        if args.overhead and name in ("setup_s", "peak_rss_mb"):
            continue
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][key]["value"] for r in new]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        flag = ""
        if not args.overhead:
            if name != "setup_s" and max(sa, sb) > m["bound"]:
                flag, ok = "SPREAD", False
            if worse > m["bound"]:
                flag, ok = flag + " WORSE", False
        print(f"{name:24s} {ma:12.5g} {sa:7.3f} {mb:12.5g} {sb:7.3f} {worse:+9.3f} {m['bound']:6.2f} {flag}")
    shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in (base, new)]
    print(f"failed share: base {shares[0]}  new {shares[1]}")
    if not args.overhead and (len(shares[0]) > 1 or shares[0] != shares[1]):
        ok = False
    if not all(r["correct"] for r in base + new):
        print("some runs report correct = false")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
