#!/usr/bin/env python3
"""Run a workload once per seed and summarise each end-to-end metric.

    python3 bench/spread.py --workload drift_sweep --seeds 1-10

Each run is untraced, lasts BENCHMARK.json's ``run_seconds`` and has a
process of its own; runs are made one after the other.  For every metric
it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, which is the spread the benchmark's bounds are compared with;
then the failed share of operations, which must be equal in every run.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import WORKLOADS, run_in_child, spec


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    results = []
    for seed in args.seeds:
        try:
            result = run_in_child(args.workload, seed, seconds)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{args.workload}, {len(results)} runs of {seconds:g} s")
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{bounds[name]:>6} {first['unit']}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
