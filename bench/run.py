#!/usr/bin/env python3
"""visnav benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload drift_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table

The program is imported from ``src/`` next to this directory, never from
an installed copy.  Inputs come from ``--seed``.  Rounds over the same
inputs repeat until ``--seconds`` (by default BENCHMARK.json's
``run_seconds``) of timed work have run; after each round the outputs are
checked, untimed.  A single-workload run ends its standard output with one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  ``--workload all`` runs each workload in its own process
and prints their results as a table instead.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("drift_sweep", "campaign_io", "pattern_reversal", "cluttered_search")
#: Fresh processes whose set-up is timed (this one included); setup_s is their median.
SETUP_SAMPLES = 5


def set_up(workload: str, seed: int, workdir: Path):
    """Import visnav from this checkout and build the workload's inputs.
    Returns the workload and the seconds that took."""
    t0 = time.perf_counter()
    if not (SRC / "visnav" / "__init__.py").is_file():
        sys.exit(f"error: no visnav sources at {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import visnav
    if Path(visnav.__file__).resolve().parent != SRC / "visnav":
        sys.exit(f"error: imported visnav from {visnav.__file__}, not from {SRC}")
    from workloads import WORKLOADS as classes
    wl = classes[workload](seed, workdir)
    return wl, time.perf_counter() - t0


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, as it reports it."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_workload(args) -> dict:
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    wl, own_setup = set_up(args.workload, args.seed, workdir)
    if args.setup_only:
        print(repr(own_setup))
        return {}
    import visnav
    from calibrate import REFERENCE_S, slice_s, to_reference
    from checks import Tally
    from tracer import Tracer

    cals = [slice_s()]     # host-speed samples: around set-up sampling, then after each step
    setups = [own_setup] + [setup_sample(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    cals.append(slice_s())
    setup_s = to_reference(statistics.median(setups), (cals[0] + cals[1]) / 2)
    tracer = Tracer(visnav) if args.trace else None
    if tracer is not None:
        wl.mark_mission = tracer.next_mission

    def recording(timed):
        return tracer.recording(timed) if tracer is not None else contextlib.nullcontext()

    tally = Tally()
    rounds = []            # (seconds, seconds at reference speed, missions, ticks) per round
    try:
        while not rounds or sum(r[0] for r in rounds) < args.seconds:
            out, elapsed, scaled = [], 0.0, 0.0
            for step in wl.steps():
                with recording(timed=True):
                    t0 = time.perf_counter()
                    out.append(step())
                    seconds = time.perf_counter() - t0
                cals.append(slice_s())
                elapsed += seconds
                # at the host speed measured on either side of the step
                scaled += to_reference(seconds, (cals[-2] + cals[-1]) / 2)
            with recording(timed=False):
                back = wl.readback(out)
            missions, ticks = wl.counts(out)
            if rounds and (missions, ticks) != rounds[0][2:]:
                tally.problems.append(f"round {len(rounds)} did {missions} missions / "
                                      f"{ticks} ticks, round 0 did {rounds[0][2:]}")
            rounds.append((elapsed, scaled, missions, ticks))
            wl.check(out, back, tally)
            if len(rounds) == 1:
                sim_stats = wl.stats(out)
            del out, back
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = sum(r[0] for r in rounds)
    timed_ref = sum(r[1] for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{timed:.3f} s timed ({timed_ref:.3f} s at reference speed), "
          f"{rounds[0][2]} missions and {rounds[0][3]} ticks per round")
    print(f"raw: {statistics.median(r[2] / r[0] for r in rounds):.6g} missions/s, "
          f"{statistics.median(r[3] / r[0] for r in rounds):.6g} ticks/s, "
          f"set-up {statistics.median(setups):.4f} s; calibration kernel "
          f"{statistics.median(cals) * 1e3:.3f} ms (reference {REFERENCE_S * 1e3:.3f} ms)")
    print("stats " + json.dumps(sim_stats, sort_keys=True))
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed "
          + json.dumps(tally.fail_reasons, sort_keys=True))
    for p in tally.problems[:20]:
        print(f"WRONG: {p}", file=sys.stderr)

    units = metric_units("per_layer" if tracer is not None else "end_to_end")
    if tracer is not None:
        values = tracer.layer_metrics(len(rounds), timed)
        values = {k: v * timed_ref / timed if units.get(k) in ("s", "us") else v
                  for k, v in values.items()}
        print(f"traced: {statistics.median(r[3] / r[1] for r in rounds):.1f} "
              f"ticks/s at reference speed, {len(tracer.name)} spans")
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        values = {
            "setup_s": setup_s,
            "missions_per_s": statistics.median(r[2] / r[1] for r in rounds),
            "sim_ticks_per_s": statistics.median(r[3] / r[1] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def spec() -> dict:
    """BENCHMARK.json at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def run_in_child(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run of ``workload`` in a fresh process; returns its JSON result.
    Raises RuntimeError, with the run's standard error, when it exits non-zero."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own process, one after the other; one table."""
    ok = True
    for name in WORKLOADS:
        try:
            result = run_in_child(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            ok = False
            continue
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:42s} {v['value']:>14.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                        help="timed work per run; rounds are whole, so a run may go past it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
