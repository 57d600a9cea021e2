"""Command line front end.

    visnav run --task forward --trials 20 --seed 7 --out results/
    visnav stats --in results/results.csv
    visnav spread --in results/trajectory_0.csv

Exit codes: 0 on success, 2 on configuration or input-file errors, 3 when
--strict is set and any trial failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (Campaign, MalformedLogError, format_summary, load_trajectory,
                      path_spread, read_results_csv, run_campaign, summarize_results)
from .mission import MissionKind, ScenarioError, default_scenario, load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visnav",
        description="Vision-based moving-target navigation simulator and experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded mission campaign")
    p_run.add_argument("--task", choices=[k.value for k in MissionKind],
                       help="built-in scenario (ignored when --config names one)")
    p_run.add_argument("--trials", type=int, default=None,
                       help="trial count (default: config value, else 20)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="base seed, trial i uses seed+i (default: config value, else 0)")
    p_run.add_argument("--config", type=Path, help="JSON scenario file (see README)")
    p_run.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory for results.csv and trajectories")
    p_run.add_argument("--dump-frames", action="store_true",
                       help="write every captured camera frame as a PPM file")
    p_run.add_argument("--literal-eq3", action="store_true",
                       help="drop the forward-axis sign correction in the controller "
                            "(comparison mode; the vehicle flies away from forward targets)")
    p_run.add_argument("--strict", action="store_true",
                       help="exit with status 3 if any trial fails")
    p_run.set_defaults(func=cmd_run)

    p_stats = sub.add_parser("stats", help="recompute aggregates from a results.csv")
    p_stats.add_argument("--in", dest="infile", type=Path, required=True)
    p_stats.set_defaults(func=cmd_stats)

    p_spread = sub.add_parser("spread", help="return-path spread of a trajectory csv")
    p_spread.add_argument("--in", dest="infile", type=Path, required=True)
    p_spread.set_defaults(func=cmd_spread)
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    if args.config is not None:
        scenario = load_scenario(args.config)
    elif args.task is not None:
        scenario = default_scenario(args.task)
    else:
        raise ScenarioError("either --task or --config is required")
    trials = args.trials if args.trials is not None else (scenario.trials or 20)
    base_seed = args.seed if args.seed is not None else (scenario.base_seed or 0)
    if trials < 1:
        raise ScenarioError("--trials must be >= 1")
    if args.literal_eq3:
        gains = replace(scenario.cfg.gains, literal_axes=True)
        scenario = replace(scenario, cfg=replace(scenario.cfg, gains=gains))

    campaign = Campaign(scenario, trials=trials, base_seed=base_seed)
    stats = run_campaign(campaign, out_dir=args.out, dump_frames=args.dump_frames)

    for rec in stats.records:
        r = rec.result
        print(f"trial {rec.trial:3d} seed {rec.seed} {r.outcome:24s} "
              f"elapsed {r.elapsed_s:8.1f} s  final ({r.final_pose.x:+.3f}, {r.final_pose.y:+.3f})")
    print(f"success {stats.success_count}/{campaign.trials}  "
          f"mean {stats.mean:.4f} s  std_dev {stats.std_dev:.4f} s")
    print(f"wrote {args.out}/results.csv")
    if args.strict and stats.success_count < campaign.trials:
        return 3
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    rows = read_results_csv(args.infile)
    print(format_summary(summarize_results(rows), len(rows)), end="")
    return 0


def cmd_spread(args: argparse.Namespace) -> int:
    rows = load_trajectory(args.infile)
    print(f"path_spread_m: {path_spread(rows)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, MalformedLogError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
