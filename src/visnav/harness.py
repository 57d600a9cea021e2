"""Experiment campaigns: N seeded trials, summary statistics, CSV emission.

A campaign runs the same scenario `trials` times with derived seeds
(trial i uses base_seed + i), aggregates the elapsed times of successful
trials into mean / sample standard deviation, and optionally writes
results.csv, per-trial trajectory CSVs and summary.txt into an output
directory.  Everything is a pure function of (scenario, base_seed,
trials), so outputs are bit-identical across repeated runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .mission import MissionResult, Scenario, run
from .perception import frame_filename, write_ppm
from .sim import TRAJECTORY_COLUMNS, TrajectoryRow, write_trajectory_csv

RESULTS_COLUMNS = ("trial", "seed", "outcome", "elapsed_s", "ticks", "final_x", "final_y")

#: fsm_state prefixes that make up the return leg of an out-and-back log.
RETURN_PHASES = ("reversing", "servoing_home", "landing", "landed")


class InsufficientDataError(ValueError):
    """A statistic was requested on too few values."""


class MalformedLogError(ValueError):
    """A trajectory log is missing required columns or phases."""


def sample_stats(values: Iterable[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 denominator).

    Raises InsufficientDataError on fewer than two values.
    """
    vals = np.asarray(list(values), dtype=float)
    if vals.size < 2:
        raise InsufficientDataError(
            f"sample standard deviation needs >= 2 values, got {vals.size}")
    return float(vals.mean()), float(vals.std(ddof=1))


@dataclass(frozen=True)
class Campaign:
    """A scenario plus the trial protocol: how many runs, seeded how."""

    scenario: Scenario
    trials: int = 20
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("a campaign needs at least one trial")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")

    def seed_for(self, trial: int) -> int:
        return self.base_seed + trial


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    result: MissionResult


@dataclass(frozen=True)
class CampaignStats:
    """Aggregate over successful trials; mean/std are NaN below 2 successes."""

    mean: float
    std_dev: float
    success_count: int
    records: tuple[TrialRecord, ...]


def _aggregate(times: Sequence[float],
               records: Sequence[TrialRecord] = ()) -> CampaignStats:
    """CampaignStats over the elapsed times of the successful trials."""
    if len(times) >= 2:
        mean, std_dev = sample_stats(times)
    elif len(times) == 1:
        mean, std_dev = times[0], float("nan")
    else:
        mean, std_dev = float("nan"), float("nan")
    return CampaignStats(mean, std_dev, len(times), tuple(records))


def format_summary(stats: CampaignStats, trials: int) -> str:
    """The text of summary.txt, which `visnav stats` also prints."""
    return (f"trials: {trials}\n"
            f"success_count: {stats.success_count}\n"
            f"mean_s: {stats.mean}\n"
            f"std_dev_s: {stats.std_dev}\n")


def run_campaign(campaign: Campaign, out_dir: Optional[str | Path] = None,
                 dump_frames: bool = False) -> CampaignStats:
    """Run all trials in index order and aggregate.

    Failures are counted and reported but excluded from the time
    statistics.  With ``out_dir`` set, writes results.csv, summary.txt and
    trajectory_{trial}.csv per trial; ``dump_frames`` additionally saves
    every captured frame under trial_{trial}/ as PPM files.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    records: list[TrialRecord] = []
    for trial in range(campaign.trials):
        seed = campaign.seed_for(trial)
        world = campaign.scenario.make_world(seed)
        sink = None
        if dump_frames and out_path is not None:
            frame_dir = out_path / f"trial_{trial}"
            frame_dir.mkdir(exist_ok=True)
            sink = lambda step, frame, d=frame_dir: write_ppm(frame, d / frame_filename(step))
        result = run(campaign.scenario.spec, world, campaign.scenario.cfg,
                     frame_sink=sink)
        records.append(TrialRecord(trial, seed, result))
        if out_path is not None:
            write_trajectory_csv(result.rows, out_path / f"trajectory_{trial}.csv")

    stats = _aggregate([r.result.elapsed_s for r in records if r.result.success], records)
    if out_path is not None:
        write_results_csv(records, out_path / "results.csv")
        (out_path / "summary.txt").write_text(format_summary(stats, campaign.trials))
    return stats


def write_results_csv(records: Sequence[TrialRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for rec in records:
            r = rec.result
            writer.writerow([rec.trial, rec.seed, r.outcome, repr(r.elapsed_s),
                             r.ticks, repr(r.final_pose.x), repr(r.final_pose.y)])


def _read_csv(path: str | Path, columns: Sequence[str], what: str) -> list[dict]:
    """Rows of a CSV file as dicts; raises MalformedLogError when the header
    lacks any of ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or [])
        if missing:
            raise MalformedLogError(f"{what} file missing columns: {sorted(missing)}")
        return list(reader)


def read_results_csv(path: str | Path) -> list[dict]:
    """Rows of a results.csv as dicts; raises MalformedLogError when the
    header lacks required columns."""
    return _read_csv(path, RESULTS_COLUMNS, "results")


def summarize_results(rows: Sequence[dict]) -> CampaignStats:
    """Recompute campaign aggregates from results.csv rows."""
    return _aggregate([float(r["elapsed_s"]) for r in rows if r["outcome"] == "success"])


def load_trajectory(path: str | Path) -> list[TrajectoryRow]:
    """Read a trajectory CSV back into rows.

    Raises MalformedLogError when the header is missing any canonical
    column.
    """
    return [TrajectoryRow(
        step=int(raw["step"]),
        time_s=float(raw["time_s"]),
        drone_x=float(raw["drone_x"]),
        drone_y=float(raw["drone_y"]),
        drone_z=float(raw["drone_z"]),
        vel_fwd=float(raw["vel_fwd"]),
        vel_right=float(raw["vel_right"]),
        fsm_state=raw["fsm_state"],
        detected_color=raw["detected_color"],
        err_px=float(raw["err_px"]) if raw["err_px"] != "" else None,
    ) for raw in _read_csv(path, TRAJECTORY_COLUMNS, "trajectory")]


def path_spread(rows: Sequence[TrajectoryRow]) -> float:
    """Maximum perpendicular deviation of the return leg from the straight
    line between the start point and the outbound apex.

    The apex is the pose at the end of the hover over the found marker;
    the return leg is every later row in a reversing / homing / landing
    phase.  Quantifies how much drift widens the back path: an exact
    out-and-back spreads (numerically) zero.

    Raises MalformedLogError when the log lacks the needed phases or is
    degenerate.
    """
    if not rows:
        raise MalformedLogError("empty trajectory log")
    hover_idx = [i for i, r in enumerate(rows)
                 if r.fsm_state.split(":", 1)[0] == "hovering_on_target"]
    if not hover_idx:
        raise MalformedLogError("log has no hovering_on_target phase; "
                                "not a completed out-and-back mission")
    apex_i = hover_idx[-1]
    start = np.array([rows[0].drone_x, rows[0].drone_y])
    apex = np.array([rows[apex_i].drone_x, rows[apex_i].drone_y])
    line = apex - start
    length = float(np.hypot(*line))
    if length < 1e-12:
        raise MalformedLogError("outbound leg is degenerate (start == apex)")

    ret = [(r.drone_x, r.drone_y) for r in rows[apex_i + 1:]
           if r.fsm_state.split(":", 1)[0] in RETURN_PHASES]
    if not ret:
        raise MalformedLogError("log has no return leg after the hover")
    pts = np.asarray(ret, dtype=float) - start
    deviation = np.abs(line[0] * pts[:, 1] - line[1] * pts[:, 0]) / length
    return float(deviation.max())
