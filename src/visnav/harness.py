"""Experiment campaigns: N seeded trials, summary statistics, CSV emission.

A campaign runs the same scenario `trials` times with derived seeds
(trial i uses base_seed + i), aggregates the elapsed times of successful
trials into mean / sample standard deviation, and optionally writes
results.csv, per-trial trajectory CSVs and summary.txt into an output
directory.  Everything is a pure function of (scenario, base_seed,
trials), so outputs are bit-identical across repeated runs.  A zero-noise
world never draws a random number, so every seed flies the same mission:
a zero-noise campaign flies it once, with or without frames, and its
records share that one MissionResult and its trial directories its frames.
"""

from __future__ import annotations

import csv
import math
import operator
import reprlib
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .mission import MissionResult, Phase, run
from .perception import Frame, frame_filename, ppm_size, write_ppm
from .scenario import Campaign
from .sim import TRAJECTORY_COLUMNS, NoiseModel, TrajectoryRow, write_trajectory_csv

RESULTS_COLUMNS = ("trial", "seed", "outcome", "elapsed_s", "ticks", "final_x", "final_y")

#: Largest frame, in PPM bytes, that run_campaign dumps: 32 MiB holds 3840x2160.
MAX_DUMP_FRAME_BYTES = 1 << 25

#: fsm_state prefixes that make up the return leg of an out-and-back log.
RETURN_PHASES = tuple(p.value for p in (Phase.REVERSING, Phase.SERVOING_HOME,
                                        Phase.LANDING, Phase.LANDED))


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
                 dump_frames: int = 0) -> CampaignStats:
    """Run all trials in index order and aggregate.

    Failures are counted and reported but excluded from the time
    statistics.  With ``out_dir`` set, writes results.csv, summary.txt and
    trajectory_{trial}.csv per trial once every trial has run.  A
    ``dump_frames`` stride n >= 1 (True means 1) additionally saves every
    n-th captured frame of a trial, from its first, under trial_{trial}/ as
    PPM files named by step once the trial has flown, creating that
    directory at its first frame; 0 (or False) dumps none.  A negative
    stride raises ValueError, as do a stride >= 1 without ``out_dir`` and a
    dump of frames over MAX_DUMP_FRAME_BYTES, before any trial runs.
    When a trial or a write raises, every directory this call created is
    removed, with what was written into it, before the error propagates.

    Under NoiseModel.zero() the mission does not depend on the seed, so
    trial 0 is flown and trials 1..N-1 get its frozen MissionResult (each
    record keeps its own trial and seed) and, when dumping, its frames.
    """
    stride = operator.index(dump_frames)
    if stride < 0:
        raise ValueError(f"dump_frames stride must be >= 0, got {stride}")
    if stride and out_dir is None:
        raise ValueError("dump_frames needs an out_dir to write the frames into")
    out_path = Path(out_dir) if out_dir is not None else None
    size = ppm_size(campaign.scenario.cfg.frame)
    if stride and size > MAX_DUMP_FRAME_BYTES:
        raise ValueError(f"frame.width x frame.height makes a {size}-byte frame, over the "
                         f"dump cap of {MAX_DUMP_FRAME_BYTES}: {campaign.scenario.cfg.frame}")
    created: list[Path] = []  # outermost first
    frames: list[tuple[int, Frame]] = []  # (step, frame) of the last trial flown, when dumping

    def make_dirs(path: Path) -> None:
        if not path.is_dir():
            make_dirs(path.parent)
            path.mkdir()
            created.append(path)

    def keep(step: int, frame: Frame) -> None:
        frames.append((step, frame))

    fly_once = campaign.scenario.cfg.noise == NoiseModel.zero()

    try:
        records: list[TrialRecord] = []
        for trial in range(campaign.trials):
            seed = campaign.base_seed + trial
            if trial == 0 or not fly_once:
                frames.clear()
                result = run(campaign.scenario.spec, campaign.scenario.make_world(seed),
                             campaign.scenario.cfg, frame_sink=keep if stride else None)
            records.append(TrialRecord(trial, seed, result))
            for step, frame in frames[::stride or 1]:
                make_dirs(out_path / f"trial_{trial}")
                write_ppm(frame, out_path / f"trial_{trial}" / frame_filename(step))

        stats = _aggregate([r.result.elapsed_s for r in records if r.result.success], records)
        if out_path is not None:
            make_dirs(out_path)
            for rec in records:
                write_trajectory_csv(rec.result.rows, out_path / f"trajectory_{rec.trial}.csv")
            write_results_csv(records, out_path / "results.csv")
            (out_path / "summary.txt").write_text(format_summary(stats, campaign.trials))
    except BaseException:
        for path in created:
            shutil.rmtree(path, ignore_errors=True)
        raise
    return stats


def write_results_csv(records: Sequence[TrialRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for rec in records:
            r = rec.result
            writer.writerow([rec.trial, rec.seed, r.outcome, r.elapsed_s,
                             r.ticks, r.final_pose.x, r.final_pose.y])


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError
    return value


def _finite_or_empty(text: str) -> Optional[float]:
    return _finite(text) if text else None


#: What a typed CSV cell must hold, by its parser.
_EXPECTED = {int: "an integer", _finite: "a finite number",
             _finite_or_empty: "empty or a finite number"}

#: The parser of each typed column of a file; the other columns are text.
_RESULTS_PARSERS = {"trial": int, "seed": int, "ticks": int, "elapsed_s": _finite,
                    "final_x": _finite, "final_y": _finite}
_TRAJECTORY_PARSERS = {
    "step": int, "err_px": _finite_or_empty,
    **dict.fromkeys(("time_s", "drone_x", "drone_y", "drone_z", "vel_fwd", "vel_right"), _finite)}


def _read_csv(path: str | Path, columns: Sequence[str],
              parsers: dict[str, Callable[[str], object]], what: str) -> list[dict]:
    """Rows of a CSV file as dicts keyed by its header, each cell of a
    column in ``parsers`` (all of them among ``columns``) parsed once;
    raises MalformedLogError when the header names a column twice or lacks
    any of ``columns``, a row has more or fewer fields than the header
    (blank lines are skipped), a typed cell does not parse, holds an
    underscore or a non-ASCII character or is padded with whitespace, the
    file is not UTF-8, or the csv module rejects a line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            repeated = [name for name, n in Counter(header).items() if n > 1]
            if repeated:
                raise MalformedLogError(
                    f"{what} file header names column {reprlib.repr(repeated[0])} twice")
            missing = set(columns) - set(header)
            if missing:
                raise MalformedLogError(f"{what} file missing columns: {sorted(missing)}")
            rows = []
            for fields in reader:
                if len(fields) != len(header):
                    if not fields:
                        continue
                    raise MalformedLogError(
                        f"{what} file line {reader.line_num}: {len(fields)} fields, "
                        f"the header has {len(header)}")
                row = dict(zip(header, fields))
                for name, parse in parsers.items():
                    cell = row[name]
                    try:
                        # int() and float() also take digit separators, padding, non-ASCII digits
                        if "_" in cell or cell != cell.strip() or not cell.isascii():
                            raise ValueError
                        row[name] = parse(cell)
                    except ValueError:
                        raise MalformedLogError(
                            f"{what} file line {reader.line_num}: {name} {reprlib.repr(cell)} "
                            f"is not {_EXPECTED[parse]}") from None
                rows.append(row)
            return rows
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            raise MalformedLogError(f"{what} file line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # its position counts from a read chunk, not the file
            raise MalformedLogError(f"{what} file is not UTF-8: {exc.reason}") from None


def read_results_csv(path: str | Path) -> list[dict]:
    """Rows of a results.csv as dicts: trial, seed and ticks as ints, the
    other numbers as finite floats.  Raises MalformedLogError when the
    header names a column twice or lacks a required one, a row's field
    count differs from it or a number does not parse."""
    return _read_csv(path, RESULTS_COLUMNS, _RESULTS_PARSERS, "results")


def _success_times(rows: Sequence[dict]) -> list[float]:
    return [r["elapsed_s"] for r in rows if r["outcome"] == "success"]


def summarize_results(rows: Sequence[dict]) -> CampaignStats:
    """Recompute campaign aggregates from results.csv rows."""
    return _aggregate(_success_times(rows))


#: Successful trials needed before elapsed_p95_s is reported: 5 % of them,
#: at least 10, then lie beyond it.
P95_MIN_SUCCESSES = 200

#: Longest outcome label printed whole, more than twice the longest that
#: run writes ("failed:reversal_unavailable").
MAX_OUTCOME_LABEL = 64


def format_outcomes(rows: Sequence[dict]) -> str:
    """The lines `visnav stats` prints after the summary: one
    ``outcome <label>: <count>`` line per distinct outcome, in label order,
    then the median elapsed time of the successful trials (nan when there
    are none) and, from P95_MIN_SUCCESSES of them on, their 95th
    percentile (linear interpolation).  A label over MAX_OUTCOME_LABEL
    characters prints cut to that many, then ``... (<n> characters)``."""
    counts = Counter(r["outcome"] for r in rows)
    lines = []
    for label in sorted(counts):
        shown = label if len(label) <= MAX_OUTCOME_LABEL else \
            f"{label[:MAX_OUTCOME_LABEL]}... ({len(label)} characters)"
        lines.append(f"outcome {shown}: {counts[label]}")
    times = _success_times(rows)
    p50 = float(np.percentile(times, 50)) if times else float("nan")
    lines.append(f"elapsed_p50_s: {p50}")
    if len(times) >= P95_MIN_SUCCESSES:
        lines.append(f"elapsed_p95_s: {float(np.percentile(times, 95))}")
    return "".join(line + "\n" for line in lines)


def load_trajectory(path: str | Path) -> list[TrajectoryRow]:
    """Read a trajectory CSV back into rows.

    Raises MalformedLogError when the header names a column twice or is
    missing any canonical column, a row's field count differs from the
    header's, or a number does not parse (step must be an integer, the
    other numbers finite, err_px empty or finite).
    """
    return [TrajectoryRow(*(raw[c] for c in TRAJECTORY_COLUMNS))
            for raw in _read_csv(path, TRAJECTORY_COLUMNS, _TRAJECTORY_PARSERS, "trajectory")]


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
    hover = Phase.HOVERING_ON_TARGET.value
    hover_idx = [i for i, r in enumerate(rows) if r.fsm_state.split(":", 1)[0] == hover]
    if not hover_idx:
        raise MalformedLogError(f"log has no {hover} phase; "
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
