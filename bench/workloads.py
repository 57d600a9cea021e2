"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``__init__`` (that is the
set-up the benchmark times), then runs rounds.  A round is one pass over
the same inputs:

* ``steps()`` are the timed calls; each calls only visnav, and ``out`` is
  the list of what they return.  The benchmark measures the host's speed
  between steps (see calibrate.py), so a step is kept to about a second;
* ``readback(out)`` re-reads what the round wrote and compares it with
  ``out`` file by file, untimed;
* ``check(out, back, tally)`` verifies the outputs, untimed and untraced.

Every visnav function is looked up through its module at call time
(``vn.run_campaign``, ``vn.harness.read_results_csv``), so the tracer's
wrappers see every call the workload makes.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path

import visnav as vn

from checks import (campaign_stats_problems, mission_problems, pattern_problems,
                    results_readback_problems, spread_problems, spread_readback_problems,
                    stats_problems, sweep_problems, trajectory_readback_problems)

OUT_AND_BACK = ("return", "coordination")


def _campaign_counts(stats_list) -> tuple[int, int]:
    records = [rec for stats in stats_list for rec in stats.records]
    return len(records), sum(rec.result.ticks for rec in records)


def _outcomes(stats_list) -> dict[str, int]:
    return dict(sorted(Counter(rec.result.outcome for stats in stats_list
                               for rec in stats.records).items()))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        """``workdir`` is where a workload may write files; only campaign_io does."""
        self.rng = random.Random(f"{self.name}:{seed}")
        self.mark_mission = lambda: None   # the tracer's hook for open-loop flights

    def readback(self, out):
        return None


class DriftSweep(Workload):
    """Acceptance criterion 6: the return task at rising drift, jitter held at
    zero, every level flown from the same base seed so that only the drift
    scale differs between levels."""

    name = "drift_sweep"
    LEVELS = (0.0, 0.005, 0.01, 0.02)
    TRIALS = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        base_seed = self.rng.randrange(2**31)
        self.campaigns = [
            vn.Campaign(vn.default_scenario(
                "return", noise=vn.NoiseModel(drift_std=d, takeoff_jitter_std=0.0)),
                trials=self.TRIALS, base_seed=base_seed)
            for d in self.LEVELS]

    def steps(self):
        return [lambda c=c: self._level(c) for c in self.campaigns]

    @staticmethod
    def _level(campaign):
        stats = vn.run_campaign(campaign)
        return stats, [vn.path_spread(rec.result.rows)
                       for rec in stats.records if rec.result.success]

    def counts(self, out):
        return _campaign_counts([stats for stats, _ in out])

    def stats(self, out):
        return {f"drift={d}": {"ticks": [rec.result.ticks for rec in stats.records],
                               "outcomes": _outcomes([stats])}
                for d, (stats, _) in zip(self.LEVELS, out)}

    def check(self, out, back, tally):
        for d, campaign, (stats, spreads) in zip(self.LEVELS, self.campaigns, out):
            landed = [rec for rec in stats.records if rec.result.success]
            for rec in stats.records:
                problems = mission_problems(rec, campaign.scenario, campaign.base_seed)
                if rec.result.success:
                    problems += spread_problems(rec.result.rows, spreads[landed.index(rec)])
                tally.done(f"drift {d} trial {rec.trial}", problems)
            tally.done(f"drift {d} stats", campaign_stats_problems(stats, campaign.trials))
        tally.done("sweep", sweep_problems(
            self.LEVELS,
            [(c.scenario, stats.records, spreads)
             for c, (stats, spreads) in zip(self.campaigns, out)]))


class CampaignIO(Workload):
    """The README's run -> stats -> spread workflow on all four built-in
    tasks at default noise, writing and reading the campaign CSVs."""

    name = "campaign_io"
    TRIALS = (("track", 8), ("forward", 4), ("return", 4), ("coordination", 4))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.campaigns = [
            (task, vn.Campaign(vn.default_scenario(task), trials=n,
                               base_seed=self.rng.randrange(2**31)), workdir / task)
            for task, n in self.TRIALS]

    def steps(self):
        return [lambda c=c, d=d: self._task(c, d) for _, c, d in self.campaigns]

    @staticmethod
    def _task(campaign, out_dir):
        stats = vn.run_campaign(campaign, out_dir=out_dir)
        rows = vn.harness.read_results_csv(out_dir / "results.csv")
        return stats, rows, vn.harness.summarize_results(rows)

    def readback(self, out):
        """Each trajectory file through load_trajectory and, for landed
        out-and-back trials, path_spread.  A file is compared with the
        in-memory rows as soon as it is read, and its rows are dropped
        before the next, so the read-back adds no resident memory.  Per
        file: ``(failure, row problems, spread of the read-back)``, where
        ``failure`` is None or why the reader raised."""
        back = []
        for (task, _, out_dir), (stats, _, _) in zip(self.campaigns, out):
            files = []
            for rec in stats.records:
                try:
                    loaded = vn.harness.load_trajectory(out_dir / f"trajectory_{rec.trial}.csv")
                except ValueError as exc:
                    files.append((f"load_trajectory: {str(exc).split(':')[0]}", None, None))
                    continue
                spread = vn.path_spread(loaded) \
                    if task in OUT_AND_BACK and rec.result.success else None
                files.append((None, trajectory_readback_problems(loaded, rec.result.rows),
                              spread))
                del loaded
            back.append(files)
        return back

    def counts(self, out):
        return _campaign_counts([stats for stats, _, _ in out])

    def stats(self, out):
        return {task: {"ticks": [rec.result.ticks for rec in stats.records],
                       "outcomes": _outcomes([stats])}
                for (task, _, _), (stats, _, _) in zip(self.campaigns, out)}

    def check(self, out, back, tally):
        for (task, campaign, out_dir), (stats, rows, summary), files in \
                zip(self.campaigns, out, back):
            records = stats.records
            for rec in records:
                tally.done(f"{task} trial {rec.trial}",
                           mission_problems(rec, campaign.scenario, campaign.base_seed))
            times = [rec.result.elapsed_s for rec in records if rec.result.success]
            expected = {"results.csv", "summary.txt",
                        *(f"trajectory_{rec.trial}.csv" for rec in records)}
            written = {p.name for p in out_dir.iterdir()}
            problems = campaign_stats_problems(stats, campaign.trials)
            problems += stats_problems(summary.mean, summary.std_dev,
                                       summary.success_count, times)
            problems += _summary_file_problems(out_dir / "summary.txt", campaign.trials, times)
            if written != expected:
                problems.append(f"files written {sorted(written ^ expected)} unexpected")
            tally.done(f"{task} stats", problems)
            try:
                problems = results_readback_problems(rows, records)
            except ValueError as exc:
                tally.failed_op(f"{task} results.csv",
                                f"results.csv: {str(exc).split(':')[0]}")
            else:
                tally.done(f"{task} results.csv", problems)
            for rec, (failure, row_problems, loaded_spread) in zip(records, files):
                what = f"{task} trajectory_{rec.trial}.csv"
                if failure is not None:
                    tally.failed_op(what, failure)
                    continue
                spread = vn.path_spread(rec.result.rows) \
                    if task in OUT_AND_BACK and rec.result.success else None
                tally.done(what, row_problems + spread_readback_problems(loaded_spread, spread))


def _summary_file_problems(path: Path, trials: int, times: list[float]) -> list[str]:
    fields = dict(line.split(": ", 1) for line in path.read_text().splitlines())
    problems = []
    if int(fields["trials"]) != trials:
        problems.append(f"summary.txt trials {fields['trials']} != {trials}")
    problems += [f"summary.txt {p}" for p in stats_problems(
        float(fields["mean_s"]), float(fields["std_dev_s"]),
        int(fields["success_count"]), times)]
    return problems


class PatternReversal(Workload):
    """Acceptance criterion 10 at scale: random Duration-terminated imagined
    trajectories flown open loop, reversed and flown back at zero noise."""

    name = "pattern_reversal"
    FLIGHTS = 2000
    FLIGHTS_PER_STEP = 250

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.cfg = vn.SimConfig(noise=vn.NoiseModel.zero())
        self.flights = []
        for _ in range(self.FLIGHTS):
            # integer pixel targets and whole-step durations keep the
            # exactness claims well defined
            segments = [((float(rng.randint(-400, 1099)), float(rng.randint(-400, 799))),
                         rng.randint(1, 29)) for _ in range(rng.randint(1, 5))]
            traj = vn.ImaginedTrajectory(tuple(
                vn.ImaginedSegment(vn.PixelPoint(tx, ty), vn.Duration(n * self.cfg.dt))
                for (tx, ty), n in segments))
            start = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
            self.flights.append((segments, traj, start))

    def steps(self):
        n = self.FLIGHTS_PER_STEP
        return [lambda k=k: self._fly(self.flights[k:k + n])
                for k in range(0, len(self.flights), n)]

    def _fly(self, flights):
        cfg = self.cfg
        out = []
        for _, traj, (x0, y0) in flights:
            self.mark_mission()
            world = vn.make_world(0, drone=vn.Pose(x0, y0, cfg.altitude, 0.0))
            log_out = vn.fly_trajectory(traj, world, cfg)
            apex = (world.drone.x, world.drone.y)
            log_back = vn.fly_trajectory(vn.reverse(log_out, cfg.frame), world, cfg)
            out.append((apex, (world.drone.x, world.drone.y), world.steps, log_back))
        return out

    def counts(self, out):
        out = [f for chunk in out for f in chunk]
        return len(out), sum(steps for _, _, steps, _ in out)

    def stats(self, out):
        out = [f for chunk in out for f in chunk]
        residuals = [math.hypot(end[0] - start[0], end[1] - start[1])
                     for (_, _, start), (_, end, _, _) in zip(self.flights, out)]
        return {"flights": len(out), "steps": sum(s for _, _, s, _ in out),
                "segments": sum(len(seg) for seg, _, _ in self.flights),
                "max_residual_m": max(residuals)}

    def check(self, out, back, tally):
        out = [f for chunk in out for f in chunk]
        for k, ((segments, _, start), (apex, end, steps, log_back)) in \
                enumerate(zip(self.flights, out)):
            twice = vn.reverse(log_back, self.cfg.frame).targets()
            tally.done(f"flight {k}",
                       pattern_problems(segments, start, apex, end, steps, twice, self.cfg))


class ClutteredSearch(Workload):
    """A return mission, built through build_scenario, over overlapping pairs
    of distractor discs along the outbound path, so that almost every frame
    takes render's nearest-marker tie-break path.  Each mission is a step of
    its own (``run`` on a fresh world), as a mission here is as long as a
    whole drift level elsewhere."""

    name = "cluttered_search"
    MISSIONS = 4
    DISTRACTOR_COLORS = ("red", "green", "yellow", "orange")
    TARGET = (2.0, 0.0)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        markers = [{"x": self.TARGET[0], "y": self.TARGET[1], "radius": 0.06, "color": "pink"}]
        for k in range(10):
            markers += self._pair(0.2 + 0.25 * k, 1.0 if k % 2 else -1.0)
        self.scenario = vn.mission.build_scenario({"task": "return", "markers": markers})
        self.base_seed = self.rng.randrange(2**31)

    def _pair(self, x: float, side: float) -> list[dict]:
        """Two overlapping discs of different distractor colours, centred
        0.3-0.45 m to one side of the path and at least 0.4 m from the
        search marker and the home pad, so neither is ever covered."""
        rng = self.rng
        while True:
            cx = x + rng.uniform(-0.03, 0.03)
            cy = side * rng.uniform(0.3, 0.45)
            if min(math.hypot(cx, cy), math.hypot(cx - self.TARGET[0], cy - self.TARGET[1])) >= 0.4:
                break
        r1, r2 = rng.uniform(0.075, 0.085), rng.uniform(0.075, 0.085)
        angle, gap = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 0.7) * (r1 + r2)
        c1, c2 = rng.sample(self.DISTRACTOR_COLORS, 2)
        return [{"x": cx, "y": cy, "radius": r1, "color": c1},
                {"x": cx + gap * math.cos(angle), "y": cy + gap * math.sin(angle),
                 "radius": r2, "color": c2}]

    def steps(self):
        return [lambda k=k: self._mission(k) for k in range(self.MISSIONS)]

    def _mission(self, k):
        sc, seed = self.scenario, self.base_seed + k
        return vn.TrialRecord(k, seed, vn.run(sc.spec, sc.make_world(seed), sc.cfg))

    def counts(self, out):
        return len(out), sum(rec.result.ticks for rec in out)

    def stats(self, out):
        return {"ticks": [rec.result.ticks for rec in out],
                "outcomes": dict(sorted(Counter(rec.result.outcome for rec in out).items()))}

    def check(self, out, back, tally):
        for rec in out:
            tally.done(f"mission {rec.trial}",
                       mission_problems(rec, self.scenario, self.base_seed))


WORKLOADS = {w.name: w for w in (DriftSweep, CampaignIO, PatternReversal, ClutteredSearch)}
