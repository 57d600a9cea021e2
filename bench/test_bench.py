"""Self-tests of the benchmark: every check rejects a deliberately wrong
output, and the tracer leaves visnav exactly as it found it.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import visnav as vn  # noqa: E402

import checks  # noqa: E402
from run import metric_units  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _replace_result(rec, **changes):
    return dataclasses.replace(rec, result=dataclasses.replace(rec.result, **changes))


@pytest.fixture(scope="module")
def landed():
    """A zero-noise return campaign of two trials: both land on the pad."""
    campaign = vn.Campaign(vn.default_scenario("return", noise=vn.NoiseModel.zero()),
                           trials=2, base_seed=5)
    return campaign, vn.run_campaign(campaign)


@pytest.fixture(scope="module")
def drifted():
    """One return trial with drift, so its return leg has a real spread."""
    scenario = vn.default_scenario(
        "return", noise=vn.NoiseModel(drift_std=0.02, takeoff_jitter_std=0.0))
    return scenario, vn.run_campaign(vn.Campaign(scenario, trials=1, base_seed=3))


# --- closed-loop checks ------------------------------------------------------

def test_mission_check_accepts_a_real_trial(landed):
    campaign, stats = landed
    for rec in stats.records:
        assert checks.mission_problems(rec, campaign.scenario, campaign.base_seed) == []


def _shift_final(rec, dx):
    pose = rec.result.final_pose
    return _replace_result(rec, final_pose=dataclasses.replace(pose, x=pose.x + dx))


def _shift_landing(rec, dx):
    """Final pose and last row moved together, so only the pad check can see it."""
    rows = list(rec.result.rows)
    rows[-1] = dataclasses.replace(rows[-1], drone_x=rows[-1].drone_x + dx)
    rec = _shift_final(rec, dx)
    return _replace_result(rec, rows=tuple(rows))


def _drop_row(rec, i):
    rows = list(rec.result.rows)
    del rows[i]
    return _replace_result(rec, rows=tuple(rows))


def _relabel(rec, i, label):
    rows = list(rec.result.rows)
    rows[i] = dataclasses.replace(rows[i], fsm_state=label)
    return _replace_result(rec, rows=tuple(rows))


@pytest.mark.parametrize("mutate", [
    lambda rec: _shift_final(rec, 1e-9),
    lambda rec: _shift_landing(rec, 0.07),
    lambda rec: _drop_row(rec, 100),
    lambda rec: _drop_row(rec, -1),
    lambda rec: _replace_result(rec, elapsed_s=rec.result.elapsed_s + 0.1),
    lambda rec: _replace_result(rec, ticks=rec.result.ticks + 1),
    lambda rec: _replace_result(rec, outcome="failed:timeout", success=False),
    lambda rec: _relabel(rec, 5, "landing"),
    lambda rec: dataclasses.replace(rec, seed=rec.seed + 1),
], ids=["final-pose", "off-pad", "dropped-row", "dropped-last-row", "elapsed",
        "ticks", "outcome", "illegal-transition", "seed"])
def test_mission_check_rejects(landed, mutate):
    campaign, stats = landed
    bad = mutate(stats.records[0])
    assert checks.mission_problems(bad, campaign.scenario, campaign.base_seed)


def test_stats_check_rejects_perturbed_mean_and_std(landed):
    campaign, stats = landed
    assert checks.campaign_stats_problems(stats, campaign.trials) == []
    assert checks.campaign_stats_problems(
        dataclasses.replace(stats, mean=stats.mean + 1e-6), campaign.trials)
    assert checks.campaign_stats_problems(
        dataclasses.replace(stats, std_dev=0.1), campaign.trials)
    assert checks.campaign_stats_problems(
        dataclasses.replace(stats, success_count=1), campaign.trials)
    assert checks.campaign_stats_problems(stats, campaign.trials + 1)


def test_spread_check_rejects_a_perturbed_spread(drifted):
    _, stats = drifted
    rows = stats.records[0].result.rows
    spread = vn.path_spread(rows)
    assert spread > 1e-3
    assert checks.spread_problems(rows, spread) == []
    assert checks.spread_problems(rows, spread * (1 + 1e-6))


def test_sweep_check(landed, drifted):
    (campaign, quiet), (scenario, noisy) = landed, drifted
    zero = (campaign.scenario, quiet.records, [0.0, 0.0])
    spread = vn.path_spread(noisy.records[0].result.rows)
    levels = (0.0, 0.02)
    assert checks.sweep_problems(levels, [zero, (scenario, noisy.records, [spread])]) == []
    # the mean spread falls as drift rises
    assert checks.sweep_problems(levels, [(campaign.scenario, quiet.records, [0.0, 0.1]),
                                          (scenario, noisy.records, [0.05])])
    # a zero-drift trial that does not retrace exactly
    assert checks.sweep_problems(levels, [(campaign.scenario, quiet.records, [0.0, 2e-6]),
                                          (scenario, noisy.records, [spread])])
    # a zero-drift trial that lands off its start
    moved = (campaign.scenario, (_shift_final(quiet.records[0], 0.07), quiet.records[1]),
             [0.0, 0.0])
    assert checks.sweep_problems(levels, [moved, (scenario, noisy.records, [spread])])


# --- open-loop checks --------------------------------------------------------

@pytest.fixture(scope="module")
def flight():
    cfg = vn.SimConfig(noise=vn.NoiseModel.zero())
    segments = [((400.0, 80.0), 7), ((100.0, 500.0), 12), ((330.0, 170.0), 3)]
    traj = vn.ImaginedTrajectory(tuple(
        vn.ImaginedSegment(vn.PixelPoint(tx, ty), vn.Duration(n * cfg.dt))
        for (tx, ty), n in segments))
    start = (1.5, -2.0)
    world = vn.make_world(0, drone=vn.Pose(*start, cfg.altitude, 0.0))
    log_out = vn.fly_trajectory(traj, world, cfg)
    apex = (world.drone.x, world.drone.y)
    log_back = vn.fly_trajectory(vn.reverse(log_out, cfg.frame), world, cfg)
    twice = vn.reverse(log_back, cfg.frame).targets()
    return cfg, segments, start, apex, (world.drone.x, world.drone.y), world.steps, twice


def test_pattern_check_accepts_a_real_flight(flight):
    cfg, segments, start, apex, end, steps, twice = flight
    assert checks.pattern_problems(segments, start, apex, end, steps, twice, cfg) == []


def test_pattern_check_rejects(flight):
    cfg, segments, start, apex, end, steps, twice = flight
    args = dict(segments=segments, start=start, outbound_end=apex, final=end,
                steps=steps, twice_targets=twice, cfg=cfg)
    for change in ({"final": (end[0] + 2e-6, end[1])},
                   {"outbound_end": (apex[0], apex[1] + 1e-8)},
                   {"steps": steps - 1},
                   {"twice_targets": twice[::-1]},
                   {"twice_targets": twice[:-1]}):
        assert checks.pattern_problems(**{**args, **change}), change


def test_displacement_matches_the_controller(flight):
    cfg = flight[0]
    for target in ((320.0, 80.0), (330.0, 170.0), (5000.0, -3000.0)):
        err = vn.pixel_error(vn.PixelPoint(*target), cfg.frame.center)
        cmd = vn.compute_command(err, cfg.gains)
        dx, dy = checks.displacement([(target, 10)], cfg)
        assert dx == pytest.approx(cmd.vel_forward * 10 * cfg.dt, abs=1e-15)
        assert dy == pytest.approx(-cmd.vel_right * 10 * cfg.dt, abs=1e-15)


# --- read-back checks --------------------------------------------------------

def test_results_readback_check(landed, tmp_path):
    campaign, stats = landed
    vn.harness.write_results_csv(stats.records, tmp_path / "results.csv")
    rows = vn.harness.read_results_csv(tmp_path / "results.csv")
    assert checks.results_readback_problems(rows, stats.records) == []
    assert checks.results_readback_problems(rows[:-1], stats.records)
    changed = [dict(r) for r in rows]
    changed[1]["elapsed_s"] = repr(float(changed[1]["elapsed_s"]) + 0.1)
    assert checks.results_readback_problems(changed, stats.records)
    changed = [dict(r) for r in rows]
    changed[0]["final_x"] = "np.float64(0.0)"
    with pytest.raises(ValueError):
        checks.results_readback_problems(changed, stats.records)


def test_trajectory_readback_check(drifted):
    _, stats = drifted
    rows = stats.records[0].result.rows
    spread = vn.path_spread(rows)
    assert checks.trajectory_readback_problems(rows, rows) == []
    assert checks.trajectory_readback_problems(rows[:-1], rows)
    shifted = (dataclasses.replace(rows[0], drone_y=rows[0].drone_y + 1e-12),) + rows[1:]
    assert checks.trajectory_readback_problems(shifted, rows)
    assert checks.spread_readback_problems(spread, spread) == []
    assert checks.spread_readback_problems(None, None) == []
    assert checks.spread_readback_problems(spread + 1e-9, spread)
    assert checks.spread_readback_problems(None, spread)


def test_tally_counts_failed_operations_apart_from_wrong_ones():
    tally = checks.Tally()
    tally.done("a", [])
    tally.failed_op("b", "reader raised")
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.done("c", ["wrong"])
    assert not tally.correct


# --- tracer ------------------------------------------------------------------

def _visnav_attributes():
    """Every attribute of every loaded visnav module and of MotionLog, by identity."""
    owners = {name: mod for name, mod in sys.modules.items()
              if name == "visnav" or name.startswith("visnav.")}
    owners["MotionLog"] = vn.imagination.MotionLog
    return {(owner, attr): id(value)
            for owner, obj in owners.items() for attr, value in vars(obj).items()}


def test_tracer_restores_every_attribute():
    before = _visnav_attributes()
    detect, motion_append = vn.perception.detect, vn.imagination.MotionLog.append
    tracer = Tracer(vn)
    with tracer.recording(timed=True):
        assert vn.mission.detect is not detect
        assert vn.mission.detect is vn.perception.detect is vn.detect
        assert vn.imagination.MotionLog.append is not motion_append
        assert _visnav_attributes() != before
    assert _visnav_attributes() == before
    with pytest.raises(ZeroDivisionError):
        with tracer.recording(timed=True):
            1 / 0
    assert _visnav_attributes() == before


def test_tracer_spans_nest_and_reduce():
    scenario = vn.default_scenario("track", noise=vn.NoiseModel.zero())
    world = scenario.make_world(0)
    tracer = Tracer(vn)
    with tracer.recording(timed=True):
        result = vn.run(scenario.spec, world, scenario.cfg)
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    parent_name = [names[p] if p >= 0 else None for p in a["parent"]]
    assert names[0] == "mission.run" and a["parent"][0] == -1
    assert {n for n, p in zip(names, parent_name) if p == "mission.run"} >= \
        {"mission.tick", "sim.step"}
    assert all(p == "sim.capture" for n, p in zip(names, parent_name)
               if n == "perception.render")
    assert set(a["mission"]) == {0}
    assert names.count("mission.tick") == result.ticks
    assert (a["end"] >= a["start"]).all()

    wall = float(a["end"][0] - a["start"][0])
    m = tracer.layer_metrics(rounds=1, timed_wall_s=wall)
    assert set(m) == set(metric_units("per_layer"))
    assert m["mission.tick.calls"] == result.ticks
    assert m["perception.detect.calls"] == m["sim.capture.calls"] > 0
    assert 0 < m["perception.detect.hit_ratio"] <= 1
    # self times partition the run span exactly
    assert sum(m[f"{s}.self_share"] for s in
               ("geometry", "perception", "control", "imagination", "sim", "mission",
                "harness")) == pytest.approx(1.0, rel=1e-9)


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    a = WORKLOADS["pattern_reversal"](7, tmp_path)
    b = WORKLOADS["pattern_reversal"](7, tmp_path)
    c = WORKLOADS["pattern_reversal"](8, tmp_path)
    assert [f[0] for f in a.flights] == [f[0] for f in b.flights]
    assert [f[0] for f in a.flights] != [f[0] for f in c.flights]
    d = WORKLOADS["cluttered_search"](7, tmp_path)
    e = WORKLOADS["cluttered_search"](7, tmp_path)
    assert (d.scenario, d.base_seed) == (e.scenario, e.base_seed)
    assert all(m.color not in (vn.Color.PINK, vn.Color.BLUE)
               for m in d.scenario.markers[1:])


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pattern_reversal",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
