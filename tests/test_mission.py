"""Mission FSM behavior for the three mission kinds and the four task names."""

import dataclasses
import json
import math
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visnav import (ZERO_COMMAND, AbsorbingStateError, Campaign, Color, ControllerGains,
                    FrameSpec, MissionKind, MissionSpec, NoiseModel, Phase, Scenario,
                    ScenarioError, SimConfig, audit_transitions, default_scenario,
                    forward_search_trajectory, initial_state, load_campaign, run,
                    square_trajectory, tick, write_trajectory_csv)
from visnav.harness import load_trajectory
from visnav.scenario import MAX_MISSION_TICKS, TASKS, build_scenario

ZERO_NOISE = NoiseModel.zero()


def zero_noise_scenario(task):
    return default_scenario(task, noise=ZERO_NOISE)


def phases_of(result):
    out = []
    for row in result.rows:
        p = row.fsm_state.split(":", 1)[0]
        if not out or out[-1] != p:
            out.append(p)
    return out


def test_track_visible_servos_from_first_tick():
    sc = zero_noise_scenario("track")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success
    assert result.rows[0].fsm_state == "servoing:pink"
    assert result.rows[-1].fsm_state == "hovering_on_target"
    assert phases_of(result) == ["servoing", "hovering_on_target"]


def test_track_visible_servo_error_strictly_decreases():
    sc = zero_noise_scenario("track")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    errs = [r.err_px for r in result.rows if r.fsm_state.startswith("servoing")]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_forward_search_full_chain_and_final_position():
    sc = zero_noise_scenario("forward")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success
    assert phases_of(result) == ["taking_off", "searching", "servoing",
                                 "hovering_on_target"]
    # hover threshold footprint: 50 px * altitude / focal = 0.15625 m
    marker_x, marker_y = sc.markers[0].position
    dist = math.hypot(result.final_pose.x - marker_x, result.final_pose.y - marker_y)
    assert dist <= 50.0 * sc.cfg.altitude / sc.cfg.frame.focal_length


def test_search_return_land_comes_home():
    sc = zero_noise_scenario("return")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success
    assert phases_of(result) == ["taking_off", "searching", "servoing",
                                 "hovering_on_target", "reversing", "servoing_home",
                                 "landing", "landed"]
    # landing threshold footprint: 20 px * altitude / focal = 0.0625 m
    dist = math.hypot(result.final_pose.x, result.final_pose.y)
    assert dist <= 20.0 * sc.cfg.altitude / sc.cfg.frame.focal_length
    assert result.final_pose.z == sc.cfg.carrier_height


def test_coordination_lands_back_on_carrier():
    sc = zero_noise_scenario("coordination")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success
    assert result.rows[-1].fsm_state == "landed"
    dist = math.hypot(result.final_pose.x, result.final_pose.y)
    assert dist <= 0.0625


@pytest.mark.parametrize("task", ["track", "forward", "return", "coordination"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fsm_audit_all_kinds(task, seed):
    sc = default_scenario(task)  # default noise
    result = run(sc.spec, sc.make_world(seed), sc.cfg)
    assert audit_transitions([r.fsm_state for r in result.rows]) == []


def test_fsm_audit_reports_an_unknown_state_label():
    assert audit_transitions(["taking_off", "flying", "searching:0"]) == \
        ["unknown state label 'flying'"]


def test_fsm_audit_reports_an_illegal_transition():
    # self-loops and a failure from any phase are legal
    assert audit_transitions(["taking_off", "taking_off", "landed", "landed",
                              "failed:timeout"]) == \
        ["illegal transition taking_off -> landed at row 2"]


def test_tick_after_landed_raises():
    sc = zero_noise_scenario("return")
    world = sc.make_world(0)
    state = initial_state(sc.spec)
    for _ in range(5000):
        cmd, *_ = tick(state, sc.spec, world, sc.cfg)
        if state.done:
            break
        from visnav import step
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    assert state.phase is Phase.LANDED
    with pytest.raises(AbsorbingStateError):
        tick(state, sc.spec, world, sc.cfg)


def test_tick_after_failed_raises():
    spec = MissionSpec(MissionKind.FORWARD_SEARCH_HOVER,
                       trajectory=forward_search_trajectory(SimConfig().frame, Color.PINK),
                       timeout=0.3)
    sc = Scenario(spec, SimConfig(noise=ZERO_NOISE))
    world = sc.make_world(0)
    state = initial_state(spec)
    for _ in range(10):
        tick(state, spec, world, sc.cfg)
        if state.done:
            break
    assert state.phase is Phase.FAILED
    assert state.label == "failed:timeout"
    with pytest.raises(AbsorbingStateError):
        tick(state, spec, world, sc.cfg)


@pytest.mark.parametrize("task", ["track", "forward"])
def test_tick_after_a_finished_hover_raises(task):
    # a track or forward mission succeeds on the last tick of its hover
    from visnav import step
    sc = default_scenario(task)
    world = sc.make_world(1)
    state = initial_state(sc.spec)
    while not state.done:
        cmd, *_ = tick(state, sc.spec, world, sc.cfg)
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    assert state.done and state.phase is Phase.HOVERING_ON_TARGET
    ticks = state.ticks
    with pytest.raises(AbsorbingStateError, match="hovering_on_target"):
        tick(state, sc.spec, world, sc.cfg)
    assert state.ticks == ticks


@pytest.mark.parametrize("task", ["track", "forward", "return", "coordination"])
def test_tick_returns_what_run_records(task):
    # run is tick, one row from what tick returns, then step: nothing else.
    # The blind ticks (liftoff, the climb, the top of the climb, the start
    # of the replay, touchdown) capture no frame; every other tick does.
    from visnav import TrajectoryRow, step
    sc = default_scenario(task)
    world = sc.make_world(4)
    state = initial_state(sc.spec)
    rows, frames, blind = [], [], []
    while not state.done:
        before = state.phase
        cmd, err, detected, frame = tick(state, sc.spec, world, sc.cfg)
        d = world.drone
        rows.append(TrajectoryRow(world.steps, world.time, d.x, d.y, d.z,
                                  cmd.vel_forward, cmd.vel_right, state.label,
                                  "" if detected is None else detected.name.lower(), err))
        frames.append(frame)
        blind.append(before is Phase.TAKING_OFF or (before, state.phase) in {
            (Phase.HOVERING_ON_TARGET, Phase.REVERSING), (Phase.LANDING, Phase.LANDED)})
        if not state.done:
            step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))

    sunk = []
    result = run(sc.spec, sc.make_world(4), sc.cfg,
                 frame_sink=lambda i, frame: sunk.append((i, frame.spots)))
    assert result.success
    assert tuple(rows) == result.rows
    assert [frame is None for frame in frames] == blind
    assert any(blind) == (task != "track")
    assert sunk == [(row.step, frame.spots) for row, frame in zip(rows, frames)
                    if frame is not None]


def test_timeout_outcome_is_reported():
    cfg = SimConfig(noise=ZERO_NOISE)
    spec = MissionSpec(MissionKind.FORWARD_SEARCH_HOVER, search_color=Color.RED,
                       trajectory=forward_search_trajectory(cfg.frame, Color.RED),
                       timeout=2.0)
    result = run(spec, Scenario(spec, cfg).make_world(0), cfg)
    assert not result.success
    assert result.outcome == "failed:timeout"
    assert result.rows[-1].fsm_state == "failed:timeout"


def test_exhausted_search_trajectory_fails():
    cfg = SimConfig(noise=ZERO_NOISE)
    spec = MissionSpec(MissionKind.FORWARD_SEARCH_HOVER, search_color=Color.RED,
                       trajectory=square_trajectory(cfg.frame, 1.0), timeout=60.0)
    result = run(spec, Scenario(spec, cfg).make_world(0), cfg)
    assert result.outcome == "failed:search_exhausted"


def test_heavy_drift_can_defeat_the_search():
    # drift far above the default makes the vehicle wander out of reach of
    # the marker within the timeout (seed picked by sweeping for a failure)
    sc = default_scenario("forward",
                          noise=NoiseModel(drift_std=0.5, takeoff_jitter_std=0.05))
    result = run(sc.spec, sc.make_world(2), sc.cfg)
    assert result.outcome == "failed:timeout"


def test_hover_fixed_point_zero_noise():
    sc = zero_noise_scenario("forward")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    hover_rows = [r for r in result.rows if r.fsm_state == "hovering_on_target"]
    assert len(hover_rows) >= 2
    assert all(r.vel_fwd == 0.0 and r.vel_right == 0.0 for r in hover_rows)
    assert len({(r.drone_x, r.drone_y) for r in hover_rows}) == 1


@pytest.mark.parametrize("task", ["track", "forward"])
@pytest.mark.parametrize("dt, hover_rows", [(0.1, 12), (0.3, 6), (0.07, 17)])
def test_hover_ends_on_the_first_tick_at_or_past_the_dwell(task, dt, hover_rows):
    # the tick that starts the hover, then one per dt until 1 s is hovered
    # (to 1e-9), and the last tick, which holds: 1 + ceil(1 / dt) + 1 rows
    sc = build_scenario({"task": task, "sim": {
        "dt": dt, "noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}}})
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success
    assert sum(r.fsm_state == "hovering_on_target" for r in result.rows) == hover_rows


def test_elapsed_is_tick_count_times_dt():
    sc = zero_noise_scenario("forward")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.elapsed_s == result.ticks * sc.cfg.dt


def test_lost_detection_reverts_to_search_segment():
    from visnav import step
    sc = zero_noise_scenario("forward")
    world = sc.make_world(0)
    state = initial_state(sc.spec)
    for _ in range(5000):
        cmd, *_ = tick(state, sc.spec, world, sc.cfg)
        if state.phase is Phase.SERVOING:
            break
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    assert state.phase is Phase.SERVOING
    world.markers = ()   # the marker disappears mid-servo
    transitions = []
    for _ in range(12):  # LOST_PATIENCE_TICKS dropouts, then reversion
        cmd, *_ = tick(state, sc.spec, world, sc.cfg)
        transitions.append(state.phase)
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    assert transitions[-1] is Phase.SEARCHING
    assert Phase.SERVOING in transitions[:-1]


def test_a_miss_in_servoing_home_restarts_the_landing_count():
    from visnav import Pose, step
    from visnav.mission import LAND_DWELL_TICKS
    sc = zero_noise_scenario("return")
    world = sc.make_world(0)
    state = initial_state(sc.spec)

    def fly():
        cmd, *_ = tick(state, sc.spec, world, sc.cfg)
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))

    for _ in range(5000):
        if state.phase is Phase.SERVOING_HOME and state.count >= 2:
            break
        fly()
    assert state.phase is Phase.SERVOING_HOME and state.count == 2
    home = world.carrier
    world.carrier = Pose(home.x + 10.0, home.y, home.z, home.yaw)   # the pad leaves the view
    fly()
    assert (state.phase, state.count) == (Phase.SERVOING_HOME, 0)
    world.carrier = home
    for centred in range(1, LAND_DWELL_TICKS):
        fly()
        assert (state.phase, state.count) == (Phase.SERVOING_HOME, centred)
    fly()
    assert state.phase is Phase.LANDING


def test_a_return_mission_builds_its_landing_gains_once():
    sc = zero_noise_scenario("return")
    world = sc.make_world(0)
    with mock.patch.object(ControllerGains, "__post_init__", autospec=True,
                           side_effect=ControllerGains.__post_init__) as built:
        result = run(sc.spec, world, sc.cfg)
    homing = [r for r in result.rows if r.fsm_state in ("servoing_home", "landing")
              and r.detected_color == "blue"]
    assert result.success and len(homing) > 1
    assert built.call_count <= 1


@pytest.mark.parametrize("dt, timeout", [(0.3, 1.8), (0.3, 0.9), (0.1, 0.3), (0.1, 0.7),
                                         (0.1, 1.1)])
def test_a_timeout_ends_the_mission_on_the_first_tick_at_or_past_it(dt, timeout):
    # ticks * dt rounds just below a timeout of 6 ticks at dt 0.3 (1.7999999999999998)
    sc = build_scenario({"task": "forward", "markers": [], "timeout_s": timeout,
                         "sim": {"dt": dt}})
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert len(result.rows) == round(timeout / dt) + 1
    assert result.outcome == "failed:timeout"
    assert result.rows[-1].time_s == pytest.approx(timeout)


def test_track_spec_takes_no_trajectory():
    frame = SimConfig().frame
    with pytest.raises(ScenarioError, match="track missions take no search trajectory"):
        MissionSpec(MissionKind.TRACK_VISIBLE, trajectory=square_trajectory(frame, 1.0))


def test_hover_with_an_empty_motion_log_fails_with_reversal_unavailable():
    # the marker is found while the search holds still (its target is the
    # frame center), so nothing moving was logged and there is no path back
    sc = build_scenario({
        "task": "return",
        "markers": [{"x": 0.1, "y": 0.0, "radius": 0.06, "color": "pink"}],
        "trajectory": {"type": "segments", "segments": [
            {"target": [320, 180], "until": {"type": "marker", "color": "pink"}}]},
        "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}}})
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert (result.outcome, result.ticks) == ("failed:reversal_unavailable", 34)
    assert result.rows[-1].fsm_state == result.outcome


@pytest.mark.parametrize("task", ["forward", "return"])
def test_one_detect_per_captured_frame(task, monkeypatch):
    import visnav.mission as mission
    calls = {"capture": 0, "detect": 0}

    def counted(name):
        fn = getattr(mission, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mission, "capture", counted("capture"))
    monkeypatch.setattr(mission, "detect", counted("detect"))
    sc = default_scenario(task)
    assert run(sc.spec, sc.make_world(3), sc.cfg).success
    assert calls["detect"] == calls["capture"] > 0


def test_segment_ending_on_another_color_expires_when_that_color_shows():
    # the search watches pink; its first segment ends on green, which the
    # segment rule must detect on its own
    from visnav import detect
    sc = build_scenario({
        "task": "forward",
        "markers": [{"x": 1.0, "y": 0.1, "radius": 0.06, "color": "green"},
                    {"x": 2.5, "y": 0.0, "radius": 0.06, "color": "pink"}],
        "trajectory": {"type": "segments", "segments": [
            {"target": [320, 80], "until": {"type": "marker", "color": "green"}},
            {"target": [330, 80], "until": {"type": "marker", "color": "pink"}}]},
        "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}}})
    frames = {}
    result = run(sc.spec, sc.make_world(0), sc.cfg,
                 frame_sink=lambda step, frame: frames.setdefault(step, frame))
    assert result.success
    labels = [r.fsm_state for r in result.rows if r.step in frames]
    green = [detect(frames[r.step], Color.GREEN, sc.cfg.min_blob_size) is not None
             for r in result.rows if r.step in frames]
    first = green.index(True)
    assert first > 0
    assert labels[:first] == ["searching:0"] * first
    assert labels[first] == "searching:1"


def duration_search(seconds, timeout_s=120.0):
    """A marker-less forward search of one Duration segment at zero noise."""
    return build_scenario({
        "task": "forward", "markers": [], "timeout_s": timeout_s,
        "trajectory": {"type": "segments", "segments": [
            {"target": [320, 80], "until": {"type": "duration", "seconds": seconds}}]},
        "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}}})


@pytest.mark.parametrize("seconds", [0.15, 0.25, 0.35, 0.1, 0.3, 1.0, 2.5, 4.0])
def test_closed_and_open_loop_fly_a_duration_for_the_same_ticks(seconds):
    from visnav import fly_trajectory, make_world
    sc = duration_search(seconds)
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.outcome == "failed:search_exhausted"
    closed = sum(r.fsm_state == "searching:0" and (r.vel_fwd, r.vel_right) != (0.0, 0.0)
                 for r in result.rows)
    world = make_world(0)
    log = fly_trajectory(sc.spec.trajectory, world, sc.cfg)
    assert closed == world.steps == round(log.entries[0].duration / sc.cfg.dt) >= 1


@pytest.mark.parametrize("until", [1e308, math.inf])
def test_a_duration_longer_than_any_mission_runs_to_the_timeout(until):
    from visnav import Duration, ImaginedSegment, ImaginedTrajectory, PixelPoint
    sc = duration_search(1.0, timeout_s=5.0)
    traj = ImaginedTrajectory((ImaginedSegment(PixelPoint(320, 80), Duration(until)),))
    spec = dataclasses.replace(sc.spec, trajectory=traj)
    result = run(spec, sc.make_world(0), sc.cfg)
    assert result.outcome == "failed:timeout"
    assert result.rows[-2].fsm_state == "searching:0"


def test_imagined_command_is_computed_once_per_segment_start(monkeypatch):
    import visnav.mission as mission
    calls = 0
    compute = mission.compute_command

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return compute(*args, **kwargs)

    monkeypatch.setattr(mission, "compute_command", counted)
    sc = default_scenario("return")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success
    labels = [r.fsm_state for r in result.rows]
    # the top of the climb, each advance, each resume and the replay start
    starts = sum(label != prev and label.split(":")[0] in ("searching", "reversing")
                 for prev, label in zip(["", *labels], labels))
    steered = sum(r.detected_color != "" for r in result.rows)
    assert starts > 2 and steered > 0
    assert calls == starts + steered


def test_an_open_loop_command_computes_one_error_norm(monkeypatch):
    # fly_trajectory logs no error norm, so it computes only the one that
    # compute_command's hover test reads
    import visnav.mission as mission
    from visnav import PixelError, fly_trajectory
    counts = {"norm": 0, "compute_command": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PixelError, "norm", counted("norm", PixelError.norm))
    monkeypatch.setattr(mission, "compute_command",
                        counted("compute_command", mission.compute_command))
    sc = default_scenario("return")
    fly_trajectory(square_trajectory(sc.cfg.frame, 1.0), sc.make_world(0), sc.cfg)
    assert counts["compute_command"] > 3 and counts["norm"] == counts["compute_command"]


def test_takeoff_reaches_exact_altitude():
    sc = zero_noise_scenario("forward")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    search_rows = [r for r in result.rows if r.fsm_state.startswith("searching")]
    assert all(r.drone_z == sc.cfg.altitude for r in search_rows)


@pytest.mark.parametrize("task, sim", [("return", {}),
                                       ("coordination", {"carrier_height": 0.3})])
def test_altitude_moves_only_in_climb_and_descent_phases(task, sim):
    sc = build_scenario({"task": task, "sim": {
        **sim, "noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}}})
    cfg = sc.cfg
    result = run(sc.spec, sc.make_world(0), cfg)
    assert result.success
    climbs = descents = 0
    for a, b in zip(result.rows, result.rows[1:]):
        phase, dz = a.fsm_state.split(":", 1)[0], b.drone_z - a.drone_z
        if phase == "taking_off" and b.fsm_state.startswith("searching"):
            # top of climb: snapped to the cruise altitude
            assert b.drone_z == cfg.altitude and 0.0 <= dz <= cfg.climb_rate * cfg.dt
        elif phase == "taking_off":
            assert b.drone_z == a.drone_z + cfg.climb_rate * cfg.dt
            climbs += 1
        elif phase == "landing" and b.fsm_state == "landed":
            # touchdown: snapped onto the pad
            assert b.drone_z == cfg.carrier_height
            assert 0.0 <= -dz <= cfg.descent_rate * cfg.dt + 1e-9
        elif phase == "landing":
            assert b.drone_z == a.drone_z - cfg.descent_rate * cfg.dt
            descents += 1
        else:
            assert dz == 0.0, (a, b)
    assert climbs > 0 and descents > 0
    assert result.rows[0].drone_z == result.rows[-1].drone_z == cfg.carrier_height


def test_mission_spec_validation():
    frame = SimConfig().frame
    with pytest.raises(ScenarioError):
        MissionSpec(MissionKind.SEARCH_RETURN_LAND, home_color=None,
                    trajectory=forward_search_trajectory(frame, Color.PINK))
    with pytest.raises(ScenarioError):
        MissionSpec(MissionKind.FORWARD_SEARCH_HOVER)   # no trajectory
    with pytest.raises(ScenarioError):
        MissionSpec(MissionKind.TRACK_VISIBLE, timeout=0.0)
    # a kind, colour or trajectory of another type flew the wrong mission or
    # died mid-run; a timeout that is not a number raised a bare TypeError,
    # or (True) ran a one-second mission
    trajectory = forward_search_trajectory(frame, Color.PINK)
    for fields, key in (({"kind": "return"}, "kind"), ({"search_color": "pink"}, "search_color"),
                        ({"home_color": "blue"}, "home_color"), ({"home_color": 2}, "home_color"),
                        ({"trajectory": trajectory.segments}, "trajectory"),
                        ({"trajectory": trajectory.segments[0]}, "trajectory"),
                        ({"trajectory": "forward"}, "trajectory"),
                        ({"timeout": "5"}, "timeout"), ({"timeout": None}, "timeout"),
                        ({"timeout": True}, "timeout"), ({"timeout": [5.0]}, "timeout")):
        spec = {"kind": MissionKind.SEARCH_RETURN_LAND, "trajectory": trajectory, **fields}
        with pytest.raises(ScenarioError, match=key):
            MissionSpec(**spec)
    assert MissionSpec(MissionKind.FORWARD_SEARCH_HOVER, home_color=None,
                       trajectory=trajectory).home_color is None
    assert MissionSpec(MissionKind.TRACK_VISIBLE, timeout=5).timeout == 5


def test_scenario_rejects_markers_of_another_type():
    # a non-Marker was accepted and died in the first render
    sc = zero_noise_scenario("track")
    pink = sc.markers[0]
    for markers in (("x",), (pink, 5), [pink], pink, None):
        with pytest.raises(ScenarioError, match="markers must be a tuple of Markers"):
            dataclasses.replace(sc, markers=markers)
    assert dataclasses.replace(sc, markers=()).markers == ()


def test_scenario_keeps_float_copies_of_its_starts():
    sc = zero_noise_scenario("return")
    start = [1, 0]
    moved = dataclasses.replace(sc, drone_start=start, carrier_start=start)
    start[0] = 5
    assert moved.drone_start == moved.carrier_start == (1.0, 0.0)
    assert {type(v) for v in moved.drone_start + moved.carrier_start} == {float}
    assert hash(moved) == hash(dataclasses.replace(sc, drone_start=(1.0, 0.0),
                                                   carrier_start=(1.0, 0.0)))
    with pytest.raises(TypeError):
        dataclasses.replace(sc, drone_start="12")
    with pytest.raises(ScenarioError, match="carrier_start must be finite"):
        dataclasses.replace(sc, carrier_start=(0.0, math.nan))


def test_tick_budget_is_checked_where_spec_and_config_meet():
    # timeout_s / dt exactly at the budget passes, one tick over it fails
    at_budget = MAX_MISSION_TICKS * 0.5
    assert build_scenario({"task": "return", "timeout_s": at_budget,
                           "sim": {"dt": 0.5}}).spec.timeout == at_budget
    for config in ({"task": "return", "timeout_s": at_budget + 0.5, "sim": {"dt": 0.5}},
                   {"task": "forward", "sim": {"dt": 1e-5}},
                   {"task": "track", "sim": {"dt": 5e-324}}):
        with pytest.raises(ScenarioError, match=r"timeout_s .* at dt .* ticks"):
            build_scenario(config)
    # a scenario assembled in code meets the same check before any Campaign
    sc = zero_noise_scenario("forward")
    long_spec = dataclasses.replace(sc.spec, timeout=MAX_MISSION_TICKS * sc.cfg.dt * 2)
    with pytest.raises(ScenarioError, match="budget"):
        Campaign(dataclasses.replace(sc, spec=long_spec))
    with pytest.raises(ScenarioError, match="budget"):
        Scenario(long_spec, sc.cfg)


def test_run_refuses_a_spec_over_the_tick_budget_before_its_first_tick():
    # a spec built in code meets no Scenario: run checks the budget itself
    sc = zero_noise_scenario("forward")
    spec = dataclasses.replace(sc.spec, timeout=1e300)
    world = sc.make_world(0)

    def no_frame(step, frame):
        raise AssertionError(f"the mission flew to step {step}")

    with pytest.raises(ScenarioError, match=f"over the budget of {MAX_MISSION_TICKS}"):
        run(spec, world, sc.cfg, frame_sink=no_frame)
    assert world.steps == 0 and world.time == 0.0


def test_task_names_are_the_kinds_and_coordination_for_return():
    assert len(MissionKind) == 3
    assert TASKS == {"track": MissionKind.TRACK_VISIBLE,
                     "forward": MissionKind.FORWARD_SEARCH_HOVER,
                     "return": MissionKind.SEARCH_RETURN_LAND,
                     "coordination": MissionKind.SEARCH_RETURN_LAND}
    for task, kind in TASKS.items():
        assert default_scenario(task).spec.kind is kind
    assert default_scenario("coordination") == default_scenario("return")


def test_default_scenario_rejects_unknown_task():
    for task in ("wander", "Return", ["return"], None):
        with pytest.raises(ScenarioError,
                           match=re.escape("expected track|forward|return|coordination")):
            default_scenario(task)


def test_load_campaign_from_config_file(tmp_path):
    config = {
        "task": "forward",
        "search_color": "pink",
        "timeout_s": 90.0,
        "markers": [{"x": 1.0, "y": 0.0, "radius": 0.08, "color": "pink"}],
        "drone_start": [0.0, 0.0],
        "trajectory": {"type": "forward"},
        "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0},
                "altitude": 1.0},
    }
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(config))
    campaign = load_campaign(path)
    assert (campaign.trials, campaign.base_seed) == (20, 0)   # Campaign's defaults
    sc = campaign.scenario
    assert sc.spec.kind is MissionKind.FORWARD_SEARCH_HOVER
    assert sc.spec.timeout == 90.0
    assert sc.markers[0].position == (1.0, 0.0)
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success


def test_load_campaign_square_trajectory(tmp_path):
    config = {
        "task": "forward",
        "trajectory": {"type": "square", "side_duration_s": 3.0},
        "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}},
    }
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(config))
    sc = load_campaign(path).scenario
    assert len(sc.spec.trajectory.segments) == 4


def test_load_campaign_explicit_segments(tmp_path):
    config = {
        "task": "return",
        "trajectory": {"type": "segments", "segments": [
            {"target": [320, 80], "until": {"type": "duration", "seconds": 5.0}},
            {"target": [420, 180], "until": {"type": "distance", "meters": 0.5}},
            {"target": [320, 80], "until": {"type": "marker", "color": "pink"}},
        ]},
    }
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(config))
    sc = load_campaign(path).scenario
    assert len(sc.spec.trajectory.segments) == 3


def test_load_campaign_missing_file():
    with pytest.raises(ScenarioError):
        load_campaign("/nonexistent/mission.json")


def test_load_campaign_reads_trials_and_base_seed(tmp_path):
    path = tmp_path / "mission.json"
    path.write_text(json.dumps({"task": "track", "trials": 3, "base_seed": 40}))
    assert load_campaign(path) == Campaign(default_scenario("track"), trials=3, base_seed=40)
    path.write_text(json.dumps({"task": "track", "base_seed": 7}))
    assert load_campaign(path) == Campaign(default_scenario("track"), base_seed=7)


def test_exhausted_return_replay_fails():
    # the carrier drives off, so the replayed return leg ends over an empty
    # pad site: the mission fails there instead of waiting out the timeout
    from visnav import step
    sc = build_scenario({"task": "coordination", "timeout_s": 100.0,
                         "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0},
                                 "carrier_waypoints": [[-4.0, 3.0]]}})
    world = sc.make_world(0)
    state = initial_state(sc.spec)
    rows = []
    while not state.done:
        cmd, *_ = tick(state, sc.spec, world, sc.cfg)
        rows.append((state.label, cmd))
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    n = len(state.leg.segments)
    assert rows[-2][0] == f"reversing:{n - 1}"
    assert rows[-1] == ("failed:return_exhausted", ZERO_COMMAND)
    assert (len(rows), n) == (758, 88)


def test_the_readme_config_example_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    with pytest.raises(ScenarioError, match="known: ") as err:
        build_scenario({**example, "unknown_key": 0})
    assert set(example) == set(str(err.value).split("known: ", 1)[1].split(", "))
    sim = example["sim"]
    for section, cls in ((sim, SimConfig), (sim["frame"], FrameSpec),
                         (sim["gains"], ControllerGains), (sim["noise"], NoiseModel)):
        assert set(section) == {f.name for f in dataclasses.fields(cls)}
    assert build_scenario(example).cfg.carrier_waypoints == ((1.0, 0.0),)


#: What the FSM writes into a text cell: never a character csv would quote.
LABEL = re.compile(r"[a-z0-9_:]*")

#: Every outcome a mission can end with (README, "Mission state machine").
OUTCOMES = {"success", "failed:timeout", "failed:search_exhausted",
            "failed:reversal_unavailable", "failed:return_exhausted"}


def _until():
    return st.one_of(
        st.builds(lambda s: {"type": "duration", "seconds": s}, st.floats(0.5, 8.0)),
        st.builds(lambda m: {"type": "distance", "meters": m}, st.floats(0.05, 1.0)),
        st.just({"type": "marker", "color": "pink"}))


_SEGMENTS = st.lists(
    st.builds(lambda dx, dy, until: {"target": [320 + dx, 180 + dy], "until": until},
              st.floats(-150, 150), st.floats(-150, 150), _until()),
    min_size=1, max_size=4)

_SEARCHES = st.one_of(
    st.just({"type": "forward"}),
    st.builds(lambda side, offset: {"type": "square", "side_duration_s": side,
                                    "offset_px": offset},
              st.floats(1.0, 8.0), st.floats(60.0, 150.0)),
    _SEGMENTS.map(lambda segments: {"type": "segments", "segments": segments}))


@st.composite
def mission_configs(draw):
    """Config trees over all four task names with stationary carriers: a pink
    target (in view for track, ahead of the start otherwise), up to two
    distractors in colors no mission watches, drift, jitter, a raised pad
    and forward, square or segment searches."""
    task = draw(st.sampled_from(list(TASKS)))
    x, y = (st.floats(-0.4, 0.4), st.floats(-0.8, 0.8)) if task == "track" \
        else (st.floats(0.3, 1.5), st.floats(-0.5, 0.5))
    markers = [{"x": draw(x), "y": draw(y), "radius": draw(st.floats(0.04, 0.12)),
                "color": "pink"}]
    for _ in range(draw(st.integers(0, 2))):
        markers.append({"x": draw(st.floats(-1.5, 2.0)), "y": draw(st.floats(-1.0, 1.0)),
                        "radius": draw(st.floats(0.03, 0.1)),
                        "color": draw(st.sampled_from(["red", "green", "yellow", "orange"]))})
    config = {"task": task, "timeout_s": draw(st.sampled_from([30.0, 60.0, 90.0])),
              "markers": markers,
              "sim": {"carrier_height": draw(st.floats(0.0, 0.6)),
                      "noise": {"drift_std": draw(st.floats(0.0, 0.1)),
                                "takeoff_jitter_std": draw(st.floats(0.0, 0.15))}}}
    if task != "track":
        config["trajectory"] = draw(_SEARCHES)
    return config


@settings(max_examples=40, deadline=None)
@given(mission_configs(), st.integers(0, 2**32 - 1))
def test_mission_invariants_over_generated_scenarios(tmp_path_factory, config, seed):
    sc = build_scenario(config)
    path = tmp_path_factory.getbasetemp() / "mission_invariants.json"
    path.write_text(json.dumps(config))
    assert load_campaign(path).scenario == sc
    world = sc.make_world(seed)
    result = run(sc.spec, world, sc.cfg)
    rows = result.rows

    assert len(rows) == result.ticks <= sc.spec.timeout / sc.cfg.dt + 1
    assert audit_transitions([r.fsm_state for r in rows]) == []
    assert all(LABEL.fullmatch(r.fsm_state) and LABEL.fullmatch(r.detected_color) for r in rows)
    assert result.outcome in OUTCOMES
    assert result.outcome == "success" or rows[-1].fsm_state == result.outcome
    if result.success and sc.spec.kind is MissionKind.SEARCH_RETURN_LAND:
        assert rows[-1].fsm_state == "landed"
        off_pad = math.hypot(world.drone.x - world.carrier.x, world.drone.y - world.carrier.y)
        assert off_pad <= sc.cfg.carrier_marker_radius
    elif result.success:
        assert rows[-1].detected_color == "pink"

    assert run(sc.spec, sc.make_world(seed), sc.cfg).rows == rows
    path = tmp_path_factory.getbasetemp() / "mission_invariants.csv"
    write_trajectory_csv(rows, path)
    assert load_trajectory(path) == list(rows)


@settings(deadline=None)
@given(mission_configs())
def test_a_coordination_config_builds_the_return_scenario(config):
    assert build_scenario({**config, "task": "coordination"}) == \
        build_scenario({**config, "task": "return"})
