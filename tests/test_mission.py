"""Mission FSM behavior for the four task kinds."""

import dataclasses
import json
import math

import pytest

from visnav import (AbsorbingStateError, Color, MissionKind, MissionSpec,
                    NoiseModel, Phase, Scenario, ScenarioError, SimConfig,
                    audit_transitions, default_scenario, forward_search_trajectory,
                    initial_state, load_scenario, run, square_trajectory, tick)

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


def test_tick_after_landed_raises():
    sc = zero_noise_scenario("return")
    world = sc.make_world(0)
    state = initial_state(sc.spec)
    for _ in range(5000):
        state, cmd = tick(state, sc.spec, world, sc.cfg)
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
        state, _ = tick(state, spec, world, sc.cfg)
        if state.done:
            break
    assert state.phase is Phase.FAILED
    assert state.fail_reason == "timeout"
    with pytest.raises(AbsorbingStateError):
        tick(state, spec, world, sc.cfg)


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
        state, cmd = tick(state, sc.spec, world, sc.cfg)
        if state.phase is Phase.SERVOING:
            break
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    assert state.phase is Phase.SERVOING
    world.markers = ()   # the marker disappears mid-servo
    transitions = []
    for _ in range(12):  # LOST_PATIENCE_TICKS dropouts, then reversion
        state, cmd = tick(state, sc.spec, world, sc.cfg)
        transitions.append(state.phase)
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    assert transitions[-1] is Phase.SEARCHING
    assert Phase.SERVOING in transitions[:-1]


def test_takeoff_reaches_exact_altitude():
    sc = zero_noise_scenario("forward")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    search_rows = [r for r in result.rows if r.fsm_state.startswith("searching")]
    assert all(r.drone_z == sc.cfg.altitude for r in search_rows)


@pytest.mark.parametrize("task, sim", [("return", {}),
                                       ("coordination", {"carrier_height": 0.3})])
def test_altitude_moves_only_in_climb_and_descent_phases(task, sim):
    from visnav.mission import build_scenario
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


def test_tick_budget_is_checked_where_spec_and_config_meet():
    from visnav.mission import MAX_MISSION_TICKS, build_scenario
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
    from visnav import Campaign
    sc = zero_noise_scenario("forward")
    long_spec = dataclasses.replace(sc.spec, timeout=MAX_MISSION_TICKS * sc.cfg.dt * 2)
    with pytest.raises(ScenarioError, match="budget"):
        Campaign(dataclasses.replace(sc, spec=long_spec))
    with pytest.raises(ScenarioError, match="budget"):
        Scenario(long_spec, sc.cfg)


def test_default_scenario_rejects_unknown_task():
    with pytest.raises(ScenarioError):
        default_scenario("wander")


def test_load_scenario_from_config_file(tmp_path):
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
    sc = load_scenario(path)
    assert sc.spec.kind is MissionKind.FORWARD_SEARCH_HOVER
    assert sc.spec.timeout == 90.0
    assert sc.markers[0].position == (1.0, 0.0)
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success


def test_load_scenario_square_trajectory(tmp_path):
    config = {
        "task": "forward",
        "trajectory": {"type": "square", "side_duration_s": 3.0},
        "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}},
    }
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(config))
    sc = load_scenario(path)
    assert len(sc.spec.trajectory.segments) == 4


def test_load_scenario_explicit_segments(tmp_path):
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
    sc = load_scenario(path)
    assert len(sc.spec.trajectory.segments) == 3


@pytest.mark.parametrize("bad", [
    "not json at all {",
    json.dumps(["task", "forward"]),
    json.dumps({"markers": []}),                       # missing task
    json.dumps({"task": "forward", "search_color": "mauve"}),
    json.dumps({"task": "forward", "trajectory": {"type": "spiral"}}),
    json.dumps({"task": "forward", "sim": {"dt": -1.0}}),
])
def test_load_scenario_rejects_malformed_configs(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(bad)
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/mission.json")


def test_exhausted_return_replay_holds_until_timeout():
    # the carrier drives off, so the replayed return leg ends over an empty
    # pad site: the vehicle then holds at zero velocity and keeps scanning
    from visnav import step
    from visnav.mission import build_scenario
    sc = build_scenario({"task": "coordination", "timeout_s": 100.0,
                         "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0},
                                 "carrier_waypoints": [[-4.0, 3.0]]}})
    world = sc.make_world(0)
    state = initial_state(sc.spec)
    rows = []
    while not state.done:
        state, cmd = tick(state, sc.spec, world, sc.cfg)
        rows.append((state.label(sc.spec), cmd))
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    n = len(state.reversal.segments)
    held = f"reversing:{n}"
    first = [label for label, _ in rows].index(held)
    assert [label for label, _ in rows[first - 1:first]] == [f"reversing:{n - 1}"]
    assert all(label == held and cmd.vel_forward == 0.0 and cmd.vel_right == 0.0
               for label, cmd in rows[first:-1])
    assert rows[-1][0] == "failed:timeout"
    assert (len(rows), n, len(rows) - 1 - first) == (1001, 363, 243)
