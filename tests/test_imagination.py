"""Imagined targets, trajectories, motion logs and reversal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visnav import (Color, Duration, EmptyLogError, FrameSpec, ImaginedSegment,
                    ImaginedTrajectory, MarkerDetected, MissionKind, MissionSpec,
                    MotionLog, NoiseModel, PixelPoint, Pose, Scenario, SimConfig,
                    Phase, VelocityCommand, fly_trajectory, forward_target,
                    initial_state, make_world, offset_target, reflect_about_center,
                    reverse, run, square_trajectory, step, tick)
from visnav.mission import MAX_MISSION_TICKS, build_scenario

DEFAULT = FrameSpec()
ZERO_NOISE = SimConfig(noise=NoiseModel.zero())


def test_forward_target_default_frame():
    t = forward_target(DEFAULT)
    assert (t.x, t.y) == (320.0, 80.0)


def test_backward_analogue_mirrors_forward():
    t = offset_target(DEFAULT, 0.0, 100.0)
    assert (t.x, t.y) == (320.0, 280.0)


def test_forward_target_small_frame_leaves_bounds():
    # legal for imagined targets: (50, -50) on a 100x100 frame
    t = forward_target(FrameSpec(100, 100, 50.0))
    assert (t.x, t.y) == (50.0, -50.0)


def test_square_trajectory_targets():
    traj = square_trajectory(DEFAULT, 2.0)
    assert [(s.target.x, s.target.y) for s in traj.segments] == [
        (320.0, 80.0), (420.0, 180.0), (320.0, 280.0), (220.0, 180.0)]
    assert all(s.terminate_on == Duration(2.0) for s in traj.segments)


def test_square_trajectory_rejects_zero_duration():
    with pytest.raises(ValueError):
        square_trajectory(DEFAULT, 0.0)


def test_square_flight_returns_to_start():
    world = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    fly_trajectory(square_trajectory(DEFAULT, 2.0), world, ZERO_NOISE)
    assert math.hypot(world.drone.x, world.drone.y) <= 1e-6


def test_reverse_single_entry_reflects_target():
    log = MotionLog()
    log.append(0.0, VelocityCommand(0.05, 0.0), 5.0, PixelPoint(320, 80))
    traj = reverse(log, DEFAULT)
    assert len(traj.segments) == 1
    seg = traj.segments[0]
    assert (seg.target.x, seg.target.y) == (320.0, 280.0)
    assert seg.terminate_on == Duration(5.0)


def test_return_log_holds_one_entry_per_stretch_of_constant_command():
    sc = build_scenario({"task": "return",
                         "sim": {"noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}}})
    world = sc.make_world(0)
    state = initial_state(sc.spec)
    labels = []
    while state.phase is not Phase.REVERSING:
        state, cmd = tick(state, sc.spec, world, sc.cfg)
        labels.append(state.label(sc.spec))
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))
    # the whole forward search flies one imagined target: one entry
    searching = sum(label.startswith("searching") for label in labels)
    first, second = state.log.entries[:2]
    assert first.target == forward_target(DEFAULT) != second.target
    assert first.duration == pytest.approx(searching * sc.cfg.dt, rel=1e-12)
    assert [(s.target, s.terminate_on) for s in reversed(state.leg.segments)] == [
        (reflect_about_center(e.target, DEFAULT), Duration(e.duration))
        for e in state.log.entries]


def test_fly_trajectory_logs_adjacent_identical_segments_apart():
    # an open-loop flight logs one entry per segment, even when two
    # neighbours are equal, so reversing twice gives every target back
    seg = ImaginedSegment(PixelPoint(420, 180), Duration(0.5))
    traj = ImaginedTrajectory((ImaginedSegment(PixelPoint(320, 80), Duration(0.3)), seg, seg))
    world = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    log_out = fly_trajectory(traj, world, ZERO_NOISE)
    assert len(log_out) == 3
    log_back = fly_trajectory(reverse(log_out, DEFAULT), world, ZERO_NOISE)
    assert len(log_back) == 3
    assert reverse(log_back, DEFAULT).targets() == traj.targets()
    assert math.hypot(world.drone.x, world.drone.y) <= 1e-9


def test_reverse_empty_log_raises():
    with pytest.raises(EmptyLogError):
        reverse(MotionLog(), DEFAULT)


def test_l_path_execute_then_reverse_returns_home():
    traj = ImaginedTrajectory((
        ImaginedSegment(PixelPoint(320, 80), Duration(3.0)),    # ahead
        ImaginedSegment(PixelPoint(420, 180), Duration(2.0)),   # right
    ))
    world = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    log = fly_trajectory(traj, world, ZERO_NOISE)
    away = math.hypot(world.drone.x, world.drone.y)
    assert away > 0.1
    fly_trajectory(reverse(log, DEFAULT), world, ZERO_NOISE)
    assert math.hypot(world.drone.x, world.drone.y) <= 1e-6


def test_reversal_involution_on_trajectories():
    # fly, reverse, fly back, reverse again: the original targets return
    rng = np.random.default_rng(41)
    for _ in range(50):
        segs = tuple(
            ImaginedSegment(
                PixelPoint(float(rng.integers(-500, 1200)), float(rng.integers(-500, 900))),
                Duration(float(rng.integers(1, 8)) * 0.1))
            for _ in range(rng.integers(1, 6)))
        traj = ImaginedTrajectory(segs)
        world = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
        log_out = fly_trajectory(traj, world, ZERO_NOISE)
        log_back = fly_trajectory(reverse(log_out, DEFAULT), world, ZERO_NOISE)
        assert reverse(log_back, DEFAULT).targets() == traj.targets()


def test_reverse_of_reverse_log_reproduces_targets():
    traj = ImaginedTrajectory((
        ImaginedSegment(PixelPoint(320, 80), Duration(2.0)),
        ImaginedSegment(PixelPoint(420, 180), Duration(1.5)),
        ImaginedSegment(PixelPoint(250, 300), Duration(0.8)),
    ))
    w1 = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    log1 = fly_trajectory(traj, w1, ZERO_NOISE)
    rev = reverse(log1, DEFAULT)
    w2 = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    log2 = fly_trajectory(rev, w2, ZERO_NOISE)
    again = reverse(log2, DEFAULT)
    assert again.targets() == traj.targets()


def test_constant_command_within_mission_segments():
    # an imagined target keeps a constant offset from the image center, so
    # the commanded velocity is bit-identical across a segment's ticks
    traj = square_trajectory(DEFAULT, 2.0)
    spec = MissionSpec(MissionKind.FORWARD_SEARCH_HOVER, search_color=Color.RED,
                       trajectory=traj, timeout=30.0)
    scenario = Scenario(spec, ZERO_NOISE)  # no red marker anywhere
    result = run(spec, scenario.make_world(0), ZERO_NOISE)
    assert result.outcome == "failed:search_exhausted"
    by_segment = {}
    for row in result.rows:
        if row.fsm_state.startswith("searching"):
            by_segment.setdefault(row.fsm_state, set()).add((row.vel_fwd, row.vel_right))
    assert len(by_segment) == 4
    assert all(len(cmds) == 1 for cmds in by_segment.values())


def test_out_of_frame_targets_are_not_clamped():
    traj = square_trajectory(FrameSpec(100, 100, 50.0), 1.0, offset_px=300.0)
    xs = [s.target.x for s in traj.segments]
    ys = [s.target.y for s in traj.segments]
    assert min(xs + ys) == -250.0 and max(xs + ys) == 350.0


def test_reflect_about_center():
    p = reflect_about_center(PixelPoint(420.0, 180.0), DEFAULT)
    assert (p.x, p.y) == (220.0, 180.0)


def test_motion_log_validation():
    log = MotionLog()
    log.append(0.0, VelocityCommand(0.1, 0.0), 1.0, PixelPoint(320, 80))
    with pytest.raises(ValueError):
        log.append(0.0, VelocityCommand(0.1, 0.0), 1.0, PixelPoint(320, 80))
    with pytest.raises(ValueError):
        log.append(1.0, VelocityCommand(0.1, 0.0), 0.0, PixelPoint(320, 80))
    assert len(log) == 1


def test_termination_validation():
    with pytest.raises(ValueError):
        Duration(0.0)
    with pytest.raises(ValueError):
        ImaginedTrajectory(())
    assert MarkerDetected(Color.PINK).color is Color.PINK


def test_fly_trajectory_rejects_non_duration_segments():
    traj = ImaginedTrajectory((
        ImaginedSegment(PixelPoint(320, 80), MarkerDetected(Color.PINK)),
    ))
    world = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    with pytest.raises(ValueError):
        fly_trajectory(traj, world, ZERO_NOISE)


@pytest.mark.parametrize("last_end, match", [
    (MarkerDetected(Color.PINK), "segment 1: .*Duration-terminated"),
    (Duration(math.inf), "segment 1 takes the flight to inf ticks"),
    (Duration(1e300), "segment 1 takes the flight to 1e\\+301 ticks"),
    (Duration(2 * ZERO_NOISE.dt), "segment 1 takes the flight to 1e\\+06 ticks"),
])
def test_fly_trajectory_checks_every_segment_before_flying(last_end, match):
    # the first segment is fine; the flight must raise before it moves the world
    first = ImaginedSegment(PixelPoint(320, 80), Duration(999_999 * ZERO_NOISE.dt))
    traj = ImaginedTrajectory((first, ImaginedSegment(PixelPoint(320, 80), last_end)))
    world = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    with pytest.raises(ValueError, match=match):
        fly_trajectory(traj, world, ZERO_NOISE)
    assert world.steps == 0 and world.drone == Pose(0, 0, 1.0, 0.0) and world.time == 0.0


def test_fly_trajectory_flies_a_flight_of_exactly_the_tick_budget():
    seg = ImaginedSegment(PixelPoint(320, 180), Duration(MAX_MISSION_TICKS / 2 * ZERO_NOISE.dt))
    world = make_world(0, drone=Pose(0, 0, 1.0, 0.0))
    fly_trajectory(ImaginedTrajectory((seg, seg)), world, ZERO_NOISE)
    assert world.steps == MAX_MISSION_TICKS


def _out_and_back(shape: str, reach: float, start: tuple[float, float]) -> dict:
    """Trajectory and pink marker of a return mission from ``start`` whose
    search finds the marker along a path of the given shape; ``reach`` in
    [0, 1] stretches the path.  Imagined targets fly at 0.05 m/s."""
    if shape == "forward":
        trajectory, (mx, my) = {"type": "forward"}, (1.0 + reach, 0.0)
    elif shape == "square":
        side_s = 20.0 + 10.0 * reach
        side = 0.05 * side_s
        # out of view along the first side, found along the second
        trajectory = {"type": "square", "side_duration_s": side_s}
        mx, my = side, -0.6 * side - 0.6
    else:
        right_s = 4.0 + 6.0 * reach
        trajectory = {"type": "segments", "segments": [
            {"target": [420, 180], "until": {"type": "duration", "seconds": right_s}},
            {"target": [320, 80], "until": {"type": "distance", "meters": 0.4}},
            {"target": [320, 80], "until": {"type": "marker", "color": "pink"}}]}
        mx, my = 1.4, -0.05 * right_s
    return {"trajectory": trajectory, "drone_start": list(start),
            "markers": [{"x": start[0] + mx, "y": start[1] + my, "radius": 0.06,
                         "color": "pink"}]}


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(["forward", "square", "segments"]),
       reach=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       drift=st.floats(0.0, 0.05), jitter=st.floats(0.0, 0.05),
       start=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
def test_exhausted_replay_cancels_the_commanded_outbound_motion(shape, reach, seed, drift,
                                                                 jitter, start):
    # home is a color no marker has, so the replay runs to its end; there the
    # replayed commands have cancelled the outbound ones, and the vehicle sits
    # at its start displaced only by the takeoff jitter and the drift draws
    sc = build_scenario({"task": "return", "home_color": "yellow", "timeout_s": 400.0,
                         "sim": {"noise": {"drift_std": drift, "takeoff_jitter_std": jitter}},
                         **_out_and_back(shape, reach, start)})
    world = sc.make_world(seed)
    state = initial_state(sc.spec)
    while True:
        state, cmd = tick(state, sc.spec, world, sc.cfg)
        if state.fail_reason == "return_exhausted":
            break
        assert not state.done, state.label(sc.spec)
        step(world, cmd, sc.cfg, vz=state.climb_rate(sc.cfg))

    rng = np.random.default_rng(seed)
    x, y = start
    if jitter > 0:
        jx, jy = rng.normal(0.0, jitter, 2)
        x, y = x + jx, y + jy
    if drift > 0:
        for _ in range(world.steps):
            dx, dy = rng.normal(0.0, drift, 2)
            x, y = x + sc.cfg.dt * dx, y + sc.cfg.dt * dy
    assert math.hypot(world.drone.x - x, world.drone.y - y) <= 1e-9
