"""World stepping: kinematics, noise, carrier motion, capture, CSV logs."""

import copy
import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visnav import (Color, ControllerGains, Duration, GroundedError, ImaginedSegment,
                    ImaginedTrajectory, Marker, NoiseModel, PixelPoint, Pose, SimConfig,
                    TrajectoryRow, VelocityCommand, WorldState, capture, default_scenario, detect,
                    fly_trajectory, make_world, run, sim, step, write_trajectory_csv)
from visnav.harness import load_trajectory
from visnav.sim import TRAJECTORY_COLUMNS

ZERO_NOISE = SimConfig(noise=NoiseModel.zero())


def airborne_world(seed=0, markers=(), x=0.0, y=0.0, yaw=0.0):
    return make_world(seed, markers, drone=Pose(x, y, 1.0, yaw))


def test_step_euler_integration():
    world = airborne_world()
    step(world, VelocityCommand(0.05, 0.0), ZERO_NOISE)
    assert world.drone.x == pytest.approx(0.005, abs=1e-15)
    assert world.drone.y == 0.0
    assert world.steps == 1
    assert world.time == 0.1


def test_hovering_command_freezes_pose():
    world = airborne_world(x=1.25, y=-0.5)
    before = world.drone
    for _ in range(50):
        step(world, VelocityCommand(0.0, 0.0, hovering=True), ZERO_NOISE)
    assert world.drone == before
    assert world.steps == 50


def test_body_to_world_rotation():
    world = airborne_world(yaw=math.pi / 2)
    step(world, VelocityCommand(0.1, 0.0), ZERO_NOISE)   # forward is world +y
    assert world.drone.x == pytest.approx(0.0, abs=1e-15)
    assert world.drone.y == pytest.approx(0.01)
    world2 = airborne_world(yaw=0.0)
    step(world2, VelocityCommand(0.0, 0.1), ZERO_NOISE)  # right is world -y
    assert world2.drone.y == pytest.approx(-0.01)


def test_fixed_seed_drift_replays_bit_exactly():
    cfg = SimConfig(noise=NoiseModel(drift_std=0.02, takeoff_jitter_std=0.0))
    w1 = airborne_world(seed=123)
    w2 = airborne_world(seed=123)
    xs1, xs2 = [], []
    for _ in range(200):
        step(w1, VelocityCommand(0.05, 0.0), cfg)
        step(w2, VelocityCommand(0.05, 0.0), cfg)
        xs1.append((w1.drone.x, w1.drone.y))
        xs2.append((w2.drone.x, w2.drone.y))
    assert xs1 == xs2


def test_deepcopy_snapshot_replays():
    cfg = SimConfig(noise=NoiseModel(drift_std=0.02, takeoff_jitter_std=0.0))
    world = airborne_world(seed=5)
    for _ in range(10):
        step(world, VelocityCommand(0.05, 0.0), cfg)
    snap = copy.deepcopy(world)
    a = [step(world, VelocityCommand(0.0, 0.05), cfg).drone for _ in range(20)]
    b = [step(snap, VelocityCommand(0.0, 0.05), cfg).drone for _ in range(20)]
    assert [(p.x, p.y) for p in a] == [(p.x, p.y) for p in b]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**128), shapes=st.lists(
    st.tuples(st.integers(0, 6)) | st.tuples(st.integers(0, 6), st.integers(1, 3)),
    min_size=1, max_size=4))
def test_the_lazy_generator_draws_the_default_rng_stream(seed, shapes):
    world = make_world(seed)
    reference = np.random.default_rng(seed)
    for shape in shapes:
        assert world.rng.normal(0.0, 0.5, shape).tolist() == \
            reference.normal(0.0, 0.5, shape).tolist()
    assert world.rng.bit_generator.state == reference.bit_generator.state


def test_a_snapshot_before_the_first_draw_replays():
    cfg = SimConfig(noise=NoiseModel(drift_std=0.02, takeoff_jitter_std=0.0))
    world = airborne_world(seed=9)
    snap = copy.deepcopy(world)
    assert "rng" not in vars(snap) and snap != world   # worlds compare by identity
    a = [step(world, VelocityCommand(0.05, 0.01), cfg).drone for _ in range(20)]
    b = [step(snap, VelocityCommand(0.05, 0.01), cfg).drone for _ in range(20)]
    assert repr(a) == repr(b)
    assert world.rng.bit_generator.state == snap.rng.bit_generator.state


def test_zero_noise_flights_never_build_a_generator():
    traj = ImaginedTrajectory((ImaginedSegment(PixelPoint(320.0, 80.0), Duration(1.0)),))
    world = airborne_world(seed=4)
    fly_trajectory(traj, world, ZERO_NOISE)
    assert world.steps == 10 and "rng" not in vars(world)
    scenario = default_scenario("return", noise=NoiseModel.zero())
    world = scenario.make_world(4)
    assert run(scenario.spec, world, scenario.cfg).success
    assert "rng" not in vars(world)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError),
                                         ("3", TypeError)])
def test_a_bad_seed_is_rejected_before_any_flight(seed, error):
    with pytest.raises(error):
        make_world(seed)
    scenario = default_scenario("return")
    with pytest.raises(error):
        scenario.make_world(seed)


def test_zero_noise_exactness_over_thousand_steps():
    world = airborne_world()
    for _ in range(1000):
        step(world, VelocityCommand(0.05, 0.02), ZERO_NOISE)
    assert abs(world.drone.x - 0.05 * 100.0) <= 1e-9
    assert abs(world.drone.y - (-0.02 * 100.0)) <= 1e-9
    assert world.time == 1000 * 0.1   # computed as n*dt, not accumulated


def test_time_accounting_is_exact():
    world = airborne_world()
    for n in range(1, 1001):
        step(world, VelocityCommand(0.0, 0.0, True), ZERO_NOISE)
        assert world.time == n * ZERO_NOISE.dt


def test_stability_guard_rejects_divergent_loop():
    with pytest.raises(ValueError):
        SimConfig(dt=10.0)   # 10 * 0.0005 * 320 / 1.0 = 1.6 >= 1
    with pytest.raises(ValueError):
        SimConfig(gains=ControllerGains(k=0.05))  # 0.1 * 0.05 * 320 = 1.6
    SimConfig(dt=0.1)  # default loop gain 0.016 is fine


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(altitude=0.0)
    with pytest.raises(ValueError):
        SimConfig(carrier_height=1.0, altitude=1.0)
    with pytest.raises(ValueError):
        NoiseModel(drift_std=-0.1)


@pytest.mark.parametrize("key, value", [
    ("dt", math.inf), ("altitude", math.nan), ("climb_rate", math.inf),
    ("descent_rate", math.nan), ("carrier_height", math.nan),
    ("carrier_speed", -0.3), ("carrier_speed", 0.0), ("carrier_speed", math.nan),
    ("carrier_speed", math.inf), ("carrier_marker_radius", 0.0),
    ("carrier_marker_radius", math.nan), ("carrier_marker_radius", math.inf),
    ("carrier_waypoints", ((math.nan, 0.0),)), ("carrier_waypoints", ((1.0, 0.0), (0.0, math.inf))),
])
def test_sim_config_rejects_non_finite_and_out_of_range_values(key, value):
    with pytest.raises(ValueError, match=key):
        SimConfig(**{key: value})


@pytest.mark.parametrize("key", ["drift_std", "takeoff_jitter_std"])
@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
def test_noise_std_must_be_finite_and_non_negative(key, value):
    with pytest.raises(ValueError, match=key):
        NoiseModel(**{key: value})


@pytest.mark.parametrize("size", [0, -5, 2.5, True])
def test_min_blob_size_must_be_a_positive_integer(size):
    with pytest.raises(ValueError, match="min_blob_size must be an integer >= 1"):
        SimConfig(min_blob_size=size)


def test_vertical_rate_and_ground_clamp():
    world = make_world(0, drone=Pose(0, 0, 0.0, 0))
    step(world, VelocityCommand(0, 0), ZERO_NOISE, vz=0.5)
    assert world.drone.z == pytest.approx(0.05)
    step(world, VelocityCommand(0, 0), ZERO_NOISE, vz=-2.0)
    assert world.drone.z == 0.0   # clamped


def world_state(world):
    """Everything a step may change, as a repr: equal reprs are equal bits
    (repr tells -0.0 from 0.0)."""
    return repr((world.drone, world.carrier, world.carrier_wp_index, world.steps, world.time,
                 world.rng.bit_generator.state))


_speed = st.floats(-1.0, 1.0)
_point = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32), drift=st.just(0.0) | st.floats(0.0, 0.1),
       yaw=st.floats(-math.pi, math.pi), z=st.floats(0.0, 1.0),
       cmd=st.builds(VelocityCommand, _speed, _speed),
       vz=st.just(0.0) | st.floats(-2.0, 2.0),
       waypoints=st.lists(_point, max_size=3), carrier_speed=st.floats(0.05, 1.0),
       steps=st.integers(0, 5000), n=st.integers(1, 40))
@example(seed=0, drift=0.0, yaw=0.0, z=-0.0, cmd=VelocityCommand(0.0, 0.0, True), vz=0.0,
         waypoints=[], carrier_speed=0.3, steps=0, n=3)
def test_a_stretch_equals_its_single_ticks(seed, drift, yaw, z, cmd, vz, waypoints,
                                           carrier_speed, steps, n):
    # a descent of up to 8 m from at most 1 m clamps at the ground mid-stretch,
    # and a carrier at up to 0.1 m per tick reaches waypoints mid-stretch
    cfg = SimConfig(noise=NoiseModel(drift, 0.0), carrier_waypoints=tuple(waypoints),
                    carrier_speed=carrier_speed)
    world = make_world(seed, drone=Pose(0.3, -0.2, z, yaw))
    world.steps, world.time = steps, steps * cfg.dt
    ticked = copy.deepcopy(world)
    step(world, cmd, cfg, vz, ticks=n)
    for _ in range(n):
        step(ticked, cmd, cfg, vz)
    assert world_state(world) == world_state(ticked)


def test_an_overflowing_stretch_raises_and_leaves_the_world_as_it_was():
    cfg = SimConfig(noise=NoiseModel.zero(), carrier_waypoints=((0.5, 0.0),))
    world = airborne_world()
    before = world_state(world)
    with pytest.raises(ValueError, match="finite"):
        step(world, VelocityCommand(1e308, 0.0), cfg, ticks=30)
    assert world_state(world) == before


def test_a_stretch_needs_at_least_one_tick():
    with pytest.raises(ValueError, match="ticks"):
        step(airborne_world(), VelocityCommand(0.05, 0.0), ZERO_NOISE, ticks=0)


def test_markers_are_checked_where_they_enter():
    # a (position, radius, color) tuple is not a Marker: before, the first
    # capture failed with "'tuple' object has no attribute 'height'"
    pink, bad = Marker((0.0, 0.0), 0.1, Color.PINK), ((1.0, 2.0), 0.1, "pink")
    with pytest.raises(TypeError, match=r"^markers\[1\] must be a Marker, got tuple$"):
        make_world(0, markers=[pink, bad])
    with pytest.raises(TypeError, match=r"^markers\[0\] must be a Marker"):
        WorldState(drone=Pose(0.0, 0.0, 1.0, 0.0), carrier=Pose(0.0, 0.0, 0.0, 0.0),
                   markers=(bad,), seed=0)
    with pytest.raises(AttributeError):
        make_world(0, markers=(pink,)).markers._view = ((), None)


def test_capture_marker_below_is_centered_blob():
    world = airborne_world(markers=[Marker((0.0, 0.0), 0.0625, Color.PINK)])
    det = detect(capture(world, ZERO_NOISE), Color.PINK)
    assert det is not None
    assert (det.center.x, det.center.y) == (320.0, 180.0)


def test_capture_marker_beyond_footprint_invisible():
    # forward footprint is altitude*height/(2*focal) = 0.5625 m at 1 m
    world = airborne_world(markers=[Marker((2.0, 0.0), 0.06, Color.PINK)])
    frame = capture(world, ZERO_NOISE)
    assert detect(frame, Color.PINK) is None


def test_capture_includes_carrier_pad():
    world = airborne_world()   # carrier defaults to the drone's start
    det = detect(capture(world, ZERO_NOISE), Color.BLUE)
    assert det is not None
    assert (det.center.x, det.center.y) == (320.0, 180.0)


def test_capture_draws_raised_carrier_pad_at_its_depth():
    # a 0.1 m pad 0.5 m up, seen from 1 m: depth 0.5 m, so radius 64 px
    # (not the 32 px of a pad on the ground) and a doubled centre offset
    cfg = SimConfig(noise=NoiseModel.zero(), carrier_height=0.5)
    world = make_world(0, drone=Pose(0.0, 0.0, 1.0, 0.0), carrier=Pose(0.1, 0.0, 0.0, 0.0))
    det = detect(capture(world, cfg), Color.BLUE)
    assert det is not None
    assert det.pixel_count == pytest.approx(math.pi * 64 ** 2, rel=0.01)
    assert det.center.x == pytest.approx(320.0)
    assert det.center.y == pytest.approx(180.0 - 64.0, abs=0.5)


def test_capture_requires_airborne():
    world = make_world(0)
    with pytest.raises(GroundedError):
        capture(world, ZERO_NOISE)


def test_carrier_walks_its_waypoints():
    # speed 0.625 m/s at dt 0.1 gives a binary-exact 0.0625 m per step
    cfg = SimConfig(noise=NoiseModel.zero(), carrier_waypoints=((1.0, 0.0), (1.0, 0.5)),
                    carrier_speed=0.625)
    world = airborne_world()
    hover = VelocityCommand(0.0, 0.0, True)
    for _ in range(15):
        step(world, hover, cfg)
    assert world.carrier.x == pytest.approx(0.9375)
    step(world, hover, cfg)
    assert (world.carrier.x, world.carrier.y) == (1.0, 0.0)
    assert world.carrier_wp_index == 1
    for _ in range(8):
        step(world, hover, cfg)
    assert (world.carrier.x, world.carrier.y) == (1.0, 0.5)
    assert world.carrier_wp_index == 2
    step(world, hover, cfg)
    assert (world.carrier.x, world.carrier.y) == (1.0, 0.5)  # path done


def test_trajectory_csv_round_trip(tmp_path):
    rows = [
        TrajectoryRow(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "taking_off", "", None),
        TrajectoryRow(1, 0.1, 0.005, -0.002, 1.0, 0.05, -0.02, "searching:0", "", 100.0),
        TrajectoryRow(2, 0.2, 0.0100000001, 0.1 / 3, 1.0, 0.01, 0.0, "servoing:pink",
                      "pink", 82.46211251235321),
    ]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rows, path)
    assert path.read_text().splitlines()[0] == \
        "step,time_s,drone_x,drone_y,drone_z,vel_fwd,vel_right,fsm_state,detected_color,err_px"
    assert path.read_text().splitlines()[1].endswith(",taking_off,,")
    # repr round-trips floats exactly
    assert load_trajectory(path) == rows


#: Finite floats, with those whose text is easy to get wrong drawn often:
#: signed zero, the smallest subnormals, the largest magnitudes and a
#: decimal with no exact binary form.
_finite = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]) \
    | st.floats(allow_nan=False, allow_infinity=False)
_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_:0123456789", max_size=24)
_rows = st.lists(st.builds(TrajectoryRow, st.integers(0, 2**31), _finite, _finite, _finite,
                           _finite, _finite, _finite, _label, _label, st.none() | _finite),
                 max_size=12)


@settings(max_examples=60, deadline=None)
@given(_rows)
def test_trajectory_csv_round_trips_any_finite_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    write_trajectory_csv(rows, path)
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical floats
    assert repr(load_trajectory(path)) == repr(rows)


@settings(max_examples=100, deadline=None)
@given(_rows)
def test_trajectory_csv_bytes_are_repr_per_field(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    write_trajectory_csv(rows, path)
    lines = ["step,time_s,drone_x,drone_y,drone_z,vel_fwd,vel_right,fsm_state,"
             "detected_color,err_px"]
    for r in rows:
        err = "" if r.err_px is None else repr(r.err_px)
        lines.append(f"{r.step},{r.time_s!r},{r.drone_x!r},{r.drone_y!r},{r.drone_z!r},"
                     f"{r.vel_fwd!r},{r.vel_right!r},{r.fsm_state},{r.detected_color},{err}")
    assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=8) | st.sampled_from([",", '"', "\r", "\n", "a b", "\t"]),
       st.sampled_from(["fsm_state", "detected_color"]))
def test_a_label_csv_would_quote_is_refused_and_any_other_writes_csv_bytes(
        tmp_path_factory, label, column):
    # the csv module, the writer's reference, quotes a cell holding , " \r or \n
    row = TrajectoryRow(3, 0.3, 0.1, -0.2, 1.0, 0.0, 0.01, "searching:0", "", None)
    rows = [row, TrajectoryRow(*(label if c == column else getattr(row, c)
                                 for c in TRAJECTORY_COLUMNS))]
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    if any(c in label for c in ',"\r\n'):
        with pytest.raises(ValueError, match=f"^trajectory {column} .* would need CSV quoting"):
            write_trajectory_csv(rows, path)
        assert not path.exists()
        return
    write_trajectory_csv(rows, path)
    with open(path.with_suffix(".ref"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        writer.writerows([getattr(r, c) for c in TRAJECTORY_COLUMNS] for r in rows)
    assert path.read_bytes() == path.with_suffix(".ref").read_bytes()


def test_the_quoting_check_runs_once_per_distinct_label(tmp_path):
    rows = [TrajectoryRow(i, 0.1 * i, 0.0, 0.0, 1.0, 0.0, 0.0, f"searching:{i % 2}",
                          "pink" if i % 3 else "", None) for i in range(60)]
    with mock.patch.object(sim, "_NEEDS_QUOTES", wraps=sim._NEEDS_QUOTES) as check:
        write_trajectory_csv(rows, tmp_path / "traj.csv")
    assert sorted(c.args[0] for c in check.call_args_list) == \
        ["", "pink", "searching:0", "searching:1"]
