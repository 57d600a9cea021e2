"""Projection geometry: image frame conventions and the pinhole map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visnav import (Color, FrameSpec, GroundedError, Marker, PixelPoint, Pose, ground_footprint,
                    in_frame, project, render)

DEFAULT = FrameSpec()


def test_image_center_default_frame():
    c = DEFAULT.center
    assert (c.x, c.y) == (320.0, 180.0)


def test_image_center_square_frame():
    c = FrameSpec(100, 100, 50.0).center
    assert (c.x, c.y) == (50.0, 50.0)


def test_project_point_directly_below_hits_center():
    p = project(Pose(0, 0, 1.0, 0.0), (0.0, 0.0), DEFAULT)
    assert (p.x, p.y) == (320.0, 180.0)


def test_project_lateral_offset_hand_computed():
    # 0.1 m to the right (world -y at yaw 0) from 1 m up with a 320 px focal
    # length: offset = 320 * 0.1 / 1.0 = 32 px to the right of center.
    p = project(Pose(0, 0, 1.0, 0.0), (0.0, -0.1), DEFAULT)
    assert p.x == pytest.approx(352.0, abs=1e-12)
    assert p.y == pytest.approx(180.0, abs=1e-12)


def test_project_forward_offset_decreases_y():
    p = project(Pose(0, 0, 1.0, 0.0), (0.5, 0.0), DEFAULT)
    assert p.x == pytest.approx(320.0, abs=1e-12)
    assert p.y == pytest.approx(180.0 - 160.0, abs=1e-12)


def test_project_same_point_after_quarter_turn():
    # After yawing +90deg the point 0.1 m world-right of the drone sits
    # directly behind it, so it should appear straight below center.
    p = project(Pose(0, 0, 1.0, math.pi / 2), (0.0, -0.1), DEFAULT)
    assert p.x == pytest.approx(320.0, abs=1e-9)
    assert p.y == pytest.approx(180.0 + 32.0, abs=1e-9)


def test_project_requires_airborne_camera():
    with pytest.raises(GroundedError):
        project(Pose(0, 0, 0.0, 0.0), (1.0, 1.0), DEFAULT)


def test_projection_center_consistency_any_pose():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x, y = rng.uniform(-5, 5, 2)
        z = rng.uniform(0.1, 4.0)
        yaw = rng.uniform(-math.pi, math.pi)
        p = project(Pose(x, y, z, yaw), (x, y), DEFAULT)
        assert abs(p.x - 320.0) <= 1e-9
        assert abs(p.y - 180.0) <= 1e-9


def test_scale_linearity_of_lateral_offset():
    rng = np.random.default_rng(12)
    for _ in range(100):
        dx, dy = rng.uniform(-2, 2, 2)
        z = rng.uniform(0.2, 3.0)
        p1 = project(Pose(0, 0, z, 0.0), (dx, dy), DEFAULT)
        p2 = project(Pose(0, 0, z, 0.0), (2 * dx, 2 * dy), DEFAULT)
        assert p2.x - 320.0 == pytest.approx(2 * (p1.x - 320.0), rel=1e-12, abs=1e-12)
        assert p2.y - 180.0 == pytest.approx(2 * (p1.y - 180.0), rel=1e-12, abs=1e-12)


def test_altitude_inverse_proportionality():
    rng = np.random.default_rng(13)
    for _ in range(100):
        dx, dy = rng.uniform(-2, 2, 2)
        z = rng.uniform(0.2, 3.0)
        p1 = project(Pose(0, 0, z, 0.0), (dx, dy), DEFAULT)
        p2 = project(Pose(0, 0, 2 * z, 0.0), (dx, dy), DEFAULT)
        assert p2.x - 320.0 == pytest.approx((p1.x - 320.0) / 2, rel=1e-12, abs=1e-12)
        assert p2.y - 180.0 == pytest.approx((p1.y - 180.0) / 2, rel=1e-12, abs=1e-12)


def test_yaw_equivariance_against_rotation_matrix():
    # Yawing the drone by theta rotates the pixel-offset vector; in raster
    # coordinates (y down) the numeric map is the standard 2x2 matrix
    # [[cos, -sin], [sin, cos]], which is a visual rotation by -theta.
    rng = np.random.default_rng(14)
    for _ in range(200):
        dx, dy = rng.uniform(-2, 2, 2)
        z = rng.uniform(0.2, 3.0)
        theta = rng.uniform(-math.pi, math.pi)
        p0 = project(Pose(0, 0, z, 0.0), (dx, dy), DEFAULT)
        pt = project(Pose(0, 0, z, theta), (dx, dy), DEFAULT)
        u0 = np.array([p0.x - 320.0, p0.y - 180.0])
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array([[c, -s], [s, c]]) @ u0
        assert pt.x - 320.0 == pytest.approx(expected[0], abs=1e-9)
        assert pt.y - 180.0 == pytest.approx(expected[1], abs=1e-9)


@pytest.mark.parametrize("point,expected", [
    ((320.0, 180.0), True),
    ((320.0, -100.0), False),
    ((640.0, 0.0), False),   # upper bounds are exclusive
    ((0.0, 0.0), True),
    ((639.999, 359.999), True),
])
def test_in_frame_bounds(point, expected):
    assert in_frame(PixelPoint(*point), DEFAULT) is expected


def test_pixel_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PixelPoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        PixelPoint(0.0, float("inf"))


def test_frame_spec_validation():
    with pytest.raises(ValueError):
        FrameSpec(0, 360, 320.0)
    with pytest.raises(ValueError):
        FrameSpec(640, 360, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="focal_length must be positive and finite"):
            FrameSpec(640, 360, bad)


@pytest.mark.parametrize("width, height", [(640.5, 360), (640, 360.0), (True, 360), (640, -1)])
def test_frame_size_must_be_a_positive_integer(width, height):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        FrameSpec(width, height)


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(0, 0, -0.1, 0)
    with pytest.raises(ValueError):
        Pose(float("nan"), 0, 1, 0)


def test_ground_footprint_default_setup():
    half_w, half_h = ground_footprint(DEFAULT, 1.0)
    assert half_w == pytest.approx(1.0)
    assert half_h == pytest.approx(0.5625)
    with pytest.raises(GroundedError):
        ground_footprint(DEFAULT, 0.0)


def reference_projection(drone, point, frame, height):
    """The pinhole map written out: body offset (forward, right), then
    pixels = center + focal_length / depth * (right, -forward)."""
    dx, dy = point[0] - drone.x, point[1] - drone.y
    c, s = math.cos(drone.yaw), math.sin(drone.yaw)
    forward, right = c * dx + s * dy, s * dx - c * dy
    scale = frame.focal_length / (drone.z - height)
    return frame.width / 2.0 + scale * right, frame.height / 2.0 - scale * forward


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.02, 5.0), st.floats(-7.0, 7.0),
       st.lists(st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(0.0, 0.95)),
                min_size=1, max_size=6))
def test_render_disc_centers_equal_project_bit_exactly(x, y, z, yaw, offsets):
    # one marker per color near the drone, raised up to 0.95 of its altitude
    # except the first, which is on the ground and always in view
    drone = Pose(x, y, z, yaw)
    markers = [Marker((x + fx * z, y + fy * z), 0.05 * z, color, h * z * (i > 0))
               for i, ((fx, fy, h), color) in enumerate(zip(offsets, Color))]
    frame = render(drone, markers, DEFAULT)
    drawn = {d.code: d for d in frame.discs}
    assert drawn
    for m in markers:
        p = project(drone, m.position, DEFAULT, m.height)
        assert (p.x, p.y) == reference_projection(drone, m.position, DEFAULT, m.height)
        if m.color.value in drawn:
            disc = drawn[m.color.value]
            assert (disc.center.x, disc.center.y) == (p.x, p.y)
            assert disc.radius == DEFAULT.focal_length / (z - m.height) * m.radius


def test_render_raises_grounded_at_or_below_a_raised_marker():
    pad = Marker((0.0, 0.0), 0.1, Color.BLUE, 0.3)
    far = Marker((50.0, 0.0), 0.1, Color.PINK)     # out of view, on the ground
    for z in (0.3, 0.2):
        with pytest.raises(GroundedError):
            render(Pose(0.0, 0.0, z, 0.0), [far, pad], DEFAULT)
        with pytest.raises(GroundedError):
            project(Pose(0.0, 0.0, z, 0.0), pad.position, DEFAULT, pad.height)
    assert render(Pose(0.0, 0.0, 0.31, 0.0), [far, pad], DEFAULT).discs


def test_render_rejects_non_finite_projected_center():
    # finite inputs whose offset overflows, and an altitude so small that
    # the scale overflows
    cases = [(Pose(-1e308, 0.0, 1.0, 0.0), Marker((1e308, 0.0), 0.1, Color.PINK)),
             (Pose(0.0, 0.0, 5e-324, 0.0), Marker((0.0, 0.0), 0.1, Color.PINK))]
    for drone, marker in cases:
        with pytest.raises(ValueError, match="finite"):
            render(drone, [marker], DEFAULT)


def test_render_grounded_error_outranks_an_earlier_markers_overflow():
    # a camera at or below any marker raises GroundedError, even when an
    # earlier marker's centre or pixel radius is not finite
    pad = Marker((0.0, 0.0), 0.1, Color.BLUE, 2.0)
    cases = [(Pose(-1e308, 0.0, 1.0, 0.0), Marker((1e308, 0.0), 0.1, Color.PINK)),
             (Pose(0.0, 0.0, 1.0, 0.0), Marker((0.0, 0.0), 1e306, Color.PINK))]
    for drone, overflowing in cases:
        with pytest.raises(ValueError) as raised:
            render(drone, [overflowing], DEFAULT)
        assert not isinstance(raised.value, GroundedError)
        with pytest.raises(GroundedError):
            render(drone, [overflowing, pad], DEFAULT)
    # with every marker below the camera the first non-finite one is named
    drone = Pose(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="pixel radius"):
        render(drone, [Marker((0.0, 0.0), 1e306, Color.PINK),
                       Marker((0.0, 1e308), 1e-300, Color.PINK, 0.5)], DEFAULT)
