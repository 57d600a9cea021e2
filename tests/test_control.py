"""The proportional pixel controller: error math, deadband, saturation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visnav import (ControllerGains, PixelError, PixelPoint, compute_command,
                    pixel_error)

GAINS = ControllerGains()


def test_pixel_error_componentwise():
    e = pixel_error(PixelPoint(400, 200), PixelPoint(320, 180))
    assert (e.error_x, e.error_y) == (80.0, 20.0)


def test_pixel_error_identity():
    e = pixel_error(PixelPoint(320, 180), PixelPoint(320, 180))
    assert (e.error_x, e.error_y) == (0.0, 0.0)


def test_pixel_error_forward_target():
    e = pixel_error(PixelPoint(320, 80), PixelPoint(320, 180))
    assert (e.error_x, e.error_y) == (0.0, -100.0)


def test_zero_error_hovers():
    cmd = compute_command(PixelError(0, 0), GAINS)
    assert cmd.hovering
    assert cmd.vel_forward == 0.0 and cmd.vel_right == 0.0


def test_forward_marker_error_drives_forward():
    cmd = compute_command(PixelError(0, -100), GAINS)
    assert not cmd.hovering
    assert cmd.vel_forward == 0.05
    assert cmd.vel_right == 0.0


def test_mixed_error_exact_components():
    # norm sqrt(80^2 + 20^2) ~ 82.5 > 50, so not hovering
    cmd = compute_command(PixelError(80, 20), GAINS)
    assert not cmd.hovering
    assert cmd.vel_forward == -0.01
    assert cmd.vel_right == 0.04


def test_error_inside_threshold_hovers():
    # norm sqrt(30^2 + 30^2) ~ 42.4 <= 50
    cmd = compute_command(PixelError(30, 30), GAINS)
    assert cmd.hovering
    assert cmd.vel_forward == 0.0 and cmd.vel_right == 0.0


def test_proportionality_under_saturation():
    rng = np.random.default_rng(31)
    for _ in range(200):
        ex, ey = rng.uniform(-400, 400, 2)
        if math.hypot(ex, ey) <= GAINS.hover_threshold:
            continue
        c1 = compute_command(PixelError(ex, ey), GAINS)
        c2 = compute_command(PixelError(2 * ex, 2 * ey), GAINS)
        # doubling is exact in binary floating point
        assert c2.vel_forward == 2 * c1.vel_forward
        assert c2.vel_right == 2 * c1.vel_right


def test_hover_iff_within_threshold_straddling_property():
    rng = np.random.default_rng(32)
    n = 10_000
    norms = rng.uniform(0.0, 100.0, n)       # straddle the 50 px threshold
    angles = rng.uniform(0.0, 2 * math.pi, n)
    for r, a in zip(norms, angles):
        e = PixelError(r * math.cos(a), r * math.sin(a))
        cmd = compute_command(e, GAINS)
        assert cmd.hovering == (e.norm() <= GAINS.hover_threshold)
        if cmd.hovering:
            assert cmd.vel_forward == 0.0 and cmd.vel_right == 0.0


def test_saturation_clamps_speed():
    rng = np.random.default_rng(33)
    for _ in range(300):
        ex, ey = rng.uniform(-1e5, 1e5, 2)
        cmd = compute_command(PixelError(ex, ey), GAINS)
        assert cmd.speed() <= GAINS.max_speed + 1e-12
    big = compute_command(PixelError(0, -1e6), GAINS)
    assert big.speed() == pytest.approx(GAINS.max_speed)
    assert big.vel_forward == pytest.approx(GAINS.max_speed)


def test_direction_preserved_under_axis_map():
    # the error-to-command map is a similarity, so angles between command
    # vectors equal angles between the corresponding error vectors
    rng = np.random.default_rng(34)
    for _ in range(200):
        e1 = rng.uniform(-300, 300, 2)
        e2 = rng.uniform(-300, 300, 2)
        if min(np.hypot(*e1), np.hypot(*e2)) <= GAINS.hover_threshold:
            continue
        c1 = compute_command(PixelError(*e1), GAINS)
        c2 = compute_command(PixelError(*e2), GAINS)
        v1 = np.array([c1.vel_right, c1.vel_forward])
        v2 = np.array([c2.vel_right, c2.vel_forward])
        cos_err = np.dot(e1, e2) / (np.hypot(*e1) * np.hypot(*e2))
        cos_cmd = np.dot(v1, v2) / (np.hypot(*v1) * np.hypot(*v2))
        assert cos_cmd == pytest.approx(cos_err, abs=1e-9)


def test_command_magnitude_proportional_below_saturation():
    e = PixelError(60, -80)  # norm 100
    cmd = compute_command(e, GAINS)
    assert cmd.speed() == pytest.approx(GAINS.k * 100.0, rel=1e-12)


def test_literal_axis_map_flips_forward():
    gains = ControllerGains(literal_axes=True)
    cmd = compute_command(PixelError(0, -100), gains)
    assert cmd.vel_forward == -0.05   # flies away from a forward target
    assert cmd.vel_right == 0.0
    lateral = compute_command(PixelError(80, 0), gains)
    assert lateral.vel_right == 0.04  # lateral axis unchanged


def test_gains_validation():
    with pytest.raises(ValueError):
        ControllerGains(k=0.0)
    with pytest.raises(ValueError):
        ControllerGains(hover_threshold=-1.0)
    with pytest.raises(ValueError):
        ControllerGains(max_speed=0.0)


@pytest.mark.parametrize("key, value", [
    ("k", math.inf), ("k", math.nan),
    ("hover_threshold", math.inf), ("hover_threshold", math.nan),
    ("max_speed", math.inf), ("max_speed", math.nan),
    *[pytest.param(key, 10**400, id=f"{key}-10**400") for key in ("k", "hover_threshold",
                                                                    "max_speed")],
])
def test_gains_must_be_finite(key, value):
    with pytest.raises(ValueError, match=key):
        ControllerGains(**{key: value})


@pytest.mark.parametrize("switch", ["false", 0, 1, None])
def test_literal_axes_must_be_a_bool(switch):
    with pytest.raises(ValueError, match="literal_axes must be true or false"):
        ControllerGains(literal_axes=switch)


def test_pixel_error_rejects_non_finite():
    with pytest.raises(ValueError):
        PixelError(float("nan"), 0.0)


@st.composite
def gains_and_error(draw):
    """Valid gains plus an error whose norm lies inside the deadband, in the
    proportional band, or in saturation."""
    gains = draw(st.builds(ControllerGains, k=st.floats(1e-6, 1.0),
                           hover_threshold=st.floats(0.0, 500.0),
                           max_speed=st.floats(1e-3, 10.0), literal_axes=st.booleans()))
    hover, clamp = gains.hover_threshold, gains.max_speed / gains.k
    band = draw(st.sampled_from(((0.0, hover), (hover, max(hover, clamp)),
                                 (max(hover, clamp), 1e3 * max(hover, clamp, 1.0)))))
    norm = draw(st.floats(*band))
    angle = draw(st.floats(-math.pi, math.pi))
    return gains, norm * math.cos(angle), norm * math.sin(angle)


@settings(max_examples=300, deadline=None)
@given(gains_and_error())
def test_controller_is_odd_in_the_error(case):
    # the reversal rests on this: a reflected target negates the error and
    # so, bit for bit, the command
    gains, ex, ey = case
    pos = compute_command(PixelError(ex, ey), gains)
    neg = compute_command(PixelError(-ex, -ey), gains)
    assert (neg.vel_forward, neg.vel_right, neg.hovering) == \
        (-pos.vel_forward, -pos.vel_right, pos.hovering)
