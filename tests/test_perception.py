"""Rendering and blob detection over synthetic label frames."""

import contextlib
import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from visnav import (Campaign, Color, Detection, Frame, FrameSpec, GroundedError, Marker,
                    MissionKind, NoiseModel, PixelPoint, Pose, SimConfig, capture,
                    default_scenario, detect, frame_filename, make_world, perception, project,
                    render, run_campaign, write_ppm)
from visnav.perception import Markers

DEFAULT = FrameSpec()
HOVER = Pose(0.0, 0.0, 1.0, 0.0)


def detect_on_labels(labels, color, min_blob_size):
    """Full-grid reference for detect: the count and centroid of every
    pixel of the color in a label grid, from exact integer sums."""
    rows, cols = np.nonzero(labels == color.value)
    count = rows.size
    if count == 0 or count < min_blob_size:
        return None
    return Detection(color, PixelPoint(int(cols.sum()) / count, int(rows.sum()) / count), count)


def brute_force_centroid(labels, code):
    """Independent oracle: plain python loops and exact integer sums."""
    n = 0
    sx = 0
    sy = 0
    h, w = labels.shape
    for i in range(h):
        for j in range(w):
            if labels[i, j] == code:
                n += 1
                sx += j
                sy += i
    return n, (sx / n if n else None), (sy / n if n else None)


def test_render_no_markers_is_background():
    frame = render(HOVER, [], DEFAULT)
    assert not frame.labels.any()


def test_render_disc_below_drone_is_centered():
    # radius 0.0625 m from 1 m with focal 320 -> pixel radius exactly 20
    frame = render(HOVER, [Marker((0.0, 0.0), 0.0625, Color.PINK)], DEFAULT)
    det = detect(frame, Color.PINK)
    assert det is not None
    assert (det.center.x, det.center.y) == (320.0, 180.0)
    # pixel count close to the disc area
    assert abs(det.pixel_count - np.pi * 20 ** 2) < 80


def test_render_marker_outside_footprint_is_background():
    # footprint half-extent is 1 m sideways at 1 m altitude
    frame = render(HOVER, [Marker((0.0, -1.5), 0.06, Color.PINK)], DEFAULT)
    assert not frame.labels.any()
    assert detect(frame, Color.PINK) is None


def test_render_requires_airborne_camera():
    with pytest.raises(GroundedError):
        render(Pose(0, 0, 0.0, 0), [Marker((0, 0), 0.1, Color.PINK)], DEFAULT)


def test_detect_centroid_of_offset_disc():
    # place the marker so its projected center lands at pixel (100, 100)
    world = ((100 - 320) / 320.0, (180 - 100) / 320.0)  # right=x offset, fwd=-y offset
    p = project(HOVER, (world[1], -world[0]), DEFAULT)
    assert (round(p.x), round(p.y)) == (100, 100)
    frame = render(HOVER, [Marker((world[1], -world[0]), 0.0625, Color.BLUE)], DEFAULT)
    det = detect(frame, Color.BLUE)
    assert det is not None
    assert abs(det.center.x - 100.0) <= 0.5
    assert abs(det.center.y - 100.0) <= 0.5


def test_detect_absent_color_returns_none():
    frame = render(HOVER, [Marker((0.0, 0.0), 0.06, Color.PINK)], DEFAULT)
    assert detect(frame, Color.BLUE) is None


def test_clipped_disc_centroid_matches_brute_force_exactly():
    rng = np.random.default_rng(21)
    for _ in range(25):
        # push the marker partly past a frame edge
        fx = rng.uniform(0.50, 0.62) * rng.choice([-1, 1])
        ry = rng.uniform(0.9, 1.05) * rng.choice([-1, 1])
        marker = Marker((fx, ry), 0.08, Color.PINK)
        frame = render(HOVER, [marker], DEFAULT)
        n, cx, cy = brute_force_centroid(frame.labels, Color.PINK.value)
        det = detect(frame, Color.PINK, min_blob_size=1)
        if n == 0:
            assert det is None
            continue
        assert det is not None
        assert det.pixel_count == n
        assert det.center.x == cx   # exact: both sides are integer sums
        assert det.center.y == cy


def test_detector_matches_projection_for_visible_markers():
    rng = np.random.default_rng(22)
    for _ in range(300):
        z = rng.uniform(0.5, 2.0)
        radius = rng.uniform(0.02, 0.1) * z
        half_w = z * 320 / 320.0
        half_h = z * 180 / 320.0
        fwd = rng.uniform(-(half_h - radius - 0.02), half_h - radius - 0.02)
        right = rng.uniform(-(half_w - radius - 0.02), half_w - radius - 0.02)
        marker = Marker((fwd, -right), radius, Color.PINK)
        frame = render(Pose(0, 0, z, 0.0), [marker], DEFAULT)
        det = detect(frame, Color.PINK, min_blob_size=1)
        expected = project(Pose(0, 0, z, 0.0), marker.position, DEFAULT)
        assert det is not None
        assert abs(det.center.x - expected.x) <= 0.5
        assert abs(det.center.y - expected.y) <= 0.5


def test_detection_invariant_to_other_colors():
    lone = render(HOVER, [Marker((0.2, 0.1), 0.06, Color.PINK)], DEFAULT)
    crowded = render(HOVER, [
        Marker((0.2, 0.1), 0.06, Color.PINK),
        Marker((-0.3, 0.2), 0.08, Color.BLUE),
        Marker((0.4, -0.3), 0.05, Color.YELLOW),
    ], DEFAULT)
    d1 = detect(lone, Color.PINK)
    d2 = detect(crowded, Color.PINK)
    assert d1 == d2


def test_min_blob_size_monotonicity():
    frame = render(HOVER, [Marker((0.0, 0.0), 0.02, Color.PINK)], DEFAULT)
    sizes = [1, 5, 10, 50, 200, 10_000]
    found = [detect(frame, Color.PINK, min_blob_size=s) is not None for s in sizes]
    # once a threshold rejects the blob, every larger one must as well
    assert found == sorted(found, reverse=True)


def test_render_detect_bit_exact_determinism():
    markers = [Marker((0.3, -0.2), 0.07, Color.PINK), Marker((-0.1, 0.4), 0.05, Color.BLUE)]
    f1 = render(HOVER, markers, DEFAULT)
    f2 = render(HOVER, markers, DEFAULT)
    assert np.array_equal(f1.labels, f2.labels)
    assert f1.discs == f2.discs
    assert detect(f1, Color.PINK) == detect(f2, Color.PINK)


def test_overlapping_discs_nearest_marker_wins():
    # two overlapping markers: each pixel takes the color of the closer
    # center; exact-distance ties stay with the first marker in the list
    a = Marker((0.0, -0.05), 0.1, Color.PINK)
    b = Marker((0.0, 0.05), 0.1, Color.BLUE)
    frame = render(HOVER, [a, b], DEFAULT)
    pa = project(HOVER, a.position, DEFAULT)
    pb = project(HOVER, b.position, DEFAULT)
    rows, cols = np.nonzero(frame.labels)
    for i, j in zip(rows[::37], cols[::37]):
        da = (j - pa.x) ** 2 + (i - pa.y) ** 2
        db = (j - pb.x) ** 2 + (i - pb.y) ** 2
        expected = Color.PINK.value if da <= db else Color.BLUE.value
        assert frame.labels[i, j] == expected


def test_same_color_blobs_merge_into_one_centroid():
    # documented limitation: the detector averages all matching pixels
    frame = render(HOVER, [
        Marker((0.0, -0.4), 0.05, Color.PINK),
        Marker((0.0, 0.4), 0.05, Color.PINK),
    ], DEFAULT)
    det = detect(frame, Color.PINK)
    assert det is not None
    assert abs(det.center.x - 320.0) <= 1.0
    assert abs(det.center.y - 180.0) <= 1.0


def test_frame_shape_validation():
    # a frame is built from its spots only; its grid has the spec's shape
    with pytest.raises(TypeError):
        Frame(DEFAULT)
    spec = FrameSpec(48, 32, 24.0)
    labels = render(HOVER, [Marker((0.0, 0.0), 0.5, Color.PINK)], spec).labels
    assert (labels.shape, labels.dtype) == ((32, 48), np.uint8)


def test_write_ppm_format_and_determinism(tmp_path):
    frame = render(HOVER, [Marker((0.0, 0.0), 0.0625, Color.PINK)], DEFAULT)
    path = tmp_path / frame_filename(42)
    assert path.name == "frame_000042.ppm"
    write_ppm(frame, path)
    data = path.read_bytes()
    header, rest = data.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"640 360"
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == 640 * 360 * 3
    write_ppm(frame, tmp_path / "again.ppm")
    assert (tmp_path / "again.ppm").read_bytes() == data


def test_marker_radius_validation():
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            Marker((0, 0), bad, Color.PINK)


def test_marker_height_validation():
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError):
            Marker((0, 0), 0.1, Color.PINK, bad)


def test_marker_position_and_color_validation():
    for bad in ((0.0, math.nan), (math.inf, 0.0), (0.0, 0.0, 0.0), (0.0,), ("0", 0.0), None):
        with pytest.raises(ValueError, match="marker position"):
            Marker(bad, 0.1, Color.PINK)
    for bad in ("pink", 1, None):
        with pytest.raises(ValueError, match="marker color"):
            Marker((0, 0), 0.1, bad)


# Scenes of 1-6 discs placed in units of the ground footprint, so they
# overlap, repeat colors and cross the frame edges; altitudes go down to the
# last landing ticks and radii up to discs that fill the frame; some sit
# raised at 0.4 of the altitude: (altitude, yaw, [(fx, fy, radius, color, height), ...]).
DISC = st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3), st.floats(0.02, 3.0),
                 st.sampled_from(list(Color)), st.sampled_from([0.0, 0.0, 0.4]))
SCENES = st.tuples(st.floats(0.02, 2.0), st.floats(-math.pi, math.pi),
                   st.lists(DISC, min_size=1, max_size=6))


def _build(scene, spec):
    """Drone pose and markers of a drawn scene; offsets and radii scale with
    the footprint at the altitude drawn."""
    z, yaw, raw = scene
    half_w = z * spec.width / 2 / spec.focal_length
    half_h = z * spec.height / 2 / spec.focal_length
    markers = [Marker((fy * half_h, fx * half_w), r * half_h, color, h * z)
               for fx, fy, r, color, h in raw]
    return Pose(0.0, 0.0, z, yaw), markers


@settings(max_examples=150, deadline=None)
@given(SCENES)
def test_detect_on_rendered_frame_matches_detect_on_its_labels(scene):
    # one frame serves every detect: reading a frame changes nothing in it
    drone, markers = _build(scene, DEFAULT)
    frame = render(drone, markers, DEFAULT)
    labels = frame.labels
    for color in Color:
        for size in (1, 10):
            assert detect(frame, color, size) == detect_on_labels(labels, color, size)


def test_render_and_a_blind_detect_clip_no_disc():
    # a green detect sees no green spot; the yellow spot's clipped box is
    # empty (a third of a pixel wide, centered between two columns), which
    # a yellow detect finds by clipping that box alone; the yellow span
    # lies inside the pink box but holds no pixel, so a pink detect takes
    # the closed form and reads no disc either
    markers = [Marker((0.0, 0.0), 0.1, Color.PINK), Marker((0.1, 0.3), 0.05, Color.BLUE),
               Marker((0.0, -0.5 / 320), 0.001, Color.YELLOW)]
    clip, reads = Frame.discs.fget, []
    counted = property(lambda frame: reads.append(frame) or clip(frame))
    with mock.patch.object(Frame, "discs", counted):
        frame = render(HOVER, markers, DEFAULT)
        assert [spot[0] for spot in frame.spots] == [c.value for c in (Color.PINK, Color.BLUE,
                                                                         Color.YELLOW)]
        assert detect(frame, Color.GREEN) is None
        assert len(reads) == 0
        assert detect(frame, Color.YELLOW, 1) is None
        assert len(reads) == 0
        assert detect(frame, Color.PINK) is not None
        assert len(reads) == 0
    assert [d.code for d in frame.discs] == [Color.PINK.value, Color.BLUE.value]


def test_frame_is_an_immutable_value():
    markers = [Marker((0.0, -0.05), 0.1, Color.PINK), Marker((0.0, 0.05), 0.1, Color.BLUE)]
    frame = render(HOVER, markers, DEFAULT)
    assert Frame._fields == ("spec", "spots")
    for name in ("spec", "spots", "discs", "labels", "extra"):
        with pytest.raises(AttributeError):
            setattr(frame, name, None)
    discs, labels = frame.discs, frame.labels
    assert not hasattr(frame, "__dict__")    # nowhere to store a read
    assert frame.discs == discs and frame.labels is not labels
    assert np.array_equal(frame.labels, labels)
    assert frame == render(HOVER, markers, DEFAULT) == Frame(DEFAULT, frame.spots)


def test_write_ppm_after_a_blind_detect_matches_an_eagerly_clipped_frame(tmp_path):
    # overlapping discs, one across the frame edge; neither a blind detect
    # nor a read of the discs changes the bytes a frame writes
    markers = [Marker((0.0, -0.05), 0.1, Color.PINK), Marker((0.0, 0.05), 0.1, Color.BLUE),
               Marker((0.55, 0.2), 0.08, Color.RED)]
    blind = render(HOVER, markers, DEFAULT)
    assert detect(blind, Color.GREEN) is None
    eager = render(HOVER, markers, DEFAULT)
    assert eager.discs
    write_ppm(blind, tmp_path / "blind.ppm")
    write_ppm(eager, tmp_path / "eager.ppm")
    assert (tmp_path / "blind.ppm").read_bytes() == (tmp_path / "eager.ppm").read_bytes()


def _detect_all(frame):
    """detect on a rendered frame for every color and blob size, paired with
    the full-grid reference on its labels, and the number of _raster calls
    the rendered frame's detects made."""
    with mock.patch.object(perception, "_raster", wraps=perception._raster) as raster:
        got = [detect(frame, color, size) for color in Color for size in (1, 10)]
    want = [detect_on_labels(frame.labels, color, size) for color in Color for size in (1, 10)]
    return got, want, raster.call_count


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.floats(0.02, 2.0), st.floats(-math.pi, math.pi),
                 st.lists(DISC, min_size=1, max_size=1)))
def test_isolated_disc_moments_match_full_grid(scene):
    drone, markers = _build(scene, DEFAULT)
    frame = render(drone, markers, DEFAULT)
    got, want, _ = _detect_all(frame)
    assert got == want
    # a float or numpy scalar would compare equal: the sums must be exact ints
    assert all(type(v) is int for d in frame.discs for v in perception._moments(d) or ())


@contextlib.contextmanager
def _counting():
    """Record, while open, each _Disc clipped, each read of Frame.discs, and
    the _moments and _raster calls."""
    clipped, reads, disc, clip = [], [], perception._Disc, Frame.discs.fget
    with mock.patch.object(perception, "_Disc", lambda *f: clipped.append(disc(*f)) or clipped[-1]), \
            mock.patch.object(Frame, "discs", property(lambda f: reads.append(f) or clip(f))), \
            mock.patch.object(perception, "_moments", wraps=perception._moments) as moments, \
            mock.patch.object(perception, "_raster", wraps=perception._raster) as raster:
        yield clipped, reads, moments, raster


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.floats(0.02, 2.0), st.floats(-math.pi, math.pi),
                 st.lists(DISC, min_size=1, max_size=1)))
def test_a_one_disc_frame_goes_straight_to_the_closed_form(scene):
    # one _moments call on the one box clipped, and a raster, which reads
    # the frame's discs, only when _moments does not settle the disc
    drone, markers = _build(scene, DEFAULT)
    frame = render(drone, markers, DEFAULT)
    assume(frame.discs)
    disc, = frame.discs
    color = Color(disc.code)
    with _counting() as (clipped, reads, moments, raster):
        got = detect(frame, color, 1)
    unsettled = perception._moments(disc) is None
    assert moments.call_count == 1 and raster.call_count == len(reads) == unsettled
    assert clipped[:1] == [disc] and len(clipped) == 1 + unsettled
    assert got == detect_on_labels(frame.labels, color, 1)


def _spans_meet(a, b):
    """Whether two (code, x, y, radius) spots' real spans meet."""
    (_, x, y, r), (_, u, v, s) = a, b
    return u - s <= x + r and x - r <= u + s and v - s <= y + r and y - r <= v + s


# Scenes of 2-6 small discs, which often keep clear of each other.
SPARSE = st.tuples(st.floats(0.3, 2.0), st.floats(-math.pi, math.pi),
                   st.lists(st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3),
                                      st.floats(0.02, 0.3), st.sampled_from(list(Color)),
                                      st.sampled_from([0.0, 0.0, 0.4])),
                            min_size=2, max_size=6))


@settings(max_examples=150, deadline=None)
@given(SPARSE)
def test_a_hit_clear_of_other_spans_clips_only_the_watched_boxes(scene):
    # when no other spot's span meets a watched one, a settled hit clips
    # exactly the watched boxes and never reads the frame's discs
    drone, markers = _build(scene, DEFAULT)
    frame = render(drone, markers, DEFAULT)
    spots = frame.spots
    for color in Color:
        mine = [i for i, spot in enumerate(spots) if spot[0] == color.value]
        if not mine or any(_spans_meet(spots[i], spot) for i in mine
                           for j, spot in enumerate(spots) if j != i):
            continue
        want = [d for d in frame.discs if d.code == color.value]
        with _counting() as (clipped, reads, moments, raster):
            got = detect(frame, color, 1)
        assert got == detect_on_labels(frame.labels, color, 1)
        assert raster.call_count == len(reads) <= 1
        if not reads:
            assert clipped == want and moments.call_count == len(want)


@settings(max_examples=150, deadline=None)
@given(SCENES)
def test_a_watched_disc_is_rasterised_iff_its_box_overlaps_or_is_unsettled(scene):
    # per color: its detect draws the window exactly when one of its
    # clipped boxes overlaps any other clipped box or _moments does not
    # settle one of its discs, and it equals the full grid
    drone, markers = _build(scene, DEFAULT)
    frame = render(drone, markers, DEFAULT)
    discs = frame.discs
    boxes = [(d.code, (d.row0, d.row1, d.col0, d.col1)) for d in discs]
    for color in Color:
        overlap = any(a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]
                      for i, (code, a) in enumerate(boxes) if code == color.value
                      for j, (_, b) in enumerate(boxes) if j != i)
        unsettled = any(perception._moments(d) is None for d in discs if d.code == color.value)
        with mock.patch.object(perception, "_raster", wraps=perception._raster) as raster:
            got = detect(frame, color, 1)
        assert got == detect_on_labels(frame.labels, color, 1)
        assert raster.call_count == (overlap or unsettled)


@settings(max_examples=150, deadline=None)
@given(SCENES, st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi), st.sampled_from(list(Color)))
def test_overlapping_discs_fall_back_to_raster(scene, rho, angle, color):
    # one more disc, centered inside the first one
    z, yaw, raw = scene
    fx, fy, r, _, h = raw[0]
    aspect = DEFAULT.height / DEFAULT.width     # footprint units: fx in half widths
    extra = (fx + rho * r * math.cos(angle) * aspect, fy + rho * r * math.sin(angle), r, color, h)
    drone, markers = _build((z, yaw, raw + [extra]), DEFAULT)
    frame = render(drone, markers, DEFAULT)
    got, want, raster_calls = _detect_all(frame)
    assert got == want
    boxes = [(d.row0, d.row1, d.col0, d.col1) for d in frame.discs]
    if any(a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]
           for i, a in enumerate(boxes) for b in boxes[i + 1:]):
        assert raster_calls > 0


PINK, BLUE, YELLOW = Color.PINK.value, Color.BLUE.value, Color.YELLOW.value


@pytest.mark.parametrize("spots, rasters", [
    # the spans meet at column 110, where both discs cover pixel (110, 100)
    # and the tie-break gives it to pink
    (((PINK, 100.25, 100.0, 9.75), (BLUE, 119.75, 100.0, 9.75)), 4),
    # one ulp further apart, the blue box starts at column 111
    (((PINK, 100.25, 100.0, 9.75), (BLUE, math.nextafter(119.75, 121.0), 100.0, 9.75)), 0),
    # the spans share [110.2, 110.3], but the pink box ends at column 110
    # and the blue one starts at 111; the yellow spot inside the pink box
    # holds no pixel center, so its box is empty and overlaps nothing
    (((PINK, 100.4, 100.4, 9.9), (BLUE, 120.1, 100.4, 9.9), (YELLOW, 100.5, 100.5, 0.3)), 0),
])
def test_only_boxes_that_share_a_pixel_are_rasterised(spots, rasters):
    got, want, raster_calls = _detect_all(Frame(DEFAULT, spots))
    assert got == want and raster_calls == rasters


@settings(max_examples=100, deadline=None)
@given(st.floats(0.02, 2.0), st.floats(-math.pi, math.pi), st.floats(1.0, 15.0),
       st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(-0.05, 0.05))
def test_far_centered_disc_matches_full_grid(z, yaw, log_distance, angle, u, v, slack):
    # a disc centered 10 to 10**15 footprints away whose rim passes near
    # the frame point (u, v), in units of the half footprint
    half_w = z * DEFAULT.width / 2 / DEFAULT.focal_length
    half_h = z * DEFAULT.height / 2 / DEFAULT.focal_length
    distance = 10.0 ** log_distance * half_w
    rim = (v * half_h, u * half_w)
    center = (rim[0] + distance * math.cos(angle), rim[1] + distance * math.sin(angle))
    radius = math.hypot(center[0] - rim[0], center[1] - rim[1]) + slack * half_w
    drone = Pose(0.0, 0.0, z, yaw)
    frame = render(drone, [Marker(center, radius, Color.PINK)], DEFAULT)
    got, want, _ = _detect_all(frame)
    assert got == want


SMALL = FrameSpec(64, 48, 32.0)


@st.composite
def pixel_discs(draw):
    """(x, y, radius) of a disc on SMALL whose rim passes near a pixel in or
    just off the frame, so its center lies off any edge once the radius
    outgrows the frame.  Each center coordinate is snapped to an integer or
    a half-integer, or left as drawn, then moved by up to one ulp."""
    radius = draw(st.floats(0.3, 3000.0) | st.integers(1, 6000).map(lambda k: k / 2)
                  | st.integers(1, 40).map(float))
    angle = draw(st.floats(0.0, 2 * math.pi))
    rim = (draw(st.floats(-2.0, SMALL.width + 1.0)), draw(st.floats(-2.0, SMALL.height + 1.0)))
    center = []
    for v in (rim[0] + radius * math.cos(angle), rim[1] + radius * math.sin(angle)):
        frac = draw(st.sampled_from([0.0, 0.5, None]))
        v = v if frac is None else math.floor(v) + frac
        toward = draw(st.sampled_from([None, -math.inf, math.inf]))
        center.append(v if toward is None else math.nextafter(v, toward))
    return center[0], center[1], radius


@settings(max_examples=300, deadline=None)
@given(pixel_discs())
# discs whose probe pass does not settle, so _moments returns None: empty
# tangent rows (the top and bottom rows reach no pixel center), rows wholly
# left of the clipped box, and sqrt estimates one column off.  At x = 32 +
# 1 ulp the tangent rows cover column 32 but their first column is estimated
# at 33; at y = 11 + 1 ulp row 3 covers column 13 but its first is put at 14.
@example((32.5, 24.0, 5.0))
@example((-3.5, 24.0, 5.0))
@example((math.nextafter(32.0, math.inf), 24.0, 5.0))
@example((28.0, math.nextafter(11.0, math.inf), 17.0))
def test_disc_moments_match_its_raster(disc):
    x, y, radius = disc
    frame = Frame(SMALL, ((Color.PINK.value, x, y, radius),))
    discs = frame.discs
    assume(discs)
    d, = discs
    region = perception._raster(discs, (d.row0, d.row1, d.col0, d.col1))
    moments = perception._moments(d)
    assert moments is None or moments == perception._label_moments(region, d.code, d.row0, d.col0)
    assert moments is None or all(type(v) is int for v in moments)
    # settled or rasterised, detect answers as the full grid does
    assert detect(frame, Color.PINK, 1) == detect_on_labels(frame.labels, Color.PINK, 1)


@pytest.mark.parametrize("disc", [
    (32.0, 24.0, 40.0),     # covers the frame: every row runs past both box edges
    (0.25, 24.5, 10.0),     # cut by the left edge
    (63.5, 47.75, 12.5),    # cut by the right and bottom edges
])
def test_a_disc_cut_by_the_frame_settles_with_an_outer_probe_covered(disc):
    # the column past a cut edge is inside the disc, so its outer probe is
    # covered and the quick all-inner-none-outer test fails; the probe lies
    # at the box edge, so the fallback test still settles the disc
    x, y, radius = disc
    d, = Frame(SMALL, ((Color.PINK.value, x, y, radius),)).discs
    row = round(y) if d.row0 <= round(y) < d.row1 else d.row1 - 1
    assert (d.col0 - 1 - x) ** 2 + (row - y) ** 2 <= radius ** 2 or \
        (d.col1 - x) ** 2 + (row - y) ** 2 <= radius ** 2
    region = perception._raster((d,), (d.row0, d.row1, d.col0, d.col1))
    moments = perception._moments(d)
    assert moments is not None
    assert moments == perception._label_moments(region, d.code, d.row0, d.col0)


def test_one_probe_pass_settles_almost_every_disc_the_missions_watch():
    # the closed form earns its place only while it nearly always answers:
    # each disc it leaves unsettled costs detect a raster window instead
    moments, results = perception._moments, []

    def counting(disc):
        results.append(moments(disc))
        return results[-1]

    with mock.patch.object(perception, "_moments", counting):
        for kind in MissionKind:
            run_campaign(Campaign(default_scenario(kind.value), trials=5, base_seed=0))
    unsettled = sum(r is None for r in results)
    assert results and unsettled < 0.02 * len(results), (unsettled, len(results))


@pytest.mark.parametrize("z", [0.3, 0.1, 0.05])
def test_landing_pad_centroid_matches_brute_force(z):
    # the 0.1 m home pad under a landing vehicle, slightly off center and
    # yawed: at 0.1 m it reaches the frame edges, at 0.05 m it covers them all
    drone = Pose(0.004, -0.003, z, 0.2)
    frame = render(drone, [Marker((0.0, 0.0), 0.1, Color.BLUE)], DEFAULT)
    n, cx, cy = brute_force_centroid(frame.labels, Color.BLUE.value)
    det = detect(frame, Color.BLUE)
    assert det is not None
    assert (det.pixel_count, det.center.x, det.center.y) == (n, cx, cy)
    if z == 0.05:
        assert n == DEFAULT.width * DEFAULT.height


def nearest_disc_oracle(drone, markers, spec):
    """Plain-python labels: each pixel takes the color of the nearest marker
    whose projected disc covers it, exact ties to the earliest marker."""
    discs = []
    for m in markers:
        c = project(drone, m.position, spec, m.height)
        r = spec.focal_length / (drone.z - m.height) * m.radius
        discs.append((c.x, c.y, r * r, m.color.value))
    labels = np.zeros((spec.height, spec.width), dtype=np.uint8)
    for i in range(spec.height):
        for j in range(spec.width):
            best = None
            for cx, cy, r2, code in discs:
                dx, dy = j - cx, i - cy
                d2 = dx * dx + dy * dy
                if d2 <= r2 and (best is None or d2 < best):
                    best = d2
                    labels[i, j] = code
    return labels


@settings(max_examples=150, deadline=None)
@given(SCENES)
def test_labels_match_per_pixel_nearest_disc_oracle(scene):
    spec = FrameSpec(48, 32, 24.0)
    drone, markers = _build(scene, spec)
    labels = render(drone, markers, spec).labels
    assert np.array_equal(labels, nearest_disc_oracle(drone, markers, spec))


#: Frames for the index tests: default, small, one-pixel, flat, tall, and
#: one whose right edge is not exact as a float.
INDEX_SPECS = [DEFAULT, FrameSpec(64, 36, 32.0), FrameSpec(1, 1, 0.5), FrameSpec(640, 1, 1e3),
               FrameSpec(3, 200, 5.0), FrameSpec(2**53 + 4, 2, 1e3)]


def render_every_marker(drone, markers, spec):
    """Reference render: project, check and cull every Marker in order, with
    integer frame edges."""
    x0, y0, z = drone.x, drone.y, drone.z
    if z <= 0:
        raise GroundedError("cannot render with the camera on the ground")
    c, s = math.cos(drone.yaw), math.sin(drone.yaw)
    w, h, f = spec.width, spec.height, spec.focal_length
    spots = []
    for m in markers:
        if z <= m.height:
            raise GroundedError("projection undefined with the camera not above the point")
        dx, dy = m.position[0] - x0, m.position[1] - y0
        scale = f / (z - m.height)
        x = w / 2.0 + scale * (s * dx - c * dy)
        y = h / 2.0 - scale * (c * dx + s * dy)
        pr = scale * m.radius
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(pr * pr)):
            if any(z <= other.height for other in markers):
                raise GroundedError("projection undefined with the camera not above the point")
            if math.isfinite(x) and math.isfinite(y):
                raise ValueError(f"marker pixel radius {pr!r} is too large to draw")
            raise ValueError(f"projected marker center must be finite, got ({x!r}, {y!r})")
        if not (x + pr < 0 or y + pr < 0 or x - pr > w - 1 or y - pr > h - 1):
            spots.append((m.color.value, x, y, pr))
    return Frame(spec, tuple(spots))


@st.composite
def indexed_scenes(draw):
    """A FrameSpec, a pose of any yaw and altitude, 1-60 markers (some
    raised, and at times one at or above the camera, 1e3 m and more off in
    x) and maybe a pad (x, y, radius, height).  Every coordinate of a scene
    lies within twice the frame's footprint, 4 m, 1e6 m or 1e300 m, and its
    radii from 1e-3 m up to 0.1, 0.3 or 10 m."""
    spec = draw(st.sampled_from(INDEX_SPECS))
    z = draw(st.floats(0.05, 3.0) | st.floats(0.05, 30.0) | st.floats(0.0, 1e300))
    bound = draw(st.sampled_from([None, 4.0, 1e6, 1e300]))
    bound = bound or 2 * z * max(spec.width, spec.height) / spec.focal_length
    coord = st.floats(-bound, bound)
    radius = st.floats(1e-3, draw(st.sampled_from([0.1, 0.3, 10.0])))
    drone = Pose(draw(coord), draw(coord), z, draw(st.floats(-10.0, 10.0)))
    height = (st.just(0.0) | st.floats(0.0, 0.95)).map(lambda u: u * z)
    n = draw(st.integers(1, 60))
    markers = draw(st.lists(st.builds(lambda x, y, r, c, h: Marker((x, y), r, c, h), coord,
                                      coord, radius, st.sampled_from(list(Color)), height),
                            min_size=n, max_size=n))
    if draw(st.sampled_from([False, False, False, True])):
        far = 1e3 * (1 + z)
        blocker = Marker((drone.x + far if drone.x < 0 else drone.x - far, drone.y),
                         draw(radius), Color.RED, z + draw(st.floats(0.0, 3.0)))
        markers.insert(draw(st.integers(0, len(markers))), blocker)
    pad = draw(st.none() | st.tuples(coord, coord, radius, height))
    return drone, markers, spec, pad


def render_outcome(draw, *args):
    """What ``draw`` returns, or the type and message of what it raises."""
    try:
        return draw(*args)
    except ValueError as e:     # GroundedError is one
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(indexed_scenes())
# a raised marker 5 m off in x would project 1e300 m off in y to -inf: no skip
@example((HOVER, [Marker((0.0, 0.0), 0.05, Color.PINK)] * 8
          + [Marker((5.0, 1e300), 0.05, Color.RED, 1.0 - 1e-10)], DEFAULT, None))
# a tall frame at yaw 0 reaches 20 m along x
@example((HOVER, [Marker((0.0, 0.0), 0.05, Color.PINK)] * 8
          + [Marker((10.0, 0.0), 0.05, Color.RED)], FrameSpec(3, 200, 5.0), None))
def test_an_indexed_render_equals_projecting_every_marker(scene):
    # the pad goes in as a plain row, against a blue Marker after the rest;
    # a bare tuple takes render's own full scan
    drone, markers, spec, pad = scene
    indexed = Markers(markers)
    assert (indexed._view[-1] is None) == (len(markers) < Markers._INDEXED_FROM)
    every, row = tuple(markers), None
    if pad is not None:
        every, row = (*every, Marker(pad[:2], pad[2], Color.BLUE, pad[3])), (Color.BLUE.value, *pad)
    assert render_outcome(render, drone, indexed, spec, row) == \
        render_outcome(render_every_marker, drone, every, spec)
    assert render_outcome(render, drone, every, spec) == \
        render_outcome(render_every_marker, drone, every, spec)


@pytest.mark.parametrize("n", [Markers._INDEXED_FROM - 1, Markers._INDEXED_FROM, 40])
def test_a_snapshot_and_a_bare_tuple_capture_what_the_world_captures(n):
    # markers every 0.1 m along x, beside the path, on either side of the
    # count rule; a bare tuple assigned to a world projects every marker
    markers = [Marker((0.1 * k - 1.0, 0.4 * (-1) ** k), 0.05, list(Color)[k % 6])
               for k in range(n)]
    cfg = SimConfig(noise=NoiseModel.zero())
    world = make_world(0, markers, drone=Pose(0.0, 0.0, 1.0, 0.3))
    snap, bare = copy.deepcopy(world), copy.deepcopy(world)
    bare.markers = tuple(markers)
    assert type(snap.markers) is Markers and snap.markers == world.markers == bare.markers
    assert (snap.markers._view[-1] is None) == (n < Markers._INDEXED_FROM)
    for x in (-2.0, -0.5, 0.0, 0.7, 1.9, 4.0):
        for w in (world, snap, bare):
            w.drone = Pose(x, 0.1, 1.0, 0.3)
        assert capture(snap, cfg) == capture(world, cfg) == capture(bare, cfg)
