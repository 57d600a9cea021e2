"""Synthetic bottom-camera frames and color-blob detection.

Markers are flat colored discs, on the ground plane or raised (the
carrier's pad).  Pixels carry a color-class label instead of RGB values:
the markers are assumed distinctively colored, so color segmentation is
modeled as exact classification and detection reduces to counting labeled
pixels and taking their centroid.  Absence of a blob is a value (None),
not an error.

A frame is the immutable (spec, spots) value render() returns: render()
projects, checks and culls every marker at once and keeps each survivor
as a plain (code, x, y, radius) spot.  Frame.discs clips the spots' boxes
and Frame.labels draws the whole grid, on every read, storing nothing.
detect() of a color with no spot returns None without clipping a box.
Otherwise it computes the count and centroid of isolated discs (no other
drawn disc's box overlaps theirs) in closed form, from per-row span
moments: one probe pass of the raster's own test settles a disc's
sqrt-estimated row ends.  A watched disc drawn alone goes straight to
that closed form.  An overlap, or a disc that pass does not
settle, is rasterised: the window around the watched color's discs, where
the nearest-disc tie-break decides each pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import FrameSpec, GroundedError, PixelPoint, Pose

BACKGROUND = 0

DEFAULT_MIN_BLOB_SIZE = 10


class Color(Enum):
    """Closed registry of marker color classes; 0 is reserved for background."""

    PINK = 1
    BLUE = 2
    RED = 3
    GREEN = 4
    YELLOW = 5
    ORANGE = 6


#: RGB values used when dumping frames to PPM files.
PPM_COLORS = {
    BACKGROUND: (34, 34, 34),
    Color.PINK.value: (255, 105, 180),
    Color.BLUE.value: (40, 90, 235),
    Color.RED.value: (220, 50, 40),
    Color.GREEN.value: (60, 170, 75),
    Color.YELLOW.value: (250, 210, 40),
    Color.ORANGE.value: (255, 140, 0),
}


@dataclass(frozen=True)
class Marker:
    """Colored disc lying flat at ``height`` above the ground plane."""

    position: tuple[float, float]
    radius: float
    color: Color
    height: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.color, Color):
            raise ValueError(f"marker color must be a Color, got {self.color!r}")
        try:
            x, y = self.position
            finite = math.isfinite(x) and math.isfinite(y)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ValueError(f"marker position must be finite (x, y), got {self.position!r}")
        if not 0 < self.radius < math.inf:
            raise ValueError("marker radius must be positive and finite")
        if not 0 <= self.height < math.inf:
            raise ValueError("marker height must be finite and >= 0")


class _Disc(NamedTuple):
    """A drawn marker: color code, pixel center (x, y) and radius, and its
    box clipped to the frame as half-open rows [row0, row1) and columns
    [col0, col1)."""

    code: int
    x: float
    y: float
    radius: float
    row0: int
    row1: int
    col0: int
    col1: int


def _raster(discs: Sequence[_Disc], window: tuple[int, int, int, int]) -> np.ndarray:
    """Label grid of the half-open frame window (row0, row1, col0, col1): each
    pixel takes the color of the nearest disc covering its integer
    coordinates, exact-distance ties to the earliest disc."""
    wr0, wr1, wc0, wc1 = window
    labels = np.zeros((wr1 - wr0, wc1 - wc0), dtype=np.uint8)
    parts = [(d, max(d.row0, wr0), min(d.row1, wr1), max(d.col0, wc0), min(d.col1, wc1))
             for d in discs]
    parts = [p for p in parts if p[1] < p[2] and p[3] < p[4]]
    best_d2 = np.full(labels.shape, np.inf)
    for disc, r0, r1, c0, c1 in parts:
        xs = np.arange(c0, c1, dtype=np.float64) - disc.x
        ys = np.arange(r0, r1, dtype=np.float64) - disc.y
        d2 = xs[None, :] ** 2 + ys[:, None] ** 2
        cut = (slice(r0 - wr0, r1 - wr0), slice(c0 - wc0, c1 - wc0))
        best = best_d2[cut]
        win = (d2 <= disc.radius * disc.radius) & (d2 < best)
        best[win] = d2[win]
        labels[cut][win] = disc.code
    return labels


#: Offsets from each span end to its outer and its inner probe column.
_PROBES = np.array([[[1.0]], [[0.0]]])


def _moments(disc: _Disc) -> Optional[tuple[int, int, int]]:
    """(count, sum of rows, sum of columns) of the pixels _raster gives
    ``disc`` alone, in closed form, or None when one probe pass cannot
    prove them.

    In each row of the box the raster's test (c - cx)**2 + (r - cy)**2 <=
    radius**2 is monotone in c on either side of the center, so the row
    covers one contiguous span.  A sqrt estimates both ends, and one pass
    probes, with that same float test, the column just inside each end and
    the one just outside: the estimate is settled when every inside column
    is covered and no outside one short of the box edge is.  Any other row
    (an empty one, or an estimate one column off) leaves the disc unsettled,
    and detect() rasterises it.  The span sums are integer arithmetic series.
    """
    _, cx, cy, radius, r0, r1, c0, c1 = disc
    r2 = radius * radius
    # the ends are signed, outward positive: (-first column, last column);
    # per end: the center and the box edge it stops at (indexed: unpacking
    # an array costs ~1 µs)
    k = np.array((-cx, cx, -c0, c1 - 1)).reshape(2, 2, 1)
    center, edge = k[0], k[1]
    rows = np.arange(r0, r1, dtype=np.float64)
    dy2 = (rows - cy) ** 2
    ends = np.abs(r2 - dy2)
    ends = np.floor(np.sqrt(ends, out=ends) + center)
    np.fmin(ends, edge, out=ends)     # fmin: a NaN estimate (inf - inf) takes the edge
    probes = (ends + _PROBES - center) ** 2 + dy2 <= r2
    outer, inner = probes[0], probes[1]
    # the box-edge mask is built only when some outer probe is covered,
    # which most discs never have
    if not inner.all() or (outer.any() and (outer & (ends < edge)).any()):
        return None
    n = ends[0] + ends[1] + 1.0
    sums = ends @ n     # (-sum of first columns, sum of last columns)
    return int(n.sum()), int(rows @ n), int(sums[1] - sums[0]) // 2


class Frame(NamedTuple):
    """What render() drew: the (code, x, y, radius) spots it kept, in
    marker order.  ``discs`` clips their boxes, dropping a spot whose
    clipped box is empty, and ``labels`` rasterises the discs into a
    (height, width) uint8 grid; both compute on every read."""

    spec: FrameSpec
    spots: tuple[tuple[int, float, float, float], ...]

    @property
    def discs(self) -> tuple[_Disc, ...]:
        w, h = self.spec.width, self.spec.height
        ceil, floor = math.ceil, math.floor
        discs = []
        for code, x, y, r in self.spots:
            col0 = max(0, ceil(x - r))
            col1 = min(w, floor(x + r) + 1)
            row0 = max(0, ceil(y - r))
            row1 = min(h, floor(y + r) + 1)
            if col0 < col1 and row0 < row1:
                discs.append(_Disc(code, x, y, r, row0, row1, col0, col1))
        return tuple(discs)

    @property
    def labels(self) -> np.ndarray:
        return _raster(self.discs, (0, self.spec.height, 0, self.spec.width))


@dataclass(frozen=True)
class Detection:
    """A detected blob: its color class, pixel centroid and size."""

    color: Color
    center: PixelPoint
    pixel_count: int


def render(drone: Pose, markers: Sequence[Marker], frame_spec: FrameSpec) -> Frame:
    """Synthesize the bottom-camera view of markers: each pixel takes the
    color of the nearest marker whose projected disc covers it, or
    background.  Discs project as discs (nadir camera, level markers) with
    pixel radius = focal_length * radius / (drone.z - marker.height).
    One pass projects each marker (project()'s formula, inlined), checks
    it, and culls it or keeps it as a spot; the returned Frame is those
    spots, and clips their boxes only when its discs are read.

    Raises GroundedError when the camera is not above every marker, else
    ValueError for the first marker whose projected center is not finite
    or whose pixel radius is too large for the raster's distance test.
    """
    x0, y0, z = drone.x, drone.y, drone.z
    if z <= 0:
        raise GroundedError("cannot render with the camera on the ground")
    c, s = math.cos(drone.yaw), math.sin(drone.yaw)
    w, h, f = frame_spec.width, frame_spec.height, frame_spec.focal_length
    cx, cy = w / 2.0, h / 2.0
    isfinite = math.isfinite
    spots = []
    for marker in markers:
        if z <= marker.height:
            raise GroundedError("projection undefined with the camera not above the point")
        px, py = marker.position
        dx, dy = px - x0, py - y0
        scale = f / (z - marker.height)
        x = cx + scale * (s * dx - c * dy)
        y = cy - scale * (c * dx + s * dy)
        pr = scale * marker.radius
        if not (isfinite(x) and isfinite(y) and isfinite(pr * pr)):
            if any(z <= m.height for m in markers):
                raise GroundedError("projection undefined with the camera not above the point")
            if isfinite(x) and isfinite(y):
                raise ValueError(f"marker pixel radius {pr!r} is too large to draw")
            raise ValueError(f"projected marker center must be finite, got ({x!r}, {y!r})")
        if x + pr < 0 or y + pr < 0 or x - pr > w - 1 or y - pr > h - 1:
            continue  # wholly off the frame: its clipped box would be empty
        spots.append((marker.color._value_, x, y, pr))
    return Frame(frame_spec, tuple(spots))


def _label_moments(region: np.ndarray, code: int, row0: int, col0: int) -> tuple[int, int, int]:
    """(count, sum of rows, sum of columns) of the pixels labelled ``code`` in
    a region whose top-left pixel is (row0, col0) of the frame."""
    rows, cols = np.nonzero(region == np.uint8(code))
    count = int(rows.size)
    return count, int(rows.sum()) + count * row0, int(cols.sum()) + count * col0


def detect(frame: Frame, color: Color, min_blob_size: int = DEFAULT_MIN_BLOB_SIZE) -> Optional[Detection]:
    """Find the blob of a color class, or None when too few pixels match.

    The centroid is the plain mean of matching pixel coordinates (computed
    from exact integer sums), so two same-colored blobs yield the centroid
    of their union.  None signals absence, not failure: a color with no
    spot in the frame returns None at once, before any box is clipped.
    The color's discs are summed in closed form when no other drawn disc's
    box overlaps theirs and one probe pass settles each of them; otherwise
    only the box around them is rasterised, for the nearest-disc tie-break.
    A frame whose only drawn disc is the watched one hands that disc to the
    closed form at once: it has no overlap to test and no sums to add.
    """
    code = color._value_
    for spot in frame.spots:
        if spot[0] == code:
            break
    else:
        return None     # blind: no box is clipped
    discs = frame.discs
    if len(discs) == 1 and discs[0].code == code:   # alone: no other box to overlap
        watched = discs
        moments = _moments(discs[0])
    else:
        watched = [d for d in discs if d.code == code]
        if not watched:
            return None
        moments = None
        if not any(w.row0 < d.row1 and d.row0 < w.row1 and w.col0 < d.col1 and d.col0 < w.col1
                   for w in watched for d in discs if d is not w):
            parts = [_moments(d) for d in watched]
            if None not in parts:
                moments = [sum(m) for m in zip(*parts)]
    if moments is None:
        row0, row1 = min(d.row0 for d in watched), max(d.row1 for d in watched)
        col0, col1 = min(d.col0 for d in watched), max(d.col1 for d in watched)
        moments = _label_moments(_raster(discs, (row0, row1, col0, col1)), code, row0, col0)
    count, sum_rows, sum_cols = moments
    if count == 0 or count < min_blob_size:
        return None
    # exact integer sums in frame coordinates, then a single division
    return Detection(color, PixelPoint(sum_cols / count, sum_rows / count), count)


def _ppm_header(spec: FrameSpec) -> bytes:
    return f"P6\n{spec.width} {spec.height}\n255\n".encode("ascii")


def ppm_size(spec: FrameSpec) -> int:
    """Bytes write_ppm writes for one frame of ``spec``: header plus 3 per pixel."""
    return len(_ppm_header(spec)) + 3 * spec.width * spec.height


def write_ppm(frame: Frame, path: str | Path) -> None:
    """Dump a frame as a binary PPM image using the PPM_COLORS table."""
    lut = np.zeros((256, 3), dtype=np.uint8)
    for code, rgb in PPM_COLORS.items():
        lut[code] = rgb
    rgb = lut[frame.labels]
    Path(path).write_bytes(_ppm_header(frame.spec) + rgb.tobytes())


def frame_filename(step: int) -> str:
    """Canonical dump name for the frame captured at a simulation step."""
    return f"frame_{step:06d}.ppm"
