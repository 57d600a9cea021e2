"""Synthetic bottom-camera frames and color-blob detection.

Markers are flat colored discs, on the ground plane or raised (the
carrier's pad).  Pixels carry a color-class label instead of RGB values:
the markers are assumed distinctively colored, so color segmentation is
modeled as exact classification and detection reduces to counting labeled
pixels and taking their centroid.  Absence of a blob is a value (None),
not an error.

Perception is exact: every frame, detection and error equals a naive
camera that projects every marker through geometry.project, gives each
pixel of the full grid the color of the nearest disc covering it, and
averages the watched color's pixels.  render, detect and _moments skip
only work that cannot change that answer.  In tests/test_perception.py,
test_a_mission_flies_the_same_with_a_naive_full_grid_camera flies
generated missions with both cameras and requires the same rows, and
test_an_indexed_render_equals_projecting_every_marker the same errors.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

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
    """Colored disc lying flat at ``height`` above the ground plane.

    ``position`` is stored as a tuple of two floats, a copy of the sequence
    given, so a marker is hashable and a later change to that sequence does
    not move it."""

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
        object.__setattr__(self, "position", (float(x), float(y)))


class Markers(tuple):
    """An immutable tuple of Markers with render()'s ``_view``, built once:
    (rows, top, index), each marker's plain (code, x, y, radius, height)
    row, the highest marker's height (0.0 for none) and, from _INDEXED_FROM
    markers on, an index (x-sorted xs and row positions, the lowest marker,
    the largest radius and |coordinate|), else None.  Raises TypeError
    naming the first item that is not a Marker."""

    _INDEXED_FROM = 8   # the measured crossover: below it a full scan is cheaper

    def __new__(cls, markers: Iterable[Marker] = ()) -> Markers:
        self = super().__new__(cls, markers)
        for i, m in enumerate(self):
            if not isinstance(m, Marker):
                raise TypeError(f"markers[{i}] must be a Marker, got {type(m).__name__}")
        rows = tuple([(m.color._value_, *m.position, m.radius, m.height) for m in self])
        object.__setattr__(self, "_view", (rows, max((r[4] for r in rows), default=0.0),
            None if len(rows) < cls._INDEXED_FROM else (
                *zip(*sorted((r[1], i) for i, r in enumerate(rows))), min(r[4] for r in rows),
                max(r[3] for r in rows), max(abs(v) for r in rows for v in r[1:3]))))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Markers are immutable: cannot set {name!r}")


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
    covers one contiguous span.  A sqrt estimates both ends, held to the
    box, and one pass probes, with that same float test, the column just
    inside each end and the one just outside.  Two counts settle the
    estimate: no outside column covered, and every inside one covered.
    When they do not (a frame edge can cut a row short of its span), the
    disc is settled if every inside column is covered and no outside one
    short of the box edge is.  Any other row (an empty one, or an estimate
    one column off) leaves the disc unsettled, and detect() rasterises it.
    The span sums are integer arithmetic series, read off one Gram product.
    """
    _, cx, cy, radius, r0, r1, c0, c1 = disc
    r2 = radius * radius
    # the ends are signed, outward positive: (-first column, last column);
    # per end: the center and the box edge it stops at (indexed: unpacking
    # an array costs ~1 µs)
    k = np.array((-cx, cx, -c0, c1 - 1)).reshape(2, 2, 1)
    center, edge = k[0], k[1]
    # per row, every factor of the sums: the two ends, the row and 1
    terms = np.empty((4, r1 - r0))
    terms[2] = np.arange(r0, r1)
    terms[3] = 1.0
    ends, rows = terms[:2], terms[2]
    dy2 = rows - cy
    dy2 **= 2
    root = np.subtract(r2, dy2)
    np.abs(root, out=root)
    np.sqrt(root, out=root)
    np.add(root, center, out=ends)
    np.floor(ends, out=ends)
    np.fmin(ends, edge, out=ends)     # fmin: a NaN estimate (inf - inf) takes the edge
    d2 = ends + _PROBES
    d2 -= center
    d2 **= 2
    d2 += dy2
    probes = d2 <= r2
    outer, inner = probes[0], probes[1]
    # settled at once when no outer probe is covered and every inner one is;
    # the box-edge mask is built only when that fails, which most discs never do
    if np.count_nonzero(outer) or np.count_nonzero(inner) != inner.size:
        if not inner.all() or (outer & (ends < edge)).any():
            return None
    # with lo = -first column and hi = last, a row holds lo + hi + 1 pixels
    # whose columns sum to (hi - lo) * (lo + hi + 1) / 2 = (hi**2 - lo**2 +
    # hi - lo) / 2: every sum is of integers, exact in float64 in any order,
    # so one Gram product holds them all
    (lo2, _, lo_row, lo), (_, hi2, hi_row, hi), (_, _, _, row), _ = \
        np.dot(terms, terms.T).tolist()
    return int(lo + hi) + r1 - r0, int(lo_row + hi_row + row), int(hi2 - lo2 + hi - lo) // 2


def _clip(spots: Sequence[tuple[int, float, float, float]], spec: FrameSpec) -> list[_Disc]:
    """The _Disc of each (code, x, y, radius) spot, in order, dropping a spot
    whose box clipped to the frame is empty: Frame.discs' rule and detect's."""
    w, h = spec.width, spec.height
    ceil, floor = math.ceil, math.floor
    discs = []
    for code, x, y, r in spots:
        col0, col1 = ceil(x - r), floor(x + r) + 1
        row0, row1 = ceil(y - r), floor(y + r) + 1
        col0, row0 = max(col0, 0), max(row0, 0)
        col1, row1 = min(col1, w), min(row1, h)
        if col0 < col1 and row0 < row1:
            discs.append(_Disc(code, x, y, r, row0, row1, col0, col1))
    return discs


class Frame(NamedTuple):
    """What render() drew: the (code, x, y, radius) spots it kept, in
    marker order.  ``discs`` clips their boxes, dropping a spot whose
    clipped box is empty, and ``labels`` rasterises the discs into a
    (height, width) uint8 grid; both compute on every read."""

    spec: FrameSpec
    spots: tuple[tuple[int, float, float, float], ...]

    @property
    def discs(self) -> tuple[_Disc, ...]:
        return tuple(_clip(self.spots, self.spec))

    @property
    def labels(self) -> np.ndarray:
        return _raster(self.discs, (0, self.spec.height, 0, self.spec.width))


class Detection(NamedTuple):
    """A detected blob: its color class, pixel centroid and size."""

    color: Color
    center: PixelPoint
    pixel_count: int


def render(drone: Pose, markers: Sequence[Marker], frame_spec: FrameSpec,
           pad: Optional[tuple[int, float, float, float, float]] = None) -> Frame:
    """Synthesize the bottom-camera view of markers, then of ``pad``, a
    plain (code, x, y, radius, height) row: each pixel takes the color of
    the nearest marker whose projected disc covers it, or background.
    Discs project as discs (nadir camera, level markers) with pixel radius
    = focal_length * radius / (drone.z - marker.height).  ``markers`` is
    read through a Markers (any other sequence is made one per call), and
    the camera is checked once against its highest marker and the pad.  One
    pass then projects each marker (project()'s formula, inlined), checks
    it, and culls it or keeps it as a spot; the returned Frame is those
    spots, and clips their boxes only when its discs are read.  An indexed
    Markers passes that pass only its rows whose x offset can reach the
    frame, in marker order, once a guard shows no skipped marker can raise;
    else every marker is passed.

    Raises, in this order: GroundedError when the camera is on the ground,
    TypeError for the first item of ``markers`` that is not a Marker,
    GroundedError when the camera is not above every marker and the pad,
    and ValueError for the first marker whose projected center is not
    finite or whose pixel radius is too large for the raster's distance
    test.
    """
    x0, y0, z = drone.x, drone.y, drone.z
    if z <= 0:
        raise GroundedError("cannot render with the camera on the ground")
    rows, top, index = (markers if type(markers) is Markers else Markers(markers))._view
    if z <= top or pad is not None and z <= pad[4]:
        raise GroundedError("projection undefined with the camera not above the point")
    c, s = math.cos(drone.yaw), math.sin(drone.yaw)
    w, h, f = frame_spec.width, frame_spec.height, frame_spec.focal_length
    cx, cy = w / 2.0, h / 2.0
    if index is not None:
        xs, order, low, r_max, bound = index
        # no skipped row can raise: its pixel offsets, and radius (< its x offset), stay < 1e150
        if f / (z - top) * (2 * bound + abs(x0) + abs(y0)) < 1e150:
            a, b = abs(s), abs(c)   # a drawn disc's |dx|, with a 1e-9 rounding slack
            reach = ((a + 1e-9) * cx + (b + 1e-9) * cy) * (z - low) / f + (a + b + 1e-9) * r_max
            near = order[bisect_left(xs, x0 - reach):bisect_right(xs, x0 + reach)]
            rows = [rows[i] for i in sorted(near)]
    if pad is not None:
        rows = (*rows, pad)
    isfinite = math.isfinite
    right, bottom = w - 1, h - 1
    spots = []
    for code, px, py, radius, height in rows:
        dx, dy = px - x0, py - y0
        scale = f / (z - height)
        x = cx + scale * (s * dx - c * dy)
        y = cy - scale * (c * dx + s * dy)
        pr = scale * radius
        if not (isfinite(x) and isfinite(y) and isfinite(pr * pr)):
            if isfinite(x) and isfinite(y):
                raise ValueError(f"marker pixel radius {pr!r} is too large to draw")
            raise ValueError(f"projected marker center must be finite, got ({x!r}, {y!r})")
        if x + pr < 0.0 or y + pr < 0.0 or x - pr > right or y - pr > bottom:
            continue  # wholly off the frame: its clipped box would be empty
        spots.append((code, x, y, pr))
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
    of their union.  None signals absence, not failure.  Only the color's
    own spots are clipped, so a color with no spot in the frame clips no
    box.  Their discs are summed in closed form when no other spot's box
    overlaps theirs (tested on the spots: a box spans the ceil and floor of
    its spot's span) and one probe pass settles each of them; otherwise
    only the box around them is rasterised, with every drawn disc, for the
    nearest-disc tie-break.
    """
    code = color._value_   # the .value property costs a Python call per detect
    spec, spots = frame
    watched = _clip([spot for spot in spots if spot[0] == code], spec)
    if not watched:
        return None
    count = sum_rows = sum_cols = 0
    for disc in watched:
        # the clipped-box overlap test: a spot's box, ceil(u - s) .. floor(u
        # + s), shares a pixel with this one iff its span meets this box and
        # holds an integer (sure when s >= 0.5); the disc's own spot does
        _, _, _, _, y0, y1, x0, x1 = disc
        x1, y1, met = x1 - 1, y1 - 1, 0
        for _, u, v, s in spots:
            met += u - s <= x1 and x0 <= u + s and v - s <= y1 and y0 <= v + s and \
                (s >= 0.5 or math.ceil(u - s) <= u + s and math.ceil(v - s) <= v + s)
        moments = _moments(disc) if met == 1 else None
        if moments is None:
            break
        n, rows, cols = moments
        count, sum_rows, sum_cols = count + n, sum_rows + rows, sum_cols + cols
    if moments is None:     # an overlap or an unsettled disc: draw the window
        row0, row1 = min(d.row0 for d in watched), max(d.row1 for d in watched)
        col0, col1 = min(d.col0 for d in watched), max(d.col1 for d in watched)
        region = _raster(frame.discs, (row0, row1, col0, col1))
        count, sum_rows, sum_cols = _label_moments(region, code, row0, col0)
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
