"""Synthetic bottom-camera frames and color-blob detection.

Markers are flat colored discs, on the ground plane or raised (the
carrier's pad).  Pixels carry a color-class label instead of RGB values:
the markers are assumed distinctively colored, so color segmentation is
modeled as exact classification and detection reduces to counting labeled
pixels and taking their centroid.  Absence of a blob is a value (None),
not an error.

Frames rasterise on demand: Frame.labels draws the whole grid on first
read.  detect() computes the count and centroid of isolated discs (no
other drawn disc's box overlaps theirs) in closed form, from per-row span
moments, and rasterises only overlaps: the window around the watched
color's discs, where the nearest-disc tie-break decides each pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import FrameSpec, GroundedError, PixelPoint, Pose, _pixels, _require_finite

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
        _require_finite("marker position", *self.position)
        if not 0 < self.radius < math.inf:
            raise ValueError("marker radius must be positive and finite")
        if not 0 <= self.height < math.inf:
            raise ValueError("marker height must be finite and >= 0")


class _Disc(NamedTuple):
    """A drawn marker: color code, pixel center and radius, and its box
    clipped to the frame as half-open (row0, row1, col0, col1)."""

    code: int
    center: PixelPoint
    radius: float
    box: tuple[int, int, int, int]


def _raster(discs: Sequence[_Disc], window: tuple[int, int, int, int]) -> np.ndarray:
    """Label grid of the half-open frame window (row0, row1, col0, col1): each
    pixel takes the color of the nearest disc covering its integer
    coordinates, exact-distance ties to the earliest disc."""
    wr0, wr1, wc0, wc1 = window
    labels = np.zeros((wr1 - wr0, wc1 - wc0), dtype=np.uint8)
    parts = [(d, max(d.box[0], wr0), min(d.box[1], wr1), max(d.box[2], wc0), min(d.box[3], wc1))
             for d in discs]
    parts = [p for p in parts if p[1] < p[2] and p[3] < p[4]]
    best_d2 = np.full(labels.shape, np.inf)
    for disc, r0, r1, c0, c1 in parts:
        xs = np.arange(c0, c1, dtype=np.float64) - disc.center.x
        ys = np.arange(r0, r1, dtype=np.float64) - disc.center.y
        d2 = xs[None, :] ** 2 + ys[:, None] ** 2
        cut = (slice(r0 - wr0, r1 - wr0), slice(c0 - wc0, c1 - wc0))
        best = best_d2[cut]
        win = (d2 <= disc.radius * disc.radius) & (d2 < best)
        best[win] = d2[win]
        labels[cut][win] = disc.code
    return labels


#: Offsets from each span end to its outer and its inner probe column.
_PROBES = np.array([[[1.0]], [[0.0]]])


def _moments(disc: _Disc) -> tuple[int, int, int]:
    """(count, sum of rows, sum of columns) of the pixels _raster gives
    ``disc`` alone, in closed form.

    In each row of the box the raster's test (c - cx)**2 + (r - cy)**2 <=
    radius**2 is monotone in c on either side of the center, so the row
    covers one contiguous span.  A sqrt estimates both ends; each end then
    steps one column at a time, with that same float test, until the column
    just inside it is covered and the one just outside is not (or the box
    edge is reached).  The span sums are integer arithmetic series.
    """
    r0, r1, c0, c1 = disc.box
    cx, cy = disc.center.x, disc.center.y
    r2 = disc.radius * disc.radius
    mid = round(cx)
    # the ends are signed, outward positive: (-first column, last column);
    # per end: the box edge it stops at, the far edge it may reach when the
    # row is empty, how far inward it may step (its own side of the center)
    # and the center
    edge, far_edge, side, center = np.array(
        ((-c0, c1 - 1), (-c1, c0 - 1), (-min(mid, c1 - 1), max(mid, c0)), (-cx, cx)))[:, :, None]
    rows = np.arange(r0, r1, dtype=np.float64)
    dy2 = (rows - cy) ** 2
    ends = np.floor(np.sqrt(np.abs(r2 - dy2)) + center)
    np.fmin(ends, edge, out=ends)     # fmin/fmax: a NaN estimate (inf - inf) takes the edge
    np.fmax(ends, far_edge, out=ends)
    while True:
        outer, inner = (ends + _PROBES - center) ** 2 + dy2 <= r2
        step = np.subtract(outer & (ends < edge), (ends >= side) > inner, dtype=np.int8)
        if not step.any():
            break
        ends += step
    n = np.maximum(ends.sum(0) + 1.0, 0.0)
    neg_first, last = ends @ n
    return int(n.sum()), int(rows @ n), int(last - neg_first) // 2


class Frame:
    """A bottom-camera label grid of shape (height, width), dtype uint8.

    A frame from render() keeps its drawn discs in marker order and
    rasterises ``labels`` on first read; one built from labels has discs None.
    """

    def __init__(self, spec: FrameSpec, labels: Optional[np.ndarray] = None,
                 discs: Optional[tuple[_Disc, ...]] = None) -> None:
        if (labels is None) == (discs is None):
            raise ValueError("a frame is built from exactly one of labels or discs")
        self.spec, self.discs = spec, discs
        if labels is not None:
            if labels.shape != (spec.height, spec.width):
                raise ValueError(f"label grid shape {labels.shape} != spec {spec}")
            self.labels = labels

    @cached_property
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

    Raises GroundedError when the camera is not above every marker, and
    ValueError when a marker's projected center is not finite or its
    pixel radius is too large for the raster's squared-distance test.
    """
    if drone.z <= 0:
        raise GroundedError("cannot render with the camera on the ground")
    w, h = frame_spec.width, frame_spec.height
    discs = []
    projected = _pixels(drone, frame_spec, [(m.position, m.height) for m in markers])
    for marker, (x, y, scale) in zip(markers, projected):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"projected marker center must be finite, got ({x!r}, {y!r})")
        pr = scale * marker.radius
        if not math.isfinite(pr * pr):
            raise ValueError(f"marker pixel radius {pr!r} is too large to draw")
        col0 = max(0, math.ceil(x - pr))
        col1 = min(w, math.floor(x + pr) + 1)
        row0 = max(0, math.ceil(y - pr))
        row1 = min(h, math.floor(y + pr) + 1)
        if col0 < col1 and row0 < row1:
            discs.append(_Disc(marker.color.value, PixelPoint(x, y), pr, (row0, row1, col0, col1)))
    return Frame(frame_spec, discs=tuple(discs))


def _label_moments(region: np.ndarray, code: int, row0: int, col0: int) -> tuple[int, int, int]:
    """(count, sum of rows, sum of columns) of the pixels labelled ``code`` in
    a region whose top-left pixel is (row0, col0) of the frame."""
    rows, cols = np.nonzero(region == np.uint8(code))
    count = int(rows.size)
    return count, int(rows.sum()) + count * row0, int(cols.sum()) + count * col0


def _overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    """True iff two half-open (row0, row1, col0, col1) boxes share a pixel."""
    return a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]


def detect(frame: Frame, color: Color, min_blob_size: int = DEFAULT_MIN_BLOB_SIZE) -> Optional[Detection]:
    """Find the blob of a color class, or None when too few pixels match.

    The centroid is the plain mean of matching pixel coordinates (computed
    from exact integer sums), so two same-colored blobs yield the centroid
    of their union.  None signals absence, not failure.  On a rendered
    frame the color's discs are summed in closed form when no other drawn
    disc's box overlaps theirs; otherwise only the box around them is
    rasterised, for the nearest-disc tie-break.
    """
    code = color.value
    if frame.discs is None:
        moments = _label_moments(frame.labels, code, 0, 0)
    else:
        watched = [d for d in frame.discs if d.code == code]
        if not watched:
            return None
        if any(_overlap(w.box, d.box) for w in watched for d in frame.discs if d is not w):
            row0, row1 = min(d.box[0] for d in watched), max(d.box[1] for d in watched)
            col0, col1 = min(d.box[2] for d in watched), max(d.box[3] for d in watched)
            region = _raster(frame.discs, (row0, row1, col0, col1))
            moments = _label_moments(region, code, row0, col0)
        else:
            moments = [sum(m) for m in zip(*map(_moments, watched))]
    count, sum_rows, sum_cols = moments
    if count == 0 or count < min_blob_size:
        return None
    # exact integer sums in frame coordinates, then a single division
    return Detection(color, PixelPoint(sum_cols / count, sum_rows / count), count)


def write_ppm(frame: Frame, path: str | Path) -> None:
    """Dump a frame as a binary PPM image using the PPM_COLORS table."""
    lut = np.zeros((256, 3), dtype=np.uint8)
    for code, rgb in PPM_COLORS.items():
        lut[code] = rgb
    rgb = lut[frame.labels]
    header = f"P6\n{frame.spec.width} {frame.spec.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + rgb.tobytes())


def frame_filename(step: int) -> str:
    """Canonical dump name for the frame captured at a simulation step."""
    return f"frame_{step:06d}.ppm"
