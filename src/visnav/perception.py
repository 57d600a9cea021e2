"""Synthetic bottom-camera frames and color-blob detection.

Markers are flat colored discs, on the ground plane or raised (the
carrier's pad).  Pixels carry a color-class label instead of RGB values:
the markers are assumed distinctively colored, so color segmentation is
modeled as exact classification and detection reduces to counting labeled
pixels and taking their centroid.  Absence of a blob is a value (None),
not an error.

Frames rasterise on demand: Frame.labels draws the whole grid on first
read, and detect() draws just the window around the watched color's discs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import FrameSpec, GroundedError, PixelPoint, Pose, _require_finite, project

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
        if not self.radius > 0:
            raise ValueError("marker radius must be positive")
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
    # the nearest-disc tie-break needs a distance map only where discs can overlap
    best_d2 = np.full(labels.shape, np.inf) if len(parts) > 1 else None
    for disc, r0, r1, c0, c1 in parts:
        xs = np.arange(c0, c1, dtype=np.float64) - disc.center.x
        ys = np.arange(r0, r1, dtype=np.float64) - disc.center.y
        d2 = xs[None, :] ** 2 + ys[:, None] ** 2
        covered = d2 <= disc.radius * disc.radius
        cut = (slice(r0 - wr0, r1 - wr0), slice(c0 - wc0, c1 - wc0))
        if best_d2 is None:
            labels[cut][covered] = disc.code
        else:
            best = best_d2[cut]
            win = covered & (d2 < best)
            best[win] = d2[win]
            labels[cut][win] = disc.code
    return labels


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

    Raises GroundedError when the camera is not above every marker.
    """
    if drone.z <= 0:
        raise GroundedError("cannot render with the camera on the ground")
    w, h = frame_spec.width, frame_spec.height
    discs = []
    for marker in markers:
        center = project(drone, marker.position, frame_spec, marker.height)
        pr = frame_spec.focal_length / (drone.z - marker.height) * marker.radius
        col0 = max(0, math.ceil(center.x - pr))
        col1 = min(w, math.floor(center.x + pr) + 1)
        row0 = max(0, math.ceil(center.y - pr))
        row1 = min(h, math.floor(center.y + pr) + 1)
        if col0 < col1 and row0 < row1:
            discs.append(_Disc(marker.color.value, center, pr, (row0, row1, col0, col1)))
    return Frame(frame_spec, discs=tuple(discs))


def detect(frame: Frame, color: Color, min_blob_size: int = DEFAULT_MIN_BLOB_SIZE) -> Optional[Detection]:
    """Find the blob of a color class, or None when too few pixels match.

    The centroid is the plain mean of matching pixel coordinates (computed
    from exact integer sums), so two same-colored blobs yield the centroid
    of their union.  None signals absence, not failure.  On a rendered
    frame only the box around the color's discs is rasterised.
    """
    code = color.value
    if frame.discs is None:
        row0 = col0 = 0
        region = frame.labels
    else:
        boxes = [d.box for d in frame.discs if d.code == code]
        if not boxes:
            return None
        row0, row1 = min(b[0] for b in boxes), max(b[1] for b in boxes)
        col0, col1 = min(b[2] for b in boxes), max(b[3] for b in boxes)
        region = _raster(frame.discs, (row0, row1, col0, col1))
    rows, cols = np.nonzero(region == np.uint8(code))
    count = int(rows.size)
    if count == 0 or count < min_blob_size:
        return None
    # exact integer sums in frame coordinates, then a single division
    cx = (int(cols.sum()) + count * col0) / count
    cy = (int(rows.sum()) + count * row0) / count
    return Detection(color, PixelPoint(cx, cy), count)


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
