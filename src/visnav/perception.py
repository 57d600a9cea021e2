"""Synthetic bottom-camera frames and color-blob detection.

Markers are flat colored discs on the ground plane.  Pixels carry a
color-class label instead of RGB values: the markers are assumed
distinctively colored, so color segmentation is modeled as exact
classification and detection reduces to counting labeled pixels and
taking their centroid.  Absence of a blob is a value (None), not an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

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
    """Colored disc lying on the ground plane."""

    position: tuple[float, float]
    radius: float
    color: Color

    def __post_init__(self) -> None:
        _require_finite("marker position", *self.position)
        if not self.radius > 0:
            raise ValueError("marker radius must be positive")


@dataclass
class Frame:
    """Label grid of shape (height, width), dtype uint8.

    content_box is an optional (row0, row1, col0, col1) half-open box known
    to contain every non-background pixel; render() fills it in so detect()
    can skip scanning empty regions.  None means unknown (scan everything).
    """

    spec: FrameSpec
    labels: np.ndarray
    content_box: Optional[tuple[int, int, int, int]] = None

    def __post_init__(self) -> None:
        expected = (self.spec.height, self.spec.width)
        if self.labels.shape != expected:
            raise ValueError(f"label grid shape {self.labels.shape} != spec {expected}")


@dataclass(frozen=True)
class Detection:
    """A detected blob: its color class, pixel centroid and size."""

    color: Color
    center: PixelPoint
    pixel_count: int


def render(drone: Pose, markers: Sequence[Marker], frame_spec: FrameSpec) -> Frame:
    """Synthesize the bottom-camera view of ground markers.

    Each pixel samples the image point at its integer coordinates and is
    labeled with the color of the nearest marker whose projected disc
    covers it, or background.  Discs project as discs (nadir camera, flat
    ground) with pixel radius = focal_length * radius / altitude.

    Raises GroundedError when the vehicle is not airborne.
    """
    if drone.z <= 0:
        raise GroundedError("cannot render with the camera on the ground")
    w, h = frame_spec.width, frame_spec.height
    labels = np.zeros((h, w), dtype=np.uint8)
    scale = frame_spec.focal_length / drone.z

    drawn: list[tuple[Marker, PixelPoint, float, tuple[int, int, int, int]]] = []
    for marker in markers:
        center = project(drone, marker.position, frame_spec)
        pr = scale * marker.radius
        col0 = max(0, math.ceil(center.x - pr))
        col1 = min(w - 1, math.floor(center.x + pr))
        row0 = max(0, math.ceil(center.y - pr))
        row1 = min(h - 1, math.floor(center.y + pr))
        if col0 > col1 or row0 > row1:
            continue
        drawn.append((marker, center, pr, (row0, row1, col0, col1)))

    # Per-pixel nearest-marker tie-break is only needed when discs can
    # overlap; the single-marker fast path skips the distance map.
    best_d2 = None
    if len(drawn) > 1:
        best_d2 = np.full((h, w), np.inf, dtype=np.float64)

    box_union = None
    for marker, center, pr, (row0, row1, col0, col1) in drawn:
        xs = np.arange(col0, col1 + 1, dtype=np.float64) - center.x
        ys = np.arange(row0, row1 + 1, dtype=np.float64) - center.y
        d2 = xs[None, :] ** 2 + ys[:, None] ** 2
        covered = d2 <= pr * pr
        if not covered.any():
            continue
        if best_d2 is None:
            labels[row0 : row1 + 1, col0 : col1 + 1][covered] = marker.color.value
        else:
            patch = best_d2[row0 : row1 + 1, col0 : col1 + 1]
            win = covered & (d2 < patch)
            patch[win] = d2[win]
            labels[row0 : row1 + 1, col0 : col1 + 1][win] = marker.color.value
        rows = np.nonzero(covered.any(axis=1))[0]
        cols = np.nonzero(covered.any(axis=0))[0]
        box = (row0 + int(rows[0]), row0 + int(rows[-1]) + 1,
               col0 + int(cols[0]), col0 + int(cols[-1]) + 1)
        if box_union is None:
            box_union = box
        else:
            box_union = (min(box_union[0], box[0]), max(box_union[1], box[1]),
                         min(box_union[2], box[2]), max(box_union[3], box[3]))

    if box_union is None:
        box_union = (0, 0, 0, 0)
    return Frame(frame_spec, labels, box_union)


def detect(frame: Frame, color: Color, min_blob_size: int = DEFAULT_MIN_BLOB_SIZE) -> Optional[Detection]:
    """Find the blob of a color class, or None when too few pixels match.

    The centroid is the plain mean of matching pixel coordinates (computed
    from exact integer sums), so two same-colored blobs yield the centroid
    of their union.  None signals absence, not failure.
    """
    if frame.content_box is None:
        row_off = col_off = 0
        region = frame.labels
    else:
        row0, row1, col0, col1 = frame.content_box
        if row0 >= row1 or col0 >= col1:
            return None
        row_off, col_off = row0, col0
        region = frame.labels[row0:row1, col0:col1]
    rows, cols = np.nonzero(region == np.uint8(color.value))
    count = int(rows.size)
    if count == 0 or count < min_blob_size:
        return None
    # exact integer sums in frame coordinates, then a single division
    cx = (int(cols.sum()) + count * col_off) / count
    cy = (int(rows.sum()) + count * row_off) / count
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
