"""Camera and world geometry for a downward-looking quadrotor camera.

Conventions used throughout the library:

Image frame (raster convention):
  - Origin at the top-left corner, x to the right, y downward, units pixels.
  - The vehicle's own position in the image is always the frame center.

World frame:
  - x/y ground plane, z up (altitude), yaw counterclockwise about z.
  - At yaw 0 the body-forward axis is world +x and body-right is world -y.

Body-to-image mapping:
  - forward -> -y, right -> +x.  A target drawn above the image center
    therefore pulls the vehicle forward.

The camera is nadir-pointing and markers lie level (on the ground plane or
on a raised pad), so projection is a similarity transform: pixel offset
from the image center equals focal_length * (body offset / depth), where
depth is the camera's height above the marker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class GroundedError(ValueError):
    """Camera operation requested while the vehicle is on the ground (z <= 0)."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _checked_make(cls, iterable):
    """A checked named tuple's _make, and so its _replace: the constructor,
    checks and all, where the stock one skips them."""
    return cls(*iterable)


class _PixelPoint(NamedTuple):
    x: float
    y: float


class PixelPoint(_PixelPoint):
    """A point in image coordinates.  May lie outside the frame bounds."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, x: float, y: float) -> PixelPoint:
        if not (math.isfinite(x) and math.isfinite(y)):
            _require_finite("PixelPoint coordinates", x, y)
        return tuple.__new__(cls, (x, y))


@dataclass(frozen=True)
class FrameSpec:
    """Camera frame geometry: image size plus focal length, all in pixels.

    The default 640x360 frame with a 320 px focal length gives roughly a
    90 degree horizontal field of view: a 2 m wide ground footprint when
    flying at 1 m.  ``center``, the vehicle's own position in image
    coordinates, is set at construction; it is not a field.
    """

    width: int = 640
    height: int = 360
    focal_length: float = 320.0

    def __post_init__(self) -> None:
        for name, size in (("width", self.width), ("height", self.height)):
            if type(size) is not int or size < 1:
                raise ValueError(f"frame {name} must be an integer >= 1, got {size!r}")
        if not 0 < self.focal_length < math.inf:
            raise ValueError("focal_length must be positive and finite")
        object.__setattr__(self, "center", PixelPoint(self.width / 2.0, self.height / 2.0))


@dataclass(frozen=True, init=False)
class Pose:
    """World-frame pose: planar position, altitude and heading.

    A frozen dataclass whose constructor is written out: it checks the
    fields (finite, then z >= 0) and stores them straight into the instance
    dict, half the cost of the generated frozen __init__'s one
    object.__setattr__ call per field.  dataclasses.replace goes through it.
    """

    x: float
    y: float
    z: float
    yaw: float = 0.0

    def __init__(self, x: float, y: float, z: float, yaw: float = 0.0) -> None:
        isfinite = math.isfinite
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(yaw)):
            _require_finite("Pose fields", x, y, z, yaw)
        if z < 0:
            raise ValueError("altitude z must be >= 0")
        d = self.__dict__
        d["x"] = x
        d["y"] = y
        d["z"] = z
        d["yaw"] = yaw


def project(drone: Pose, world_point: tuple[float, float], frame: FrameSpec,
            height: float = 0.0) -> PixelPoint:
    """Pinhole projection of a point ``height`` above the ground plane into
    the bottom camera; the depth is drone.z - height.  The body offset is
    (forward, right) = (c*dx + s*dy, s*dx - c*dy).  perception.render
    inlines this formula bit for bit; this is the reference the tests'
    naive camera and nearest_disc_oracle project through.

    The result is a valid PixelPoint even when it falls outside the frame
    bounds; use :func:`in_frame` to test visibility.

    Raises GroundedError when the camera is not above the point.
    """
    if drone.z <= height:
        raise GroundedError("projection undefined with the camera not above the point")
    dx, dy = world_point[0] - drone.x, world_point[1] - drone.y
    c, s = math.cos(drone.yaw), math.sin(drone.yaw)
    scale = frame.focal_length / (drone.z - height)
    return PixelPoint(frame.width / 2.0 + scale * (s * dx - c * dy),
                      frame.height / 2.0 - scale * (c * dx + s * dy))


def in_frame(p: PixelPoint, frame: FrameSpec) -> bool:
    """True iff the point lies inside the image bounds (upper bounds exclusive)."""
    return 0 <= p.x < frame.width and 0 <= p.y < frame.height


def ground_footprint(frame: FrameSpec, altitude: float) -> tuple[float, float]:
    """Half-extents (x, y) in meters of the ground patch seen from ``altitude``."""
    if altitude <= 0:
        raise GroundedError("footprint undefined with the camera on the ground")
    half_w = altitude * (frame.width / 2.0) / frame.focal_length
    half_h = altitude * (frame.height / 2.0) / frame.focal_length
    return half_w, half_h
