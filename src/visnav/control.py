"""Proportional pixel-error controller with hover deadband and saturation.

The control law maps the pixel error between a target point and the image
center onto a planar body-frame velocity.  It is purely proportional:
command magnitude scales linearly with error magnitude until saturation,
and drops to exactly zero inside the hover threshold.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import PixelPoint, _checked_make, _require_finite


class _PixelError(NamedTuple):
    error_x: float
    error_y: float


class PixelError(_PixelError):
    """Signed pixel error, target minus current position."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, error_x: float, error_y: float) -> PixelError:
        if not (math.isfinite(error_x) and math.isfinite(error_y)):
            _require_finite("PixelError components", error_x, error_y)
        return tuple.__new__(cls, (error_x, error_y))

    def norm(self) -> float:
        return math.hypot(self.error_x, self.error_y)


@dataclass(frozen=True)
class ControllerGains:
    """Controller tuning.

    k converts pixels of error into m/s of command.  Inside
    hover_threshold (Euclidean pixel distance) the command is zero;
    above it, the command vector is clipped to max_speed.

    literal_axes drops the forward-axis sign correction, commanding
    vel_forward = +k*error_y.  With the raster image convention that
    drives the vehicle away from a target above the image center; the
    switch exists only for comparison runs (CLI flag --literal-eq3).
    """

    k: float = 0.0005
    hover_threshold: float = 50.0
    max_speed: float = 1.0
    literal_axes: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.k < math.inf:
            raise ValueError("gain k must be positive and finite")
        if not 0 <= self.hover_threshold < math.inf:
            raise ValueError("hover_threshold must be finite and >= 0")
        if not 0 < self.max_speed < math.inf:
            raise ValueError("max_speed must be positive and finite")
        if type(self.literal_axes) is not bool:
            raise ValueError("literal_axes must be true or false, "
                             f"got {reprlib.repr(self.literal_axes)}")


class VelocityCommand(NamedTuple):
    """Planar body-frame velocity.  hovering implies both components are 0."""

    vel_forward: float
    vel_right: float
    hovering: bool = False

    def speed(self) -> float:
        return math.hypot(self.vel_forward, self.vel_right)


#: Zero command outside the hover deadband (takeoff, holds, dropouts).
ZERO_COMMAND = VelocityCommand(0.0, 0.0, False)


def pixel_error(target: PixelPoint, current: PixelPoint) -> PixelError:
    """Componentwise target minus current."""
    return PixelError(target.x - current.x, target.y - current.y)


def compute_command(err: PixelError, gains: ControllerGains) -> VelocityCommand:
    """Proportional velocity command for a pixel error.

    Hover (exact zero output) when the Euclidean error norm is within
    gains.hover_threshold.  Otherwise vel_forward = -k * error_y and
    vel_right = k * error_x (image y grows downward while body forward is
    "up" in the image, hence the negation), scaled down if the speed would
    exceed gains.max_speed.
    """
    if err.norm() <= gains.hover_threshold:
        return VelocityCommand(0.0, 0.0, True)
    vel_forward = gains.k * err.error_y if gains.literal_axes else -gains.k * err.error_y
    vel_right = gains.k * err.error_x
    speed = math.hypot(vel_forward, vel_right)
    if speed > gains.max_speed:
        scale = gains.max_speed / speed
        vel_forward *= scale
        vel_right *= scale
    return VelocityCommand(vel_forward, vel_right, False)
