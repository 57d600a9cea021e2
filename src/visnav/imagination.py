"""Imagined pixel targets: virtual markers that steer the vehicle.

An imagined target is a pixel coordinate interpreted relative to the
current image frame, so it keeps a constant offset from the image center
no matter how the vehicle moves.  The resulting pixel error is constant,
the commanded velocity is constant, and a sequence of such targets traces
a path in the world.  Targets may lie outside the frame bounds; that is
the whole point.

Reversal builds a homing trajectory from a motion log by reflecting each
logged target about the image center and flipping the order: a reflected
target negates the pixel error, and the controller is odd in the error,
so a noise-free replay negates the outbound displacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .control import VelocityCommand
from .geometry import FrameSpec, PixelPoint, _checked_make
from .perception import Color

#: Standard offset of imagined targets from the image center, in pixels.
#: With default gains (k = 0.0005) this commands 0.05 m/s per segment.
DEFAULT_OFFSET_PX = 100.0


class EmptyLogError(ValueError):
    """Reversal requested on a motion log with no entries."""


@dataclass(frozen=True)
class MarkerDetected:
    """Segment ends when a blob of this color class is seen."""

    color: Color

    def __post_init__(self) -> None:
        if not isinstance(self.color, Color):
            raise TypeError(f"color must be a Color, got {self.color!r}")


@dataclass(frozen=True)
class Duration:
    """Segment ends after this many seconds."""

    seconds: float

    def __post_init__(self) -> None:
        if not self.seconds > 0:
            raise ValueError("duration must be positive")


@dataclass(frozen=True)
class Distance:
    """Segment ends once the vehicle has moved this far from the segment start."""

    meters: float

    def __post_init__(self) -> None:
        if not self.meters > 0:
            raise ValueError("distance must be positive")


Termination = Union[MarkerDetected, Duration, Distance]


class _ImaginedSegment(NamedTuple):
    target: PixelPoint
    terminate_on: Termination


class ImaginedSegment(_ImaginedSegment):
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, target: PixelPoint, terminate_on: Termination) -> ImaginedSegment:
        if not isinstance(target, PixelPoint):
            raise TypeError(f"target must be a PixelPoint, got {target!r}")
        if not isinstance(terminate_on, (MarkerDetected, Duration, Distance)):
            raise TypeError("terminate_on must be MarkerDetected, Duration or Distance, "
                            f"got {terminate_on!r}")
        return tuple.__new__(cls, (target, terminate_on))


@dataclass(frozen=True)
class ImaginedTrajectory:
    segments: tuple[ImaginedSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("a trajectory needs at least one segment")
        for seg in self.segments:
            if not isinstance(seg, ImaginedSegment):
                raise TypeError(f"segments must be ImaginedSegments, got {seg!r}")

    def targets(self) -> tuple[PixelPoint, ...]:
        return tuple(s.target for s in self.segments)


class LogEntry(NamedTuple):
    """One stretch of commanded motion: when, what was commanded, for how
    long, and which target produced the command."""

    timestamp: float
    command: VelocityCommand
    duration: float
    target: PixelPoint


@dataclass
class MotionLog:
    """Ordered record of commanded motion, appended by a single mission loop."""

    entries: list[LogEntry] = field(default_factory=list)

    def append(self, timestamp: float, command: VelocityCommand, duration: float,
               target: PixelPoint) -> None:
        if not duration > 0:
            raise ValueError("log entry duration must be positive")
        if self.entries and timestamp <= self.entries[-1].timestamp:
            raise ValueError("log timestamps must be strictly increasing")
        self.entries.append(LogEntry(timestamp, command, duration, target))

    def __len__(self) -> int:
        return len(self.entries)


def offset_target(frame: FrameSpec, dx: float, dy: float) -> PixelPoint:
    """Imagined target displaced (dx, dy) pixels from the image center."""
    c = frame.center
    return PixelPoint(c.x + dx, c.y + dy)


def forward_target(frame: FrameSpec, offset_px: float = DEFAULT_OFFSET_PX) -> PixelPoint:
    """The forward imagined marker: image center shifted up by offset_px.

    (320, 80) on the default 640x360 frame.
    """
    return offset_target(frame, 0.0, -offset_px)


def square_trajectory(frame: FrameSpec, side_duration: float,
                      offset_px: float = DEFAULT_OFFSET_PX) -> ImaginedTrajectory:
    """Four constant-velocity sides: ahead, right, back, left.

    Under zero-noise kinematics the four sides cancel and the vehicle
    returns to its starting point.
    """
    if not side_duration > 0:
        raise ValueError("side_duration must be positive")
    offsets = ((0.0, -offset_px), (offset_px, 0.0), (0.0, offset_px), (-offset_px, 0.0))
    return ImaginedTrajectory(tuple(
        ImaginedSegment(offset_target(frame, dx, dy), Duration(side_duration))
        for dx, dy in offsets
    ))


def reflect_about_center(p: PixelPoint, frame: FrameSpec) -> PixelPoint:
    """The target's mirror image through the frame center (offset negated)."""
    c = frame.center
    return PixelPoint(2.0 * c.x - p.x, 2.0 * c.y - p.y)


def reverse(log: MotionLog, frame: FrameSpec) -> ImaginedTrajectory:
    """Homing trajectory from a motion log.

    Entries are replayed newest-first, each as one Duration segment of the
    logged length whose target is the logged target reflected about the
    image center.  Raises EmptyLogError when there is nothing to reverse.
    """
    if not log.entries:
        raise EmptyLogError("cannot reverse an empty motion log")
    return ImaginedTrajectory(tuple(
        ImaginedSegment(reflect_about_center(e.target, frame), Duration(e.duration))
        for e in reversed(log.entries)))
