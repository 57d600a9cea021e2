"""Discrete-time world model: first-order drone kinematics plus drift noise.

Commands are achieved instantly (the platform is treated as a
velocity-controlled body); the only stochastic effects are a per-step
Gaussian velocity drift and a one-off takeoff position jitter.  All
randomness flows through the PCG64 generator of the WorldState, seeded
from the world's seed on its first draw, so a given (seed, config,
mission) triple replays bit-exactly and a zero-noise world never builds a
generator.  Use copy.deepcopy on a WorldState to snapshot it: the copy
carries the generator state once the world has drawn, and otherwise the
seed it will draw from.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .control import ControllerGains, VelocityCommand
from .geometry import FrameSpec, Pose
from .perception import DEFAULT_MIN_BLOB_SIZE, Color, Frame, Marker, Markers, render


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian velocity drift (a random walk in position) plus a one-off
    takeoff position jitter, both per-axis standard deviations."""

    drift_std: float = 0.01
    takeoff_jitter_std: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.drift_std < math.inf:
            raise ValueError("drift_std must be finite and >= 0")
        if not 0 <= self.takeoff_jitter_std < math.inf:
            raise ValueError("takeoff_jitter_std must be finite and >= 0")

    @classmethod
    def zero(cls) -> "NoiseModel":
        """Exact kinematics: no drift, no jitter."""
        return cls(0.0, 0.0)


@dataclass(frozen=True)
class SimConfig:
    """Static world and platform parameters.

    Construction rejects configurations whose discrete proportional loop
    would diverge: dt * k * focal_length / altitude must stay below 1.
    """

    dt: float = 0.1
    frame: FrameSpec = field(default_factory=FrameSpec)
    gains: ControllerGains = field(default_factory=ControllerGains)
    noise: NoiseModel = field(default_factory=NoiseModel)
    altitude: float = 1.0
    min_blob_size: int = DEFAULT_MIN_BLOB_SIZE
    carrier_height: float = 0.0
    carrier_marker_radius: float = 0.10
    carrier_speed: float = 0.3
    carrier_waypoints: tuple[tuple[float, float], ...] = ()
    climb_rate: float = 0.5
    descent_rate: float = 0.3

    def __post_init__(self) -> None:
        for key in ("dt", "altitude", "carrier_marker_radius", "carrier_speed",
                    "climb_rate", "descent_rate"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)!r}")
        if not 0 <= self.carrier_height < self.altitude:
            raise ValueError("carrier_height must be in [0, altitude)")
        if type(self.min_blob_size) is not int or self.min_blob_size < 1:
            raise ValueError(f"min_blob_size must be an integer >= 1, got {self.min_blob_size!r}")
        loop_gain = self.dt * self.gains.k * self.frame.focal_length / self.altitude
        if loop_gain >= 1.0:
            raise ValueError(
                f"unstable discrete loop: dt*k*focal/altitude = {loop_gain:.4g} (must be < 1)")
        waypoints = tuple((float(x), float(y)) for x, y in self.carrier_waypoints)
        if not all(math.isfinite(v) for wp in waypoints for v in wp):
            raise ValueError(f"carrier_waypoints must be finite, got {waypoints!r}")
        object.__setattr__(self, "carrier_waypoints", waypoints)


@dataclass(eq=False)
class WorldState:
    """Mutable world snapshot: poses, markers, clock, seed and RNG state.

    ``rng`` is built from ``seed`` on first access, by the first noise draw
    (takeoff jitter in mission.tick, drift in step), and is the same stream
    ``np.random.default_rng(seed)`` gives.  A world that never draws never
    builds one.  copy.deepcopy snapshots the generator state once it is
    built; before that the copy holds only the seed, so it draws the same
    stream.  Worlds compare by identity.  ``seed`` is checked here, without
    touching numpy: TypeError unless it is an integer, ValueError when it
    is negative.  ``markers`` becomes a perception.Markers, which checks
    and indexes them once.
    """

    drone: Pose
    carrier: Pose
    markers: tuple[Marker, ...]
    seed: int
    steps: int = 0
    time: float = 0.0
    carrier_wp_index: int = 0

    def __post_init__(self) -> None:
        self.seed = operator.index(self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if type(self.markers) is not Markers:
            self.markers = Markers(self.markers)

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def make_world(seed: int, markers: Sequence[Marker] = Markers(),
               drone: Optional[Pose] = None,
               carrier: Optional[Pose] = None) -> WorldState:
    """Fresh world whose PCG64 generator is seeded from ``seed`` on its
    first draw; a zero-noise world never builds one.

    The drone defaults to the origin, on the ground, and the carrier to the
    drone's planar position (the vehicle starts sitting on it).  ``seed``
    and ``markers`` are checked, before any flight, by WorldState.
    """
    if drone is None:
        drone = Pose(0.0, 0.0, 0.0, 0.0)
    if carrier is None:
        carrier = Pose(drone.x, drone.y, 0.0, 0.0)
    return WorldState(drone=drone, carrier=carrier, markers=markers, seed=seed)


def step(world: WorldState, cmd: VelocityCommand, cfg: SimConfig,
         vz: float = 0.0, *, ticks: int = 1) -> WorldState:
    """Advance the world by ``ticks`` ticks of one command; mutates and
    returns ``world``.

    The body-frame command is rotated into the world frame, drift (when
    enabled) is added as a velocity perturbation, and positions integrate
    with a forward Euler step per tick.  ``vz`` is the vertical rate set by
    the mission layer during takeoff and landing; altitude clamps at zero
    every tick.  Time is recomputed as steps * dt, never accumulated.

    A stretch is bit-identical to ``ticks`` calls with ``ticks=1``: the
    drift is drawn as one (ticks, 2) block, which gives the same values and
    generator state as per-tick draws of 2, the Euler terms are summed tick
    by tick in the same order, and the carrier moves one tick at a time.
    Only the drone's final Pose is built and validated; when that raises
    (an overflowing position stays non-finite to the end), the poses, clock
    and waypoint index are left as they were.
    """
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks!r}")
    drone = world.drone
    c = math.cos(drone.yaw)
    s = math.sin(drone.yaw)
    vx = cmd.vel_forward * c + cmd.vel_right * s
    vy = cmd.vel_forward * s - cmd.vel_right * c
    dt = cfg.dt
    x, y = drone.x, drone.y
    if cfg.noise.drift_std > 0:
        for dx, dy in world.rng.normal(0.0, cfg.noise.drift_std, (ticks, 2)).tolist():
            x += (vx + dx) * dt
            y += (vy + dy) * dt
    else:
        ax, ay = vx * dt, vy * dt
        for _ in range(ticks):
            x += ax
            y += ay
    dz = vz * dt
    z = max(0.0, drone.z + dz)
    if dz:   # with dz == 0 the first clamp is a fixed point
        for _ in range(ticks - 1):
            z = max(0.0, z + dz)
    world.drone = Pose(x, y, z, drone.yaw)
    if world.carrier_wp_index < len(cfg.carrier_waypoints):
        _advance_carrier(world, cfg, ticks)
    world.steps += ticks
    world.time = world.steps * dt
    return world


def _advance_carrier(world: WorldState, cfg: SimConfig, ticks: int) -> None:
    """Drive the carrier ``ticks`` ticks along its waypoints at carrier_speed,
    at least one waypoint remaining; a tick that can reach the current
    waypoint stops on it."""
    wps = cfg.carrier_waypoints
    i = world.carrier_wp_index
    travel = cfg.carrier_speed * cfg.dt
    carrier = world.carrier
    for _ in range(ticks):
        tx, ty = wps[i]
        dx = tx - carrier.x
        dy = ty - carrier.y
        dist = math.hypot(dx, dy)
        if dist <= travel:
            carrier = Pose(tx, ty, carrier.z, carrier.yaw)
            i += 1
            if i == len(wps):
                break
        else:
            carrier = Pose(carrier.x + dx / dist * travel, carrier.y + dy / dist * travel,
                           carrier.z, carrier.yaw)
    world.carrier = carrier
    world.carrier_wp_index = i


def capture(world: WorldState, cfg: SimConfig) -> Frame:
    """Bottom-camera frame: the world's markers (only those near the frame
    when their Markers, built with the world, is indexed), then the carrier's
    blue landing pad at the carrier pose, carrier_height up, as a plain row."""
    carrier = world.carrier
    return render(world.drone, world.markers, cfg.frame, (Color.BLUE._value_, carrier.x,
                  carrier.y, cfg.carrier_marker_radius, cfg.carrier_height))


# --- trajectory log schema -------------------------------------------------


@dataclass(frozen=True, init=False)
class TrajectoryRow:
    """One per-tick record of the closed-loop state; its fields are the CSV columns.

    A frozen dataclass whose constructor stores the fields straight into
    the instance dict, a third of the cost of the generated frozen
    __init__'s one object.__setattr__ call per field; one is built per
    mission tick.
    """

    step: int
    time_s: float
    drone_x: float
    drone_y: float
    drone_z: float
    vel_fwd: float
    vel_right: float
    fsm_state: str
    detected_color: str
    err_px: Optional[float]

    def __init__(self, step: int, time_s: float, drone_x: float, drone_y: float,
                 drone_z: float, vel_fwd: float, vel_right: float, fsm_state: str,
                 detected_color: str, err_px: Optional[float]) -> None:
        d = self.__dict__
        d["step"] = step
        d["time_s"] = time_s
        d["drone_x"] = drone_x
        d["drone_y"] = drone_y
        d["drone_z"] = drone_z
        d["vel_fwd"] = vel_fwd
        d["vel_right"] = vel_right
        d["fsm_state"] = fsm_state
        d["detected_color"] = detected_color
        d["err_px"] = err_px


TRAJECTORY_COLUMNS = tuple(f.name for f in fields(TrajectoryRow))


#: A row's cells, in TRAJECTORY_COLUMNS order, as the csv module writes
#: them: floats by repr, text as is; ``%.0s`` turns an err_px of None into
#: an empty cell.
_ROW = "%s,%r,%r,%r,%r,%r,%r,%s,%s,%r\r\n"
_ROW_NO_ERR = "%s,%r,%r,%r,%r,%r,%r,%s,%s,%.0s\r\n"

#: A character for which csv.writer would quote a cell.
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def write_trajectory_csv(rows: Sequence[TrajectoryRow], path: str | Path) -> None:
    """Write rows with the canonical header, in the bytes csv.writer writes:
    one %-format per row, a float as repr (which harness.load_trajectory
    reads back bit-exactly), an err_px of None as an empty cell, \\r\\n line
    ends.  Raises ValueError, before the file is opened, for an fsm_state or
    detected_color label that csv.writer would quote (one holding ``,``,
    ``"``, ``\\r`` or ``\\n``); each distinct label is checked once."""
    for column in ("fsm_state", "detected_color"):
        for label in set(map(operator.attrgetter(column), rows)):
            if _NEEDS_QUOTES(label):
                raise ValueError(f"trajectory {column} {reprlib.repr(label)} would need "
                                 "CSV quoting")
    cells = map(operator.attrgetter(*TRAJECTORY_COLUMNS), rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        fh.writelines((_ROW_NO_ERR if t[-1] is None else _ROW) % t for t in cells)
