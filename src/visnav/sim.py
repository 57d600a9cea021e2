"""Discrete-time world model: first-order drone kinematics plus drift noise.

Commands are achieved instantly (the platform is treated as a
velocity-controlled body); the only stochastic effects are a per-step
Gaussian velocity drift and a one-off takeoff position jitter.  All
randomness flows through the PCG64 generator carried by the WorldState,
so a given (seed, config, mission) triple replays bit-exactly.  Use
copy.deepcopy on a WorldState to snapshot it, generator state included.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .control import ControllerGains, VelocityCommand
from .geometry import FrameSpec, Pose
from .perception import DEFAULT_MIN_BLOB_SIZE, Color, Frame, Marker, render


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian velocity drift (a random walk in position) plus a one-off
    takeoff position jitter, both per-axis standard deviations."""

    drift_std: float = 0.01
    takeoff_jitter_std: float = 0.05

    def __post_init__(self) -> None:
        if self.drift_std < 0 or self.takeoff_jitter_std < 0:
            raise ValueError("noise standard deviations must be >= 0")

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
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.altitude > 0:
            raise ValueError("altitude must be positive")
        if self.carrier_height < 0 or self.carrier_height >= self.altitude:
            raise ValueError("carrier_height must be in [0, altitude)")
        if not self.climb_rate > 0 or not self.descent_rate > 0:
            raise ValueError("vertical rates must be positive")
        loop_gain = self.dt * self.gains.k * self.frame.focal_length / self.altitude
        if loop_gain >= 1.0:
            raise ValueError(
                f"unstable discrete loop: dt*k*focal/altitude = {loop_gain:.4g} (must be < 1)")
        object.__setattr__(self, "carrier_waypoints",
                           tuple((float(x), float(y)) for x, y in self.carrier_waypoints))


@dataclass
class WorldState:
    """Mutable world snapshot: poses, markers, clock and RNG state."""

    drone: Pose
    carrier: Pose
    markers: tuple[Marker, ...]
    rng: np.random.Generator
    steps: int = 0
    time: float = 0.0
    carrier_wp_index: int = 0


def make_world(seed: int, markers: Sequence[Marker] = (),
               drone: Optional[Pose] = None,
               carrier: Optional[Pose] = None) -> WorldState:
    """Fresh world with a PCG64 generator seeded from a 64-bit integer.

    The carrier defaults to the drone's planar position (the vehicle
    starts sitting on it).
    """
    if drone is None:
        drone = Pose(0.0, 0.0, 0.0, 0.0)
    if carrier is None:
        carrier = Pose(drone.x, drone.y, 0.0, 0.0)
    return WorldState(drone=drone, carrier=carrier, markers=tuple(markers),
                      rng=np.random.default_rng(seed))


def step(world: WorldState, cmd: VelocityCommand, cfg: SimConfig,
         vz: float = 0.0) -> WorldState:
    """Advance the world by one tick; mutates and returns ``world``.

    The body-frame command is rotated into the world frame, drift (when
    enabled) is added as a velocity perturbation, and positions integrate
    with a forward Euler step.  ``vz`` is the vertical rate set by the
    mission layer during takeoff and landing; altitude clamps at zero.
    Time is recomputed as steps * dt, never accumulated.
    """
    c = math.cos(world.drone.yaw)
    s = math.sin(world.drone.yaw)
    vx = cmd.vel_forward * c + cmd.vel_right * s
    vy = cmd.vel_forward * s - cmd.vel_right * c
    if cfg.noise.drift_std > 0:
        dx, dy = world.rng.normal(0.0, cfg.noise.drift_std, 2).tolist()
        vx += dx
        vy += dy
    drone = world.drone
    world.drone = Pose(drone.x + vx * cfg.dt, drone.y + vy * cfg.dt,
                       max(0.0, drone.z + vz * cfg.dt), drone.yaw)
    _advance_carrier(world, cfg)
    world.steps += 1
    world.time = world.steps * cfg.dt
    return world


def _advance_carrier(world: WorldState, cfg: SimConfig) -> None:
    wps = cfg.carrier_waypoints
    i = world.carrier_wp_index
    if i >= len(wps):
        return
    tx, ty = wps[i]
    carrier = world.carrier
    dx = tx - carrier.x
    dy = ty - carrier.y
    dist = math.hypot(dx, dy)
    travel = cfg.carrier_speed * cfg.dt
    if dist <= travel:
        world.carrier = Pose(tx, ty, carrier.z, carrier.yaw)
        world.carrier_wp_index = i + 1
    else:
        world.carrier = Pose(carrier.x + dx / dist * travel, carrier.y + dy / dist * travel,
                             carrier.z, carrier.yaw)


@lru_cache(maxsize=64)
def _pad(x: float, y: float, radius: float, height: float) -> Marker:
    """The carrier's landing pad at (x, y); one frozen Marker per distinct
    pad, so a carrier that does not move reuses it every tick."""
    return Marker((x, y), radius, Color.BLUE, height)


def capture(world: WorldState, cfg: SimConfig) -> Frame:
    """Bottom-camera frame: all world markers plus the carrier's blue
    landing pad rendered at the carrier pose, carrier_height up."""
    pad = _pad(world.carrier.x, world.carrier.y, cfg.carrier_marker_radius, cfg.carrier_height)
    return render(world.drone, (*world.markers, pad), cfg.frame)


# --- trajectory log schema -------------------------------------------------

TRAJECTORY_COLUMNS = ("step", "time_s", "drone_x", "drone_y", "drone_z",
                      "vel_fwd", "vel_right", "fsm_state", "detected_color", "err_px")


@dataclass(frozen=True)
class TrajectoryRow:
    """One per-tick record of the closed-loop state, as written to CSV."""

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


def write_trajectory_csv(rows: Sequence[TrajectoryRow], path: str | Path) -> None:
    """Write rows with the canonical header.  Floats are written with repr
    so harness.load_trajectory reads them back bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for r in rows:
            writer.writerow([
                r.step, repr(r.time_s), repr(r.drone_x), repr(r.drone_y),
                repr(r.drone_z), repr(r.vel_fwd), repr(r.vel_right),
                r.fsm_state, r.detected_color,
                "" if r.err_px is None else repr(r.err_px),
            ])

