"""Mission state machines: take off, search, servo, hover, reverse, land.

Every mission kind runs the same loop once per tick.  A few steps act
without looking: liftoff, the top of the climb, the end of the hover dwell
and touchdown.  Otherwise the tick captures a frame, detects the one color
the current phase watches, steers on the blob centroid when there is one
and else on the current imagined segment target (or holds), and fires at
most one state transition when its condition is met.

The four kinds:

  TRACK_VISIBLE         servo onto a marker already in view and hover.
  FORWARD_SEARCH_HOVER  fly an imagined trajectory until the search color
                        appears, then servo and hover.
  SEARCH_RETURN_LAND    as above, then retrace the outbound motion log,
                        servo onto the home color and land on it.
  CARRIER_COORDINATION  same chain, with the home pad provided by the
                        carrier robot the vehicle took off from.

While searching and servoing outbound, every nonzero command is appended
to a motion log together with the target that produced it; the return leg
replays that log reflected about the image center (see imagination).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from .control import (ZERO_COMMAND, ControllerGains, VelocityCommand,
                      compute_command, pixel_error)
from .geometry import FrameSpec, PixelPoint, Pose
from .imagination import (Distance, Duration, EmptyLogError, ImaginedSegment,
                          ImaginedTrajectory, MarkerDetected, MotionLog,
                          forward_target, reverse, square_trajectory)
from .perception import Color, Detection, Frame, Marker, detect
from .sim import (NoiseModel, SimConfig, TrajectoryRow, WorldState, capture,
                  make_world, step)

HOVER_DWELL_S = 1.0          # time to sit on the found marker before returning
LAND_THRESHOLD_PX = 20.0     # centering tolerance that arms the descent
LAND_DWELL_TICKS = 5         # consecutive in-tolerance ticks required to land
LOST_PATIENCE_TICKS = 10     # detection dropouts tolerated while servoing
DEFAULT_TIMEOUT_S = 120.0
MAX_MISSION_TICKS = 1_000_000  # tick budget of one mission: timeout / dt may not exceed it

_ALTITUDE_EPS = 1e-9


class MissionKind(Enum):
    TRACK_VISIBLE = "track"
    FORWARD_SEARCH_HOVER = "forward"
    SEARCH_RETURN_LAND = "return"
    CARRIER_COORDINATION = "coordination"


_RETURNING_KINDS = (MissionKind.SEARCH_RETURN_LAND, MissionKind.CARRIER_COORDINATION)


class Phase(Enum):
    ON_CARRIER = "on_carrier"
    TAKING_OFF = "taking_off"
    SEARCHING = "searching"
    SERVOING = "servoing"
    HOVERING_ON_TARGET = "hovering_on_target"
    REVERSING = "reversing"
    SERVOING_HOME = "servoing_home"
    LANDING = "landing"
    LANDED = "landed"
    FAILED = "failed"


#: Legal phase changes.  Self-loops are implicit and any phase may fail.
TRANSITIONS = frozenset({
    (Phase.ON_CARRIER, Phase.TAKING_OFF),
    (Phase.TAKING_OFF, Phase.SEARCHING),
    (Phase.SEARCHING, Phase.SERVOING),
    (Phase.SERVOING, Phase.SEARCHING),        # detection lost too long
    (Phase.SERVOING, Phase.HOVERING_ON_TARGET),
    (Phase.HOVERING_ON_TARGET, Phase.REVERSING),
    (Phase.REVERSING, Phase.SERVOING_HOME),
    (Phase.SERVOING_HOME, Phase.LANDING),
    (Phase.LANDING, Phase.LANDED),
})


class AbsorbingStateError(RuntimeError):
    """tick() called on a mission that already Landed or Failed."""


class ScenarioError(ValueError):
    """A mission/scenario configuration is malformed."""


@dataclass(frozen=True)
class MissionSpec:
    """What a mission is asked to do; world-independent."""

    kind: MissionKind
    search_color: Color = Color.PINK
    home_color: Optional[Color] = Color.BLUE
    trajectory: Optional[ImaginedTrajectory] = None
    timeout: float = DEFAULT_TIMEOUT_S

    def __post_init__(self) -> None:
        if not self.timeout > 0 or not math.isfinite(self.timeout):
            raise ScenarioError("timeout must be positive and finite")
        if self.kind in _RETURNING_KINDS and self.home_color is None:
            raise ScenarioError(f"{self.kind.value} missions need a home_color")
        if self.kind is not MissionKind.TRACK_VISIBLE and self.trajectory is None:
            raise ScenarioError(f"{self.kind.value} missions need a search trajectory")


@dataclass
class MissionState:
    """Mutable FSM state plus per-phase bookkeeping; owned by one loop."""

    phase: Phase
    segment_index: int = 0
    fail_reason: Optional[str] = None
    log: MotionLog = field(default_factory=MotionLog)
    elapsed: float = 0.0
    ticks: int = 0
    succeeded: bool = False
    # bookkeeping
    segment_elapsed: float = 0.0
    segment_start_xy: tuple[float, float] = (0.0, 0.0)
    hover_elapsed: float = 0.0
    land_streak: int = 0
    lost_ticks: int = 0
    reversal: Optional[ImaginedTrajectory] = None
    # outputs of the latest tick, consumed by run()
    last_detected: Optional[Color] = None
    last_err: Optional[float] = None
    last_frame: Optional[Frame] = None

    @property
    def done(self) -> bool:
        return self.succeeded or self.phase in (Phase.LANDED, Phase.FAILED)

    def climb_rate(self, cfg: SimConfig) -> float:
        """Vertical speed of the step after a tick that ends in this phase."""
        if self.phase is Phase.TAKING_OFF:
            return cfg.climb_rate
        return -cfg.descent_rate if self.phase is Phase.LANDING else 0.0

    def label(self, spec: MissionSpec) -> str:
        """Canonical state string used in trajectory logs."""
        if self.phase is Phase.SEARCHING or self.phase is Phase.REVERSING:
            return f"{self.phase.value}:{self.segment_index}"
        if self.phase is Phase.SERVOING:
            return f"{self.phase.value}:{spec.search_color.name.lower()}"
        if self.phase is Phase.FAILED and self.fail_reason:
            return f"{self.phase.value}:{self.fail_reason}"
        return self.phase.value


def initial_state(spec: MissionSpec) -> MissionState:
    """TRACK_VISIBLE starts airborne and servoing; the rest start on the
    carrier and take off first."""
    if spec.kind is MissionKind.TRACK_VISIBLE:
        return MissionState(phase=Phase.SERVOING)
    return MissionState(phase=Phase.ON_CARRIER)


#: Phases that watch the search color (the rest watch the home color) and
#: whose moving commands make up the outbound motion log.
_OUTBOUND_PHASES = (Phase.SEARCHING, Phase.SERVOING, Phase.HOVERING_ON_TARGET)

#: What a tick steers on and the command it produced; no target means hold.
_Action = tuple[Optional[PixelPoint], VelocityCommand]


def _fail(state: MissionState, reason: str) -> _Action:
    state.phase = Phase.FAILED
    state.fail_reason = reason
    return None, ZERO_COMMAND


def _steer(state: MissionState, target: PixelPoint, gains: ControllerGains,
           cfg: SimConfig) -> VelocityCommand:
    """Proportional command towards a blob centroid or an imagined target."""
    err = pixel_error(target, cfg.frame.center)
    state.last_err = err.norm()
    return compute_command(err, gains)


def _enter_segment(state: MissionState, index: int, world: WorldState) -> None:
    state.segment_index = index
    state.segment_elapsed = 0.0
    state.segment_start_xy = (world.drone.x, world.drone.y)


def _start_leg(state: MissionState, traj: ImaginedTrajectory, world: WorldState,
               cfg: SimConfig) -> _Action:
    """Fly the first segment of a search or return leg from the current pose."""
    _enter_segment(state, 0, world)
    state.segment_elapsed += cfg.dt
    target = traj.segments[0].target
    return target, _steer(state, target, cfg.gains, cfg)


def _segment_expired(state: MissionState, seg: ImaginedSegment,
                     world: WorldState, frame: Frame, cfg: SimConfig) -> bool:
    """Evaluate the segment's own termination rule."""
    rule = seg.terminate_on
    if isinstance(rule, MarkerDetected):
        return detect(frame, rule.color, cfg.min_blob_size) is not None
    if isinstance(rule, Duration):
        return state.segment_elapsed >= rule.seconds - 1e-9
    if isinstance(rule, Distance):
        sx, sy = state.segment_start_xy
        moved = math.hypot(world.drone.x - sx, world.drone.y - sy)
        return moved >= rule.meters - 1e-12
    raise TypeError(f"unknown termination rule {rule!r}")


def _follow(state: MissionState, traj: ImaginedTrajectory, world: WorldState,
            frame: Frame, cfg: SimConfig) -> Optional[PixelPoint]:
    """Target of the segment to fly this tick, moving on to the next one
    once the current segment has expired.  None once the last segment has
    expired; segment_index then stays one past the end."""
    segments = traj.segments
    i = state.segment_index
    if i < len(segments) and _segment_expired(state, segments[i], world, frame, cfg):
        _enter_segment(state, i + 1, world)
    if state.segment_index == len(segments):
        return None
    state.segment_elapsed += cfg.dt
    return segments[state.segment_index].target


def tick(state: MissionState, spec: MissionSpec, world: WorldState,
         cfg: SimConfig) -> tuple[MissionState, VelocityCommand]:
    """One FSM evaluation.  Mutates and returns ``state``.

    The drone pose in ``world`` is touched only at liftoff (takeoff
    jitter) and when snapping altitude at the top of the climb and at
    touchdown; all other motion goes through sim.step, driven by the
    returned command and state.climb_rate(cfg).

    Raises AbsorbingStateError when called after Landed or Failed.
    """
    if state.phase in (Phase.LANDED, Phase.FAILED):
        raise AbsorbingStateError(f"mission already {state.phase.value}")

    state.last_detected = state.last_err = state.last_frame = None
    sigma = cfg.noise.takeoff_jitter_std
    if state.ticks == 0 and sigma > 0:
        jx, jy = world.rng.normal(0.0, sigma, 2).tolist()
        world.drone = replace(world.drone, x=world.drone.x + jx, y=world.drone.y + jy)

    target, cmd = _act(state, spec, world, cfg)
    if state.phase in _OUTBOUND_PHASES and (cmd.vel_forward != 0.0 or cmd.vel_right != 0.0):
        state.log.append(state.elapsed, cmd, cfg.dt, target)

    state.ticks += 1
    state.elapsed = state.ticks * cfg.dt
    return state, cmd


def _act(state: MissionState, spec: MissionSpec, world: WorldState,
         cfg: SimConfig) -> _Action:
    """Fire at most one phase change and choose this tick's command."""
    phase = state.phase
    # steps that act without looking
    if state.elapsed >= spec.timeout:
        return _fail(state, "timeout")
    if phase is Phase.ON_CARRIER or (
            phase is Phase.TAKING_OFF and world.drone.z < cfg.altitude - _ALTITUDE_EPS):
        state.phase = Phase.TAKING_OFF
        return None, ZERO_COMMAND
    if phase is Phase.TAKING_OFF:
        world.drone = replace(world.drone, z=cfg.altitude)  # hold altitude exactly
        state.phase = Phase.SEARCHING
        return _start_leg(state, spec.trajectory, world, cfg)
    if phase is Phase.HOVERING_ON_TARGET and state.hover_elapsed >= HOVER_DWELL_S - 1e-9:
        if spec.kind not in _RETURNING_KINDS:
            state.succeeded = True  # and hold over the marker for this last tick
        else:
            try:
                state.reversal = reverse(state.log, cfg.frame)
            except EmptyLogError:
                return _fail(state, "reversal_unavailable")
            state.phase = Phase.REVERSING
            return _start_leg(state, state.reversal, world, cfg)
    if phase is Phase.LANDING and world.drone.z <= cfg.carrier_height + _ALTITUDE_EPS:
        world.drone = replace(world.drone, z=cfg.carrier_height)
        state.phase = Phase.LANDED
        state.succeeded = True
        return None, ZERO_COMMAND

    # look for the one color this phase cares about
    watched = spec.search_color if phase in _OUTBOUND_PHASES else spec.home_color
    frame = state.last_frame = capture(world, cfg)
    det = detect(frame, watched, cfg.min_blob_size)
    if phase is Phase.HOVERING_ON_TARGET:
        state.hover_elapsed += cfg.dt
    if det is None:
        return _on_miss(state, spec, world, frame, cfg)
    return _on_hit(state, det, cfg)


def _on_miss(state: MissionState, spec: MissionSpec, world: WorldState, frame: Frame,
             cfg: SimConfig) -> _Action:
    """Nothing of the watched color in view: fly the current leg or hold."""
    phase = state.phase
    if phase is Phase.SEARCHING or phase is Phase.REVERSING:
        leg = spec.trajectory if phase is Phase.SEARCHING else state.reversal
        target = _follow(state, leg, world, frame, cfg)
        if target is not None:
            return target, _steer(state, target, cfg.gains, cfg)
        if phase is Phase.SEARCHING:
            return _fail(state, "search_exhausted")
        # an exhausted replay holds and keeps scanning for home
    elif phase is Phase.SERVOING:
        state.lost_ticks += 1
        if spec.trajectory is not None and state.lost_ticks > LOST_PATIENCE_TICKS:
            # resume the interrupted search segment from the current pose
            state.phase = Phase.SEARCHING
            state.lost_ticks = 0
            _enter_segment(state, state.segment_index, world)
    elif phase is Phase.SERVOING_HOME:
        state.land_streak = 0
    return None, ZERO_COMMAND


def _on_hit(state: MissionState, det: Detection, cfg: SimConfig) -> _Action:
    """Servo on the detected blob and take the phase change it earns."""
    phase = state.phase
    state.last_detected = det.color
    gains = cfg.gains
    if phase is Phase.SERVOING_HOME or phase is Phase.LANDING:
        gains = replace(gains, hover_threshold=LAND_THRESHOLD_PX)
    cmd = _steer(state, det.center, gains, cfg)
    if phase is Phase.SEARCHING:
        state.phase = Phase.SERVOING
        state.lost_ticks = 0
    elif phase is Phase.SERVOING:
        state.lost_ticks = 0
        if cmd.hovering:
            state.phase = Phase.HOVERING_ON_TARGET
            state.hover_elapsed = 0.0
    elif phase is Phase.REVERSING:
        state.phase = Phase.SERVOING_HOME
        state.land_streak = 0
    elif phase is Phase.SERVOING_HOME:
        state.land_streak = state.land_streak + 1 if cmd.hovering else 0
        if state.land_streak >= LAND_DWELL_TICKS:
            state.phase = Phase.LANDING
    return det.center, cmd


@dataclass(frozen=True)
class MissionResult:
    success: bool
    outcome: str                 # "success" or "failed:<reason>"
    elapsed_s: float
    ticks: int
    final_pose: Pose
    rows: tuple[TrajectoryRow, ...]


def run(spec: MissionSpec, world: WorldState, cfg: SimConfig,
        frame_sink: Optional[Callable[[int, Frame], None]] = None) -> MissionResult:
    """Tick the mission until it succeeds, lands, fails or times out.

    Advances ``world`` in place.  One TrajectoryRow is recorded per tick
    (pose before the integration step, post-transition state label).
    frame_sink, when given, receives every captured frame as
    (step_index, frame).
    """
    state = initial_state(spec)
    rows: list[TrajectoryRow] = []
    while True:
        state, cmd = tick(state, spec, world, cfg)
        rows.append(TrajectoryRow(
            step=world.steps,
            time_s=world.time,
            drone_x=world.drone.x,
            drone_y=world.drone.y,
            drone_z=world.drone.z,
            vel_fwd=cmd.vel_forward,
            vel_right=cmd.vel_right,
            fsm_state=state.label(spec),
            detected_color=state.last_detected.name.lower() if state.last_detected else "",
            err_px=state.last_err,
        ))
        if frame_sink is not None and state.last_frame is not None:
            frame_sink(world.steps, state.last_frame)
        if state.done:
            break
        step(world, cmd, cfg, vz=state.climb_rate(cfg))
    outcome = "success" if state.succeeded else f"failed:{state.fail_reason}"
    return MissionResult(
        success=state.succeeded,
        outcome=outcome,
        elapsed_s=state.elapsed,
        ticks=state.ticks,
        final_pose=world.drone,
        rows=tuple(rows),
    )


def fly_trajectory(traj: ImaginedTrajectory, world: WorldState,
                   cfg: SimConfig) -> MotionLog:
    """Fly Duration-terminated segments open loop (no perception).

    Each segment becomes one motion-log entry; durations execute to the
    nearest whole step since the world is dt-quantized.  Useful for
    pattern flights and reversal studies; closed-loop missions use run().
    """
    log = MotionLog()
    for seg in traj.segments:
        if not isinstance(seg.terminate_on, Duration):
            raise ValueError("fly_trajectory handles Duration-terminated segments only")
        err = pixel_error(seg.target, cfg.frame.center)
        cmd = compute_command(err, cfg.gains)
        n_steps = max(1, round(seg.terminate_on.seconds / cfg.dt))
        start_time = world.time
        for _ in range(n_steps):
            step(world, cmd, cfg)
        log.append(start_time, cmd, n_steps * cfg.dt, seg.target)
    return log


def audit_transitions(labels: list[str]) -> list[str]:
    """Check a logged fsm_state sequence against the documented edge set.

    Returns a list of violation descriptions; empty means every observed
    transition is legal (self-loops and failures from any phase allowed).
    """
    violations = []
    phases = []
    for lab in labels:
        name = lab.split(":", 1)[0]
        try:
            phases.append(Phase(name))
        except ValueError:
            violations.append(f"unknown state label {lab!r}")
            phases.append(None)
    for i in range(1, len(phases)):
        a, b = phases[i - 1], phases[i]
        if a is None or b is None or a is b or b is Phase.FAILED:
            continue
        if (a, b) not in TRANSITIONS:
            violations.append(f"illegal transition {a.value} -> {b.value} at row {i}")
    return violations


# --- scenarios and their config files ---------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A mission spec plus the world it runs in; seeds make worlds.

    trials and base_seed are optional campaign defaults carried from a
    config file; explicit CLI flags take precedence over them.  Raises
    ScenarioError when timeout / dt exceeds MAX_MISSION_TICKS, so no run
    can be practically endless.
    """

    spec: MissionSpec
    cfg: SimConfig
    markers: tuple[Marker, ...] = ()
    drone_start: tuple[float, float] = (0.0, 0.0)
    carrier_start: Optional[tuple[float, float]] = None
    trials: Optional[int] = None
    base_seed: Optional[int] = None

    def __post_init__(self) -> None:
        ticks = self.spec.timeout / self.cfg.dt
        if ticks > MAX_MISSION_TICKS:
            raise ScenarioError(
                f"timeout_s {self.spec.timeout} at dt {self.cfg.dt} allows {ticks:.4g} ticks "
                f"per mission, over the budget of {MAX_MISSION_TICKS}")

    def make_world(self, seed: int) -> WorldState:
        x, y = self.drone_start
        z = self.cfg.altitude if self.spec.kind is MissionKind.TRACK_VISIBLE \
            else self.cfg.carrier_height
        cx, cy = self.carrier_start if self.carrier_start is not None else self.drone_start
        return make_world(seed, self.markers,
                          drone=Pose(x, y, z, 0.0),
                          carrier=Pose(cx, cy, 0.0, 0.0))


def forward_search_trajectory(frame: FrameSpec, search_color: Color) -> ImaginedTrajectory:
    """A single forward imagined segment that ends when the color appears."""
    return ImaginedTrajectory((
        ImaginedSegment(forward_target(frame), MarkerDetected(search_color)),
    ))


def default_scenario(task: str, noise: Optional[NoiseModel] = None) -> Scenario:
    """Built-in scenario for a CLI task name.

    track:        pink marker in view 0.3 m ahead, 0.2 m left of the start.
    forward:      pink marker 2.0 m ahead; forward search, hover on it.
    return:       as forward, then retrace and land on the home pad.
    coordination: as return, taking off from and landing on the carrier.
    """
    try:
        kind = MissionKind(task)
    except ValueError:
        raise ScenarioError(f"unknown task {task!r} (expected "
                            + "|".join(k.value for k in MissionKind) + ")") from None
    cfg = SimConfig() if noise is None else SimConfig(noise=noise)
    if kind is MissionKind.TRACK_VISIBLE:
        return Scenario(MissionSpec(kind), cfg, markers=(Marker((0.3, 0.2), 0.06, Color.PINK),))
    spec = MissionSpec(kind, trajectory=forward_search_trajectory(cfg.frame, Color.PINK))
    return Scenario(spec, cfg, markers=(Marker((2.0, 0.0), 0.06, Color.PINK),))


def _parse_color(name: str) -> Color:
    try:
        return Color[name.upper()]
    except KeyError:
        raise ScenarioError(f"unknown color {name!r}; known: "
                            + ", ".join(c.name.lower() for c in Color)) from None


def _parse_termination(node: dict):
    kind = node.get("type")
    if kind == "marker":
        return MarkerDetected(_parse_color(node["color"]))
    if kind == "duration":
        return Duration(float(node["seconds"]))
    if kind == "distance":
        return Distance(float(node["meters"]))
    raise ScenarioError(f"unknown termination type {kind!r}")


def _parse_trajectory(node: dict, frame: FrameSpec, search_color: Color) -> ImaginedTrajectory:
    kind = node.get("type", "forward")
    if kind == "forward":
        return forward_search_trajectory(frame, search_color)
    if kind == "square":
        return square_trajectory(frame, float(node["side_duration_s"]),
                                 float(node.get("offset_px", 100.0)))
    if kind == "segments":
        segs = []
        for s in node["segments"]:
            tx, ty = s["target"]
            segs.append(ImaginedSegment(PixelPoint(float(tx), float(ty)),
                                        _parse_termination(s["until"])))
        return ImaginedTrajectory(tuple(segs))
    raise ScenarioError(f"unknown trajectory type {kind!r}")


def _finite_pair(key: str, value) -> tuple[float, float]:
    """A config [x, y] point as a tuple, rejected here, naming its key,
    when a coordinate is not finite (it would fail mid-run otherwise)."""
    pair = tuple(value)
    if len(pair) != 2 or not all(math.isfinite(v) for v in pair):
        raise ScenarioError(f"{key} must be a finite [x, y] pair, got {value!r}")
    return pair


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario from a JSON config file; see build_scenario for the
    schema.  Raises ScenarioError on any malformed content."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("config root must be a JSON object")
    return build_scenario(data)


def build_scenario(data: dict) -> Scenario:
    """Build a Scenario from a config tree.

    Schema (all keys optional except "task")::

        {
          "task": "track" | "forward" | "return" | "coordination",
          "search_color": "pink",
          "home_color": "blue",
          "timeout_s": 120.0,
          "trials": 20,
          "base_seed": 0,
          "markers": [{"x": 2.0, "y": 0.0, "radius": 0.06, "color": "pink"}],
          "drone_start": [0.0, 0.0],
          "carrier_start": [0.0, 0.0],
          "trajectory": {"type": "forward"}
                        | {"type": "square", "side_duration_s": 4.0, "offset_px": 100}
                        | {"type": "segments", "segments": [
                             {"target": [320, 80],
                              "until": {"type": "marker", "color": "pink"}
                                       | {"type": "duration", "seconds": 5.0}
                                       | {"type": "distance", "meters": 1.0}}]},
          "sim": {
            "dt": 0.1, "altitude": 1.0, "min_blob_size": 10,
            "frame": {"width": 640, "height": 360, "focal_length": 320.0},
            "gains": {"k": 0.0005, "hover_threshold": 50.0, "max_speed": 1.0,
                      "literal_axes": false},
            "noise": {"drift_std": 0.01, "takeoff_jitter_std": 0.05},
            "carrier_height": 0.0, "carrier_marker_radius": 0.1,
            "carrier_speed": 0.3, "carrier_waypoints": [[1.0, 0.0]],
            "climb_rate": 0.5, "descent_rate": 0.3
          }
        }
    """
    try:
        task = data["task"]
    except KeyError:
        raise ScenarioError('config is missing the "task" key') from None
    base = default_scenario(task)

    try:
        sim_node = dict(data.get("sim", {}))
        frame_node = sim_node.pop("frame", None)
        gains_node = sim_node.pop("gains", None)
        noise_node = sim_node.pop("noise", None)
        frame = FrameSpec(**frame_node) if frame_node else base.cfg.frame
        gains = ControllerGains(**gains_node) if gains_node else base.cfg.gains
        noise = NoiseModel(**noise_node) if noise_node else base.cfg.noise
        if "carrier_waypoints" in sim_node:
            sim_node["carrier_waypoints"] = tuple(
                _finite_pair("carrier_waypoints", wp) for wp in sim_node["carrier_waypoints"])
        cfg = replace(base.cfg, frame=frame, gains=gains, noise=noise, **sim_node)

        search_color = _parse_color(data.get("search_color", base.spec.search_color.name))
        home_color = _parse_color(data["home_color"]) if "home_color" in data \
            else base.spec.home_color
        if base.spec.kind is MissionKind.TRACK_VISIBLE:
            trajectory = None
        else:
            trajectory = _parse_trajectory(data.get("trajectory", {"type": "forward"}),
                                           cfg.frame, search_color)
        spec = MissionSpec(kind=base.spec.kind,
                           search_color=search_color,
                           home_color=home_color,
                           trajectory=trajectory,
                           timeout=float(data.get("timeout_s", DEFAULT_TIMEOUT_S)))

        markers = base.markers
        if "markers" in data:
            markers = tuple(
                Marker((float(m["x"]), float(m["y"])), float(m["radius"]),
                       _parse_color(m["color"]))
                for m in data["markers"])
        drone_start = _finite_pair("drone_start", data["drone_start"]) \
            if "drone_start" in data else base.drone_start
        carrier_start = _finite_pair("carrier_start", data["carrier_start"]) \
            if "carrier_start" in data else None
        trials = int(data["trials"]) if "trials" in data else None
        base_seed = int(data["base_seed"]) if "base_seed" in data else None
        if trials is not None and trials < 1:
            raise ScenarioError("trials must be >= 1")
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad config value: {exc}") from exc

    return Scenario(spec=spec, cfg=cfg, markers=markers,
                    drone_start=drone_start, carrier_start=carrier_start,
                    trials=trials, base_seed=base_seed)
