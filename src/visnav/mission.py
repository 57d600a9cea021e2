"""Mission state machines: take off, search, servo, hover, reverse, land.

Every tick runs blind step -> look -> act.  The blind step acts without
looking: timeout, liftoff and climb, top of the climb, a returning
mission's hover end, touchdown.  Else the tick captures a frame, detects
the color its phase watches, steers on the blob centroid or the imagined
segment target (or holds), and fires at most one phase change.  tick
returns (command, err_px, detected, frame); no state keeps them.

The four kinds:

  TRACK_VISIBLE         servo onto a marker already in view and hover.
  FORWARD_SEARCH_HOVER  fly an imagined trajectory until the search color
                        appears, then servo and hover.
  SEARCH_RETURN_LAND    as above, then retrace the outbound motion log,
                        servo onto the home color and land on it.
  CARRIER_COORDINATION  same chain, with the home pad provided by the
                        carrier robot the vehicle took off from.

While searching and servoing outbound, each stretch of ticks with the
same nonzero command and target becomes one motion-log entry; the return
leg replays that log, one segment per entry, reflected about the image
center (see imagination).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from .control import (ZERO_COMMAND, ControllerGains, VelocityCommand,
                      compute_command, pixel_error)
from .geometry import FrameSpec, PixelPoint, Pose
from .imagination import (DEFAULT_OFFSET_PX, Distance, Duration, EmptyLogError,
                          ImaginedSegment, ImaginedTrajectory, LogEntry, MarkerDetected,
                          MotionLog, forward_target, reverse, square_trajectory)
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
    """tick() called on a mission that is already done: succeeded or failed."""


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
        track = self.kind is MissionKind.TRACK_VISIBLE
        if track != (self.trajectory is None):
            raise ScenarioError("track missions take no search trajectory" if track
                                else f"{self.kind.value} missions need a search trajectory")


@dataclass
class MissionState:
    """FSM state and per-phase bookkeeping carried from tick to tick, owned by
    one loop; what a tick commands and sees is tick's return value."""

    phase: Phase = field(init=False)  # phase and label are written only by _enter
    label: str = field(init=False)  # fsm_state of the trajectory log
    segment_index: int = 0
    log: MotionLog = field(default_factory=MotionLog)
    ticks: int = 0
    done: bool = False  # set where the mission lands, fails or ends its track/forward hover
    # bookkeeping
    count: int = 0  # the phase's one counter, zeroed by _enter; see tick
    leg: Optional[ImaginedTrajectory] = None  # flown while searching or reversing
    segment_start_xy: tuple[float, float] = (0.0, 0.0)
    segment_command: tuple[float, VelocityCommand] = (0.0, ZERO_COMMAND)

    def climb_rate(self, cfg: SimConfig) -> float:
        """Vertical speed of the step after a tick that ends in this phase."""
        if self.phase is Phase.TAKING_OFF:
            return cfg.climb_rate
        return -cfg.descent_rate if self.phase is Phase.LANDING else 0.0


def initial_state(spec: MissionSpec) -> MissionState:
    """TRACK_VISIBLE starts airborne and servoing; the rest start on the
    carrier, taking off."""
    state = MissionState()
    if spec.kind is MissionKind.TRACK_VISIBLE:
        _enter(state, Phase.SERVOING, _COLOR_NAMES[spec.search_color])
    else:
        _enter(state, Phase.TAKING_OFF)
    return state


#: Color names as logged: a row's detected_color (None: nothing) and a servoing label's.
_COLOR_NAMES = {None: "", **{c: c.name.lower() for c in Color}}


#: Phases that watch the search color (the rest watch the home color) and
#: whose moving commands make up the outbound motion log.
_OUTBOUND_PHASES = (Phase.SEARCHING, Phase.SERVOING, Phase.HOVERING_ON_TARGET)

#: A tick's (target steered on or None: hold, command, err_px, detected color).
_Action = tuple[Optional[PixelPoint], VelocityCommand, Optional[float], Optional[Color]]
_HOLD: _Action = (None, ZERO_COMMAND, None, None)


def _enter(state: MissionState, phase: Phase, detail: str | int | None = None) -> None:
    """The one phase change: every phase starts with its counter at zero and
    its label, ``phase`` or ``phase:detail`` (a failure reason, the servoed
    color or a segment index)."""
    state.phase = phase
    state.label = phase.value if detail is None else f"{phase.value}:{detail}"
    state.count = 0


def _fail(state: MissionState, reason: str) -> _Action:
    _enter(state, Phase.FAILED, reason)
    state.done = True
    return _HOLD


def _command(target: PixelPoint, gains: ControllerGains,
             frame: FrameSpec) -> tuple[float, VelocityCommand]:
    """(error norm, command) of a proportional step towards ``target``."""
    err = pixel_error(target, frame.center)
    return err.norm(), compute_command(err, gains)


def _duration_ticks(rule: Duration, dt: float) -> float:
    """Ticks a Duration segment lasts: seconds / dt to the nearest whole
    tick (halves to even), at least one.  inf when seconds / dt overflows,
    so such a segment never expires."""
    n = rule.seconds / dt
    return max(1, round(n)) if n < math.inf else n


def _enter_segment(state: MissionState, phase: Phase, index: int, world: WorldState,
                   cfg: SimConfig) -> None:
    """Start segment ``index`` of the leg, searching or reversing, from the
    current pose.  An imagined target keeps its offset from the frame
    center, so the segment's error norm and command are fixed here."""
    _enter(state, phase, index)
    state.segment_index = index
    state.segment_start_xy = (world.drone.x, world.drone.y)
    state.segment_command = _command(state.leg.segments[index].target, cfg.gains, cfg.frame)


def _fly(state: MissionState) -> _Action:
    """One tick of the current segment of the leg."""
    state.count += 1
    err, cmd = state.segment_command
    return state.leg.segments[state.segment_index].target, cmd, err, None


def _segment_expired(state: MissionState, seg: ImaginedSegment, world: WorldState,
                     frame: Frame, absent: Color, cfg: SimConfig) -> bool:
    """Evaluate the segment's own termination rule; ``absent`` is the color
    this tick has already failed to detect in ``frame``."""
    rule = seg.terminate_on
    if isinstance(rule, MarkerDetected):
        return rule.color is not absent and \
            detect(frame, rule.color, cfg.min_blob_size) is not None
    if isinstance(rule, Duration):
        return state.count >= _duration_ticks(rule, cfg.dt)
    if isinstance(rule, Distance):
        sx, sy = state.segment_start_xy
        moved = math.hypot(world.drone.x - sx, world.drone.y - sy)
        return moved >= rule.meters - 1e-12
    raise TypeError(f"unknown termination rule {rule!r}")


def tick(state: MissionState, spec: MissionSpec, world: WorldState, cfg: SimConfig
         ) -> tuple[VelocityCommand, Optional[float], Optional[Color], Optional[Frame]]:
    """One FSM evaluation: the blind step, else a look and the act on it.

    Mutates ``state``; returns ``(command, err_px, detected, frame)``, None
    for what the tick did not produce (no frame on a blind step).
    state.count is the phase's one counter: segment ticks (searching,
    reversing), missed ticks in a row (servoing), ticks hovered, and
    centered ticks in a row (servoing_home).

    The drone pose in ``world`` is touched only at liftoff (takeoff
    jitter) and when snapping altitude at the top of the climb and at
    touchdown; all other motion goes through sim.step, driven by the
    returned command and state.climb_rate(cfg).

    Raises AbsorbingStateError once the mission is done (state.done).
    """
    if state.done:
        raise AbsorbingStateError(f"mission already done: {state.label}")

    sigma = cfg.noise.takeoff_jitter_std
    if state.ticks == 0 and sigma > 0:
        jx, jy = world.rng.normal(0.0, sigma, 2).tolist()
        world.drone = replace(world.drone, x=world.drone.x + jx, y=world.drone.y + jy)

    frame = None
    action = _act_blind(state, spec, world, cfg)
    if action is None:  # look for the one color this phase cares about
        watched = spec.search_color if state.phase in _OUTBOUND_PHASES else spec.home_color
        frame = capture(world, cfg)
        det = detect(frame, watched, cfg.min_blob_size)
        action = _on_hit(state, det, cfg) if det else _on_miss(state, world, frame, watched, cfg)
    target, cmd, err, detected = action

    if state.phase in _OUTBOUND_PHASES and (cmd.vel_forward != 0.0 or cmd.vel_right != 0.0):
        last = state.log.entries[-1] if state.log.entries else None
        if last and last.target == target and last.command == cmd:  # the stretch goes on
            state.log.entries[-1] = LogEntry(last.timestamp, cmd, last.duration + cfg.dt, target)
        else:
            state.log.append(state.ticks * cfg.dt, cmd, cfg.dt, target)

    state.ticks += 1
    return cmd, err, detected, frame


def _act_blind(state: MissionState, spec: MissionSpec, world: WorldState,
               cfg: SimConfig) -> Optional[_Action]:
    """The steps that act without looking, or None when the tick must look."""
    phase = state.phase
    if state.ticks * cfg.dt >= spec.timeout:
        return _fail(state, "timeout")
    if phase is Phase.TAKING_OFF:
        if state.ticks == 0 or world.drone.z < cfg.altitude - _ALTITUDE_EPS:
            return _HOLD  # liftoff, then the climb
        world.drone = replace(world.drone, z=cfg.altitude)  # hold altitude exactly
        state.leg = spec.trajectory
        _enter_segment(state, Phase.SEARCHING, 0, world, cfg)
        return _fly(state)
    if phase is Phase.HOVERING_ON_TARGET:
        if state.count * cfg.dt >= HOVER_DWELL_S - 1e-9:
            if spec.kind not in _RETURNING_KINDS:
                state.done = True  # and look, holding over the marker, this last tick
                return None
            try:
                state.leg = reverse(state.log, cfg.frame)
            except EmptyLogError:
                return _fail(state, "reversal_unavailable")
            _enter_segment(state, Phase.REVERSING, 0, world, cfg)
            return _fly(state)
        state.count += 1
    if phase is Phase.LANDING and world.drone.z <= cfg.carrier_height + _ALTITUDE_EPS:
        world.drone = replace(world.drone, z=cfg.carrier_height)
        _enter(state, Phase.LANDED)
        state.done = True
        return _HOLD
    return None


def _on_miss(state: MissionState, world: WorldState, frame: Frame, watched: Color,
             cfg: SimConfig) -> _Action:
    """Nothing of the watched color in view: fly the current leg, moving on
    to its next segment once the current one has expired, or hold.  The leg
    fails once its last segment has expired."""
    phase = state.phase
    if phase is Phase.SEARCHING or phase is Phase.REVERSING:
        segments, i = state.leg.segments, state.segment_index
        if _segment_expired(state, segments[i], world, frame, watched, cfg):
            if i + 1 == len(segments):
                return _fail(state, "search_exhausted" if phase is Phase.SEARCHING
                             else "return_exhausted")
            _enter_segment(state, phase, i + 1, world, cfg)
        return _fly(state)
    elif phase is Phase.SERVOING:
        state.count += 1
        if state.leg is not None and state.count > LOST_PATIENCE_TICKS:
            # resume the interrupted search segment from the current pose
            _enter_segment(state, Phase.SEARCHING, state.segment_index, world, cfg)
    elif phase is Phase.SERVOING_HOME:
        state.count = 0
    return _HOLD


def _on_hit(state: MissionState, det: Detection, cfg: SimConfig) -> _Action:
    """Servo on the detected blob and take the phase change it earns."""
    phase = state.phase
    landing = phase is Phase.SERVOING_HOME or phase is Phase.LANDING
    gains = replace(cfg.gains, hover_threshold=LAND_THRESHOLD_PX) if landing else cfg.gains
    err, cmd = _command(det.center, gains, cfg.frame)
    if phase is Phase.SEARCHING:
        _enter(state, Phase.SERVOING, _COLOR_NAMES[det.color])
    elif phase is Phase.SERVOING:
        state.count = 0
        if cmd.hovering:
            _enter(state, Phase.HOVERING_ON_TARGET)
    elif phase is Phase.REVERSING:
        _enter(state, Phase.SERVOING_HOME)
    elif phase is Phase.SERVOING_HOME:
        state.count = state.count + 1 if cmd.hovering else 0
        if state.count >= LAND_DWELL_TICKS:
            _enter(state, Phase.LANDING)
    return det.center, cmd, err, det.color


@dataclass(frozen=True)
class MissionResult:
    success: bool
    outcome: str                 # "success" or the final label, "failed:<reason>"
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
        cmd, err, detected, frame = tick(state, spec, world, cfg)
        drone = world.drone
        rows.append(TrajectoryRow(world.steps, world.time, drone.x, drone.y, drone.z,
                                  cmd.vel_forward, cmd.vel_right, state.label,
                                  _COLOR_NAMES[detected], err))
        if frame_sink is not None and frame is not None:
            frame_sink(world.steps, frame)
        if state.done:
            break
        step(world, cmd, cfg, vz=state.climb_rate(cfg))
    success = state.phase is not Phase.FAILED
    return MissionResult(
        success=success,
        outcome="success" if success else state.label,
        elapsed_s=state.ticks * cfg.dt,
        ticks=state.ticks,
        final_pose=world.drone,
        rows=tuple(rows),
    )


def fly_trajectory(traj: ImaginedTrajectory, world: WorldState,
                   cfg: SimConfig) -> MotionLog:
    """Fly Duration-terminated segments open loop (no perception).

    Each segment becomes one motion-log entry.  The world is dt-quantized,
    so a segment lasts seconds / dt rounded to the nearest whole tick
    (halves to even), at least one: the same rule as a Duration segment
    of a closed-loop mission in run().  A segment is one ``step`` call over
    all its ticks, bit-identical to stepping it tick by tick.  Useful for
    pattern flights and reversal studies; closed-loop missions use run().

    Every segment is checked before the first step, so a flight that raises
    leaves ``world`` untouched: ValueError names the first segment that is
    not Duration-terminated or that takes the flight over MAX_MISSION_TICKS.
    """
    ticks, total = [], 0
    for seg in traj.segments:
        if not isinstance(seg.terminate_on, Duration):
            raise ValueError(f"segment {len(ticks)}: fly_trajectory handles "
                             "Duration-terminated segments only")
        n = _duration_ticks(seg.terminate_on, cfg.dt)
        total += n
        if total > MAX_MISSION_TICKS:
            raise ValueError(f"segment {len(ticks)} takes the flight to {total:.4g} ticks, "
                             f"over the budget of {MAX_MISSION_TICKS}")
        ticks.append(n)
    log = MotionLog()
    for seg, n_steps in zip(traj.segments, ticks):
        _, cmd = _command(seg.target, cfg.gains, cfg.frame)
        start_time = world.time
        step(world, cmd, cfg, ticks=n_steps)
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


def _parse_color(key: str, name) -> Color:
    """A config color: a JSON string naming a Color, in any case.  Any
    other JSON value, or an unknown name, is rejected, naming its key."""
    if not isinstance(name, str):
        raise ScenarioError(f"{key} must be a color name string, got {name!r}")
    try:
        return Color[name.upper()]
    except KeyError:
        raise ScenarioError(f"{key}: unknown color {name!r}; known: "
                            + ", ".join(c.name.lower() for c in Color)) from None


def _object(where: str, node, known: tuple[str, ...]) -> dict:
    """A config JSON object, rejected, naming the key, when it holds a key
    outside ``known``: a misspelt key would fall back to its default."""
    if not isinstance(node, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {node!r}")
    for key in node:
        if key not in known:
            raise ScenarioError(f"unknown {where} key {key!r}; known: {', '.join(known)}")
    return node


def _settings(where: str, node, default) -> dict:
    """The settings of a config section, whose keys are the fields of
    ``default``'s dataclass.  A setting whose default is a number must be a
    JSON number that a float holds; one whose default is a float is read as
    a float, so 1 and 1.0 build the same world.  The dataclass checks the
    rest."""
    _object(where, node, tuple(f.name for f in fields(default)))
    settings = dict(node)
    for key, value in node.items():
        kind = type(getattr(default, key))
        if kind in (int, float):
            number = _number(key, value)
            if kind is float:
                settings[key] = number
    return settings


def _typed(where: str, node, types: dict[str, tuple[str, ...]],
           default: Optional[str]) -> str:
    """The "type" of a config object (``default`` when absent), one of
    ``types``' keys; besides "type" the object may hold only the keys
    that type lists."""
    if not isinstance(node, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {node!r}")
    kind = node.get("type", default)
    if not isinstance(kind, str) or kind not in types:
        raise ScenarioError(f"unknown {where} type {kind!r}")
    _object(f"{kind} {where}", node, ("type", *types[kind]))
    return kind


def _parse_marker(node) -> Marker:
    m = _object("marker", node, ("x", "y", "radius", "color"))
    return Marker((_number("x", m["x"]), _number("y", m["y"])),
                  _number("radius", m["radius"]), _parse_color("color", m["color"]))


def _parse_termination(node: dict):
    kind = _typed("termination", node,
                  {"marker": ("color",), "duration": ("seconds",), "distance": ("meters",)}, None)
    if kind == "marker":
        return MarkerDetected(_parse_color("color", node["color"]))
    if kind == "duration":
        return Duration(_number("seconds", node["seconds"]))
    return Distance(_number("meters", node["meters"]))


def _parse_trajectory(node: dict, frame: FrameSpec, search_color: Color) -> ImaginedTrajectory:
    kind = _typed("trajectory", node, {"forward": (), "square": ("side_duration_s", "offset_px"),
                                       "segments": ("segments",)}, "forward")
    if kind == "forward":
        return forward_search_trajectory(frame, search_color)
    if kind == "square":
        return square_trajectory(frame, _number("side_duration_s", node["side_duration_s"]),
                                 _number("offset_px", node.get("offset_px", DEFAULT_OFFSET_PX)))
    segs = []
    for s in _array("segments", node["segments"]):
        _object("segment", s, ("target", "until"))
        segs.append(ImaginedSegment(PixelPoint(*_finite_pair("target", s["target"])),
                                    _parse_termination(s["until"])))
    return ImaginedTrajectory(tuple(segs))


def _array(key: str, value) -> list:
    """A config JSON array; any other JSON value is rejected, naming its key."""
    if not isinstance(value, list):
        raise ScenarioError(f"{key} must be a JSON array, got {value!r}")
    return value


def _finite_pair(key: str, value) -> tuple[float, float]:
    """A config [x, y] point as a tuple of floats, rejected here, naming
    its key, unless it is a JSON array of two finite numbers (it fails
    mid-run otherwise)."""
    if not (isinstance(value, list) and len(value) == 2
            and all(type(v) in (int, float) and math.isfinite(v) for v in value)):
        raise ScenarioError(f"{key} must be a finite [x, y] pair, got {value!r}")
    return float(value[0]), float(value[1])


def _number(key: str, value) -> float:
    """A config number as a float.  Any other JSON value (a bool, string,
    null, list or object) is rejected, naming its key, not coerced."""
    if type(value) not in (int, float):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    return float(value)


def _config_int(data: dict, key: str) -> Optional[int]:
    """An optional config integer, None when absent.  Any other JSON value
    (a float, bool, string or null) is rejected, naming its key, rather than
    truncated or coerced."""
    if key not in data:
        return None
    value = data[key]
    if type(value) is not int:
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return value


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

    The schema is README's "Scenario config file": every key is optional
    except "task", and a key it does not name, a "trajectory" in a track
    config, or a section or list of another JSON type is rejected.
    """
    _object("config", data, ("task", "search_color", "home_color", "timeout_s", "trials",
                             "base_seed", "markers", "drone_start", "carrier_start",
                             "trajectory", "sim"))
    try:
        task = data["task"]
    except KeyError:
        raise ScenarioError('config is missing the "task" key') from None
    base = default_scenario(task)

    try:
        sim_node = _settings("sim", data.get("sim", {}), base.cfg)
        for key in ("frame", "gains", "noise"):
            default = getattr(base.cfg, key)
            sim_node[key] = replace(default, **_settings(key, sim_node.get(key, {}), default))
        if "carrier_waypoints" in sim_node:
            sim_node["carrier_waypoints"] = tuple(
                _finite_pair("carrier_waypoints", wp)
                for wp in _array("carrier_waypoints", sim_node["carrier_waypoints"]))
        cfg = replace(base.cfg, **sim_node)

        search_color = _parse_color("search_color",
                                    data.get("search_color", base.spec.search_color.name))
        home_color = _parse_color("home_color", data["home_color"]) if "home_color" in data \
            else base.spec.home_color
        if base.spec.kind is MissionKind.TRACK_VISIBLE:
            if "trajectory" in data:
                raise ScenarioError('a track config takes no "trajectory" key: '
                                    "a track mission flies no search")
            trajectory = None
        else:
            trajectory = _parse_trajectory(data.get("trajectory", {"type": "forward"}),
                                           cfg.frame, search_color)
        spec = MissionSpec(kind=base.spec.kind,
                           search_color=search_color,
                           home_color=home_color,
                           trajectory=trajectory,
                           timeout=_number("timeout_s", data.get("timeout_s", DEFAULT_TIMEOUT_S)))

        markers = base.markers
        if "markers" in data:
            markers = tuple(_parse_marker(m) for m in _array("markers", data["markers"]))
        drone_start = _finite_pair("drone_start", data["drone_start"]) \
            if "drone_start" in data else base.drone_start
        carrier_start = _finite_pair("carrier_start", data["carrier_start"]) \
            if "carrier_start" in data else None
        trials = _config_int(data, "trials")
        base_seed = _config_int(data, "base_seed")
        if trials is not None and trials < 1:
            raise ScenarioError("trials must be >= 1")
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad config value: {exc}") from exc

    return Scenario(spec=spec, cfg=cfg, markers=markers,
                    drone_start=drone_start, carrier_start=carrier_start,
                    trials=trials, base_seed=base_seed)
