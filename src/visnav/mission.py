"""Mission state machines: take off, search, servo, hover, reverse, land.

Every tick runs blind step -> look -> act.  The blind step acts without
looking: timeout, liftoff and climb, top of the climb, a returning
mission's hover end, touchdown.  Else the tick captures a frame, detects
the color its phase watches, steers on the blob centroid or the imagined
segment target (or holds), and fires at most one phase change.  tick
returns (command, err_px, detected, frame); no state keeps them.

The three kinds:

  TRACK_VISIBLE         servo onto a marker already in view and hover.
  FORWARD_SEARCH_HOVER  fly an imagined trajectory until the search color
                        appears, then servo and hover.
  SEARCH_RETURN_LAND    as above, then retrace the outbound motion log,
                        servo onto the home color and land on it: the
                        paper's carrier mission, task name "return" or
                        "coordination" (visnav.scenario.TASKS).

While searching and servoing outbound, each stretch of ticks with the
same nonzero command and target becomes one motion-log entry; the return
leg replays that log, one segment per entry, reflected about the image
center (see imagination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from .control import (ZERO_COMMAND, ControllerGains, VelocityCommand,
                      compute_command, pixel_error)
from .geometry import FrameSpec, PixelPoint, Pose
from .imagination import (Duration, EmptyLogError, ImaginedSegment, ImaginedTrajectory,
                          LogEntry, MarkerDetected, MotionLog, reverse)
from .perception import Color, Detection, Frame, detect
from .scenario import MAX_MISSION_TICKS, MissionKind, MissionSpec, check_tick_budget
from .scenario import build_scenario  # noqa: F401  (bench/workloads.py reads it from here)
from .sim import SimConfig, TrajectoryRow, WorldState, capture, step

HOVER_DWELL_S = 1.0          # time to sit on the found marker before returning
LAND_THRESHOLD_PX = 20.0     # centering tolerance that arms the descent
LAND_DWELL_TICKS = 5         # consecutive in-tolerance ticks required to land
LOST_PATIENCE_TICKS = 10     # detection dropouts tolerated while servoing

_ALTITUDE_EPS = 1e-9


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


@dataclass
class MissionState:
    """FSM state and per-phase bookkeeping carried from tick to tick, owned by
    one loop; what a tick commands and sees is tick's return value.
    landing_gains, which servoing home and landing steer with, is cfg.gains
    with hover_threshold LAND_THRESHOLD_PX, set where the return leg starts."""

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
    landing_gains: Optional[ControllerGains] = None

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
    sx, sy = state.segment_start_xy  # a Distance: ImaginedSegment admits no other rule
    moved = math.hypot(world.drone.x - sx, world.drone.y - sy)
    return moved >= rule.meters - 1e-12


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
    if state.ticks * cfg.dt >= spec.timeout - 1e-9:
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
            if spec.kind is not MissionKind.SEARCH_RETURN_LAND:
                state.done = True  # and look, holding over the marker, this last tick
                return None
            try:
                state.leg = reverse(state.log, cfg.frame)
            except EmptyLogError:
                return _fail(state, "reversal_unavailable")
            state.landing_gains = replace(cfg.gains, hover_threshold=LAND_THRESHOLD_PX)
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
    """Servo on the detected blob and take the phase change it earns; servoing
    home and landing steer with state.landing_gains."""
    phase = state.phase
    homing = phase is Phase.SERVOING_HOME or phase is Phase.LANDING
    err, cmd = _command(det.center, state.landing_gains if homing else cfg.gains, cfg.frame)
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
    (step_index, frame).  A spec over scenario.check_tick_budget raises
    ScenarioError before the first tick, leaving ``world`` untouched.
    """
    check_tick_budget(spec, cfg)
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

    ValueError, raised before the first step with ``world`` untouched, names
    the first segment that is not Duration-terminated or that takes the
    flight over MAX_MISSION_TICKS.  Past that, a segment whose pose
    overflows raises with ``world`` where the segments before it left it.
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
        cmd = compute_command(pixel_error(seg.target, cfg.frame.center), cfg.gains)
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

