"""What to run: a MissionSpec (the task), a Scenario (the spec plus its
world) and a Campaign (a scenario plus its seeded trials), and the JSON
config file that describes all three.  visnav.mission flies a spec.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, fields, replace
from enum import Enum
from numbers import Real
from pathlib import Path
from typing import Optional

from .geometry import _FLOAT_MAX, FrameSpec, PixelPoint, Pose
from .imagination import (DEFAULT_OFFSET_PX, Distance, Duration, ImaginedSegment,
                          ImaginedTrajectory, MarkerDetected, forward_target,
                          square_trajectory)
from .perception import Color, Marker
from .sim import NoiseModel, SimConfig, WorldState, make_world

DEFAULT_TIMEOUT_S = 120.0
MAX_MISSION_TICKS = 1_000_000  # tick budget of one mission: timeout / dt may not exceed it


class MissionKind(Enum):
    TRACK_VISIBLE = "track"
    FORWARD_SEARCH_HOVER = "forward"
    SEARCH_RETURN_LAND = "return"


#: Task names: each kind's value, and "coordination", the paper's name for the return mission.
TASKS = {**{k.value: k for k in MissionKind}, "coordination": MissionKind.SEARCH_RETURN_LAND}


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
        if not isinstance(self.kind, MissionKind):
            raise ScenarioError(f"kind must be a MissionKind, got {self.kind!r}")
        if not isinstance(self.search_color, Color):
            raise ScenarioError(f"search_color must be a Color, got {self.search_color!r}")
        if not (self.home_color is None or isinstance(self.home_color, Color)):
            raise ScenarioError(f"home_color must be None or a Color, got {self.home_color!r}")
        if not (self.trajectory is None or isinstance(self.trajectory, ImaginedTrajectory)):
            raise ScenarioError("trajectory must be None or an ImaginedTrajectory, "
                                f"got {self.trajectory!r}")
        if (isinstance(self.timeout, bool) or not isinstance(self.timeout, Real)
                or not 0 < self.timeout <= _FLOAT_MAX):
            # named by its config key, as check_tick_budget names it
            raise ScenarioError("timeout_s must be a positive finite number, "
                                f"got {reprlib.repr(self.timeout)}")
        if self.kind is MissionKind.SEARCH_RETURN_LAND and self.home_color is None:
            raise ScenarioError(f"{self.kind.value} missions need a home_color")
        track = self.kind is MissionKind.TRACK_VISIBLE
        if track != (self.trajectory is None):
            raise ScenarioError("track missions take no search trajectory" if track
                                else f"{self.kind.value} missions need a search trajectory")


def check_tick_budget(spec: MissionSpec, cfg: SimConfig) -> None:
    """Raise ScenarioError when timeout / dt exceeds MAX_MISSION_TICKS, so
    no run can be practically endless."""
    ticks = spec.timeout / cfg.dt
    if ticks > MAX_MISSION_TICKS:
        raise ScenarioError(f"timeout_s {spec.timeout} at dt {cfg.dt} allows {ticks:.4g} ticks "
                            f"per mission, over the budget of {MAX_MISSION_TICKS}")


@dataclass(frozen=True)
class Scenario:
    """A mission spec plus the world it runs in; seeds make worlds.

    Raises ScenarioError when ``markers`` is not a tuple of Markers, or when
    the spec is over check_tick_budget.  ``drone_start`` and
    ``carrier_start`` (unless None) are stored as tuples of two floats,
    copies of the sequences given, once each value is a finite float's size
    (a string raises TypeError there; a NaN, an infinity or an int too large
    for a float ScenarioError).
    """

    spec: MissionSpec
    cfg: SimConfig
    markers: tuple[Marker, ...] = ()
    drone_start: tuple[float, float] = (0.0, 0.0)
    carrier_start: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.markers, tuple)
                and all(isinstance(m, Marker) for m in self.markers)):
            raise ScenarioError(f"markers must be a tuple of Markers, got {self.markers!r}")
        check_tick_budget(self.spec, self.cfg)
        for key in ("drone_start", "carrier_start"):
            point = getattr(self, key)
            if point is not None:
                x, y = point
                if not (abs(x) <= _FLOAT_MAX and abs(y) <= _FLOAT_MAX):
                    raise ScenarioError(f"{key} must be finite, got {reprlib.repr(point)}")
                object.__setattr__(self, key, (float(x), float(y)))

    def make_world(self, seed: int) -> WorldState:
        z = self.cfg.altitude if self.spec.kind is MissionKind.TRACK_VISIBLE \
            else self.cfg.carrier_height
        carrier = None if self.carrier_start is None else Pose(*self.carrier_start, 0.0, 0.0)
        return make_world(seed, self.markers, drone=Pose(*self.drone_start, z, 0.0),
                          carrier=carrier)


@dataclass(frozen=True)
class Campaign:
    """A scenario plus the trial protocol: trial i runs with seed base_seed + i.

    The one home of ``trials`` and ``base_seed``, checked here: each must be
    an int (not a bool), trials >= 1 and base_seed >= 0, or ScenarioError.
    """

    scenario: Scenario
    trials: int = 20
    base_seed: int = 0

    def __post_init__(self) -> None:
        for key, least in (("trials", 1), ("base_seed", 0)):
            value = getattr(self, key)
            if type(value) is not int:  # a bool is not a count or a seed
                raise ScenarioError(f"{key} must be an integer, got {reprlib.repr(value)}")
            if value < least:
                raise ScenarioError(f"{key} must be >= {least}, got {value}")


def forward_search_trajectory(frame: FrameSpec, search_color: Color) -> ImaginedTrajectory:
    """A single forward imagined segment that ends when the color appears."""
    return ImaginedTrajectory((
        ImaginedSegment(forward_target(frame), MarkerDetected(search_color)),
    ))


def default_scenario(task: str, noise: Optional[NoiseModel] = None) -> Scenario:
    """Built-in scenario for a task name of TASKS.

    track:        pink marker in view 0.3 m ahead, 0.2 m left of the start.
    forward:      pink marker 2.0 m ahead; forward search, hover on it.
    return:       as forward, then retrace and land back on the carrier's pad.
    coordination: the return scenario, under the paper's name for it.
    """
    kind = TASKS.get(task) if isinstance(task, str) else None
    if kind is None:
        raise ScenarioError(f"unknown task {reprlib.repr(task)} (expected {'|'.join(TASKS)})")
    cfg = SimConfig() if noise is None else SimConfig(noise=noise)
    if kind is MissionKind.TRACK_VISIBLE:
        return Scenario(MissionSpec(kind), cfg, markers=(Marker((0.3, 0.2), 0.06, Color.PINK),))
    spec = MissionSpec(kind, trajectory=forward_search_trajectory(cfg.frame, Color.PINK))
    return Scenario(spec, cfg, markers=(Marker((2.0, 0.0), 0.06, Color.PINK),))


def _parse_color(key: str, name) -> Color:
    """A config color: a JSON string naming a Color, in any case.  Any
    other JSON value, or an unknown name, is rejected, naming its key."""
    if not isinstance(name, str):
        raise ScenarioError(f"{key} must be a color name string, got {reprlib.repr(name)}")
    try:
        return Color[name.upper()]
    except KeyError:
        raise ScenarioError(f"{key}: unknown color {reprlib.repr(name)}; known: "
                            + ", ".join(c.name.lower() for c in Color)) from None


def _object(where: str, node, known: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    """A config JSON object, rejected, naming the key, when it holds a key
    outside ``known`` (a misspelt key would fall back to its default) or
    lacks one of ``required``."""
    if not isinstance(node, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {reprlib.repr(node)}")
    for key in node:
        if key not in known:
            raise ScenarioError(f"unknown {where} key {reprlib.repr(key)}; "
                                f"known: {', '.join(known)}")
    for key in required:
        if key not in node:
            raise ScenarioError(f"{where} is missing key {key!r}")
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
            settings[key] = number if kind is float else value
    return settings


def _typed(where: str, node, types: dict[str, tuple[str, ...]],
           default: Optional[str], optional: tuple[str, ...] = ()) -> str:
    """The "type" of a config object (``default`` when absent), one of
    ``types``' keys; besides "type" the object may hold only the keys
    that type lists, and must hold each of them not in ``optional``."""
    if not isinstance(node, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {reprlib.repr(node)}")
    kind = node.get("type", default)
    if not isinstance(kind, str) or kind not in types:
        raise ScenarioError(f"unknown {where} type {reprlib.repr(kind)}")
    _object(f"{kind} {where}", node, ("type", *types[kind]),
            tuple(key for key in types[kind] if key not in optional))
    return kind


def _parse_marker(node) -> Marker:
    keys = ("x", "y", "radius", "color")
    m = _object("marker", node, keys, keys)
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
                                       "segments": ("segments",)}, "forward", ("offset_px",))
    if kind == "forward":
        return forward_search_trajectory(frame, search_color)
    if kind == "square":
        return square_trajectory(frame, _number("side_duration_s", node["side_duration_s"]),
                                 _number("offset_px", node.get("offset_px", DEFAULT_OFFSET_PX)))
    segs = []
    for s in _array("segments", node["segments"]):
        _object("segment", s, ("target", "until"), ("target", "until"))
        x, y = _finite_pair("target", s["target"])
        # its error norm is the err_px of every tick that flies it, so must be finite too
        if not math.isfinite(math.hypot(x - frame.center.x, y - frame.center.y)):
            raise ScenarioError(f"target {reprlib.repr(s['target'])} is too far from the frame "
                                "center: its pixel error overflows")
        segs.append(ImaginedSegment(PixelPoint(x, y), _parse_termination(s["until"])))
    return ImaginedTrajectory(tuple(segs))


def _array(key: str, value) -> list:
    """A config JSON array; any other JSON value is rejected, naming its key."""
    if not isinstance(value, list):
        raise ScenarioError(f"{key} must be a JSON array, got {reprlib.repr(value)}")
    return value


def _finite_pair(key: str, value) -> tuple[float, float]:
    """A config [x, y] point as a tuple of floats, rejected here, naming
    its key, unless it is a JSON array of two finite numbers (it fails
    mid-run otherwise)."""
    if (isinstance(value, list) and len(value) == 2
            and all(type(v) in (int, float) for v in value)):
        x, y = _number(key, value[0]), _number(key, value[1])
        if math.isfinite(x) and math.isfinite(y):
            return x, y
    raise ScenarioError(f"{key} must be a finite [x, y] pair, got {reprlib.repr(value)}")


def _number(key: str, value) -> float:
    """A config number as a float.  Any other JSON value (a bool, string,
    null, list or object) is rejected, naming its key, not coerced, as is
    an integer too large for a float."""
    if type(value) not in (int, float):
        raise ScenarioError(f"{key} must be a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{key} must be a number that a float holds, "
                            f"got {reprlib.repr(value)}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A config JSON object as a dict; a key named twice is rejected (plain
    json.loads keeps its last value)."""
    node = {}
    for key, value in pairs:
        if key in node:
            raise ScenarioError(f"config names key {reprlib.repr(key)} twice")
        node[key] = value
    return node


#: Config keys that are Campaign settings rather than part of the Scenario.
_CAMPAIGN_KEYS = ("trials", "base_seed")


def load_campaign(path: str | Path) -> Campaign:
    """Read a JSON config file: build_scenario's Scenario, with the file's
    trials and base_seed where it sets them (else Campaign's defaults).
    Raises ScenarioError, naming the file, when it cannot be read or is not
    UTF-8 JSON (nesting too deep to parse included), when it holds an
    integer too long for Python to read (over sys.get_int_max_str_digits()
    digits), and on any malformed content, a key named twice in one object
    included: then the message is ``config <path>: `` and the message of
    build_scenario or Campaign, which names the key."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
        return Campaign(build_scenario(data), **{k: data[k] for k in _CAMPAIGN_KEYS if k in data})
    except ScenarioError as exc:   # _unique_keys', build_scenario's or Campaign's
        raise ScenarioError(f"config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    except ValueError as exc:   # int()'s digit limit, which json.loads passes on as is
        raise ScenarioError(f"config {path} holds a number too long to read: {exc}") from exc


def build_scenario(data: dict) -> Scenario:
    """Build the Scenario of a config tree.

    The schema is README's "Scenario config file": every key is optional
    except "task", and a key it does not name, a "trajectory" in a track
    config, or a section or list of another JSON type is rejected.  The
    campaign keys (trials, base_seed) are left to load_campaign.
    """
    _object("config", data, ("task", "search_color", "home_color", "timeout_s",
                             *_CAMPAIGN_KEYS, "markers", "drone_start", "carrier_start",
                             "trajectory", "sim"), ("task",))
    base = default_scenario(data["task"])

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
        home_color = _parse_color("home_color", data.get("home_color", base.spec.home_color.name))
        trajectory = None
        if base.spec.trajectory is not None:
            trajectory = _parse_trajectory(data.get("trajectory", {}), cfg.frame, search_color)
        elif "trajectory" in data:
            raise ScenarioError('a track config takes no "trajectory" key: '
                                "a track mission flies no search")
        spec = replace(base.spec, search_color=search_color, home_color=home_color,
                       trajectory=trajectory,
                       timeout=_number("timeout_s", data.get("timeout_s", DEFAULT_TIMEOUT_S)))

        scene = {key: _finite_pair(key, data[key])
                 for key in ("drone_start", "carrier_start") if key in data}
        if "markers" in data:
            scene["markers"] = tuple(_parse_marker(m) for m in _array("markers", data["markers"]))
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad config value: {exc}") from exc

    return replace(base, spec=spec, cfg=cfg, **scene)
