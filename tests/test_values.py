"""The per-tick value types are named tuples: checked as strictly as before,
and they unpack, compare, hash, pickle and copy as tuples of their fields.
Pose and TrajectoryRow stay frozen dataclasses with written-out
constructors, and behave as the generated ones would."""

import copy
import dataclasses
import inspect
import math
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import visnav
from visnav import (Color, Detection, Distance, Duration, ImaginedSegment, LogEntry,
                    MarkerDetected, PixelError, PixelPoint, Pose, TrajectoryRow,
                    VelocityCommand)

#: Numbers and things that are not: non-finite floats, ints too large for a
#: float, and values of other types.
ANY = (st.floats() | st.integers(-10**400, 10**400) | st.booleans() | st.none()
       | st.text(max_size=3) | st.tuples(st.floats()))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def finite_check_error(name, values):
    """(exception type, message) of the finite check on ``values``: the first
    that math.isfinite rejects, or the first that is not finite; None when
    all pass."""
    for v in values:
        try:
            finite = math.isfinite(v)
        except (TypeError, OverflowError) as exc:
            return type(exc), str(exc)
        if not finite:
            return ValueError, f"{name} must be finite, got {v!r}"
    return None


def raised(build, *args):
    try:
        build(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300)
@given(ANY, ANY)
def test_pixel_point_checks_each_coordinate_in_order(x, y):
    assert raised(PixelPoint, x, y) == finite_check_error("PixelPoint coordinates", (x, y))


@settings(max_examples=300)
@given(ANY, ANY)
def test_pixel_error_checks_each_component_in_order(ex, ey):
    assert raised(PixelError, ex, ey) == finite_check_error("PixelError components", (ex, ey))


RULES = st.sampled_from([Duration(1.0), Distance(0.5), MarkerDetected(Color.PINK)])


@settings(max_examples=200)
@given(st.one_of(st.builds(PixelPoint, FINITE, FINITE), st.tuples(FINITE, FINITE), ANY),
       st.one_of(RULES, ANY, st.sampled_from([Color.PINK, 1.0, (1.0,)])))
def test_imagined_segment_checks_target_then_rule(target, rule):
    # a plain (x, y) tuple equals a PixelPoint of the same values, and is
    # still not one
    if not isinstance(target, PixelPoint):
        want = TypeError, f"target must be a PixelPoint, got {target!r}"
    elif not isinstance(rule, (Duration, Distance, MarkerDetected)):
        want = TypeError, \
            f"terminate_on must be MarkerDetected, Duration or Distance, got {rule!r}"
    else:
        want = None
    assert raised(ImaginedSegment, target, rule) == want


@settings(max_examples=300)
@given(st.sampled_from([PixelPoint(320.0, 80.0), PixelError(1.5, -2.0)]), ANY, ANY,
       st.sampled_from([(0,), (1,), (0, 1)]))
def test_make_and_replace_run_the_constructor_checks(value, a, b, replaced):
    # _make, and _replace of one field or both, raise what the constructor
    # raises; a valid _replace keeps the type and takes the new values
    cls = type(value)
    new = [(a, b)[i] if i in replaced else value[i] for i in range(2)]
    want = raised(cls, *new)
    assert raised(cls._make, new) == want
    changes = {cls._fields[i]: (a, b)[i] for i in replaced}
    assert raised(lambda: value._replace(**changes)) == want
    if want is None:
        back = value._replace(**changes)
        assert type(back) is cls and back == cls(*new)


@settings(max_examples=200)
@given(st.one_of(st.builds(PixelPoint, FINITE, FINITE), st.tuples(FINITE, FINITE), ANY),
       st.one_of(RULES, ANY))
def test_imagined_segment_make_and_replace_run_the_constructor_checks(target, rule):
    value = ImaginedSegment(PixelPoint(320.0, 80.0), Duration(1.0))
    want = raised(ImaginedSegment, target, rule)
    assert raised(ImaginedSegment._make, (target, rule)) == want
    assert raised(lambda: value._replace(target=target, terminate_on=rule)) == want
    assert raised(lambda: value._replace(target=target)) == \
        raised(ImaginedSegment, target, value.terminate_on)
    if want is None:
        back = value._replace(target=target, terminate_on=rule)
        assert type(back) is ImaginedSegment and back == (target, rule)


@given(FINITE, FINITE, st.booleans())
def test_velocity_command_keeps_its_fields_default_and_speed(fwd, right, hovering):
    cmd = VelocityCommand(fwd, right, hovering)
    assert (cmd.vel_forward, cmd.vel_right, cmd.hovering) == (fwd, right, hovering)
    assert VelocityCommand(fwd, right).hovering is False
    assert cmd.speed() == math.hypot(fwd, right)
    assert repr(cmd) == \
        f"VelocityCommand(vel_forward={fwd!r}, vel_right={right!r}, hovering={hovering!r})"


@given(st.sampled_from(list(Color)), FINITE, FINITE, st.integers(0, 10**6))
def test_detection_keeps_its_fields(color, x, y, count):
    det = Detection(color, PixelPoint(x, y), count)
    assert (det.color, det.center, det.pixel_count) == (color, PixelPoint(x, y), count)
    assert repr(det) == f"Detection(color={color!r}, center=PixelPoint(x={x!r}, y={y!r}), " \
                        f"pixel_count={count!r})"


@given(FINITE, FINITE, FINITE, FINITE)
def test_log_entry_keeps_its_fields(t, fwd, duration, x):
    entry = LogEntry(t, VelocityCommand(fwd, 0.0), duration, PixelPoint(x, 0.0))
    assert (entry.timestamp, entry.command, entry.duration, entry.target) == \
        (t, VelocityCommand(fwd, 0.0), duration, PixelPoint(x, 0.0))


VALUES = [
    PixelPoint(320.0, -80.5),
    PixelError(1.5, -2.0),
    VelocityCommand(0.05, -0.01),
    VelocityCommand(0.0, 0.0, True),
    Detection(Color.BLUE, PixelPoint(10.25, 3.0), 57),
    LogEntry(0.3, VelocityCommand(0.05, 0.0), 1.2, PixelPoint(320.0, 80.0)),
    ImaginedSegment(PixelPoint(420.0, 180.0), Duration(3.0)),
    ImaginedSegment(PixelPoint(320.0, 80.0), MarkerDetected(Color.PINK)),
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("round_trip", [
    *(lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.deepcopy, copy.copy])
def test_pickle_and_copy_keep_type_and_value(value, round_trip):
    back = round_trip(value)
    assert type(back) is type(value) and back == value
    assert type(back[-1]) is type(value[-1])


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_values_are_immutable_tuples_of_their_fields(value):
    assert isinstance(value, tuple) and tuple(value) == tuple(getattr(value, name)
                                                             for name in value._fields)
    assert hash(value) == hash(tuple(value))
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1


def test_no_source_builds_a_value_around_its_checks():
    # a named tuple's _make and _replace skip __new__, so they skip the
    # finite and type checks of PixelPoint, PixelError and ImaginedSegment
    src = Path(visnav.__file__).parent
    calls = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\._(make|replace)\(", line)]
    assert calls == []


def test_no_source_keeps_a_process_wide_cache():
    # an lru_cache outlives every world and scenario that filled it, and a
    # cached_property stores a value the object's fields no longer build;
    # only a world's lazy generator is kept that way
    src = Path(visnav.__file__).parent
    lines = [(path.name, line) for path in sorted(src.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    caches = re.compile(r"lru_cache|@(functools\.)?cache\b|import .*\bcache\b")
    assert [f"{name}: {line}" for name, line in lines if caches.search(line)] == []
    uses = [line.strip() for _, line in lines if "cached_property" in line]
    assert set(uses) == {"from functools import cached_property", "@cached_property"}
    cached = [(name, nxt.strip()) for (name, line), (_, nxt) in zip(lines, lines[1:])
              if line.strip() == "@cached_property"]
    assert cached == [("sim.py", "def rng(self) -> np.random.Generator:")]


# --- Pose and TrajectoryRow against generated frozen dataclasses ------------


def _pose_checks(self):
    # Pose's checks as a __post_init__: finite fields, then z >= 0
    for v in (self.x, self.y, self.z, self.yaw):
        if not math.isfinite(v):
            raise ValueError(f"Pose fields must be finite, got {v!r}")
    if self.z < 0:
        raise ValueError("altitude z must be >= 0")


#: Twins of Pose and TrajectoryRow as @dataclass(frozen=True) generates
#: them, with the same names, field types and defaults.
TWINS = {
    Pose: dataclasses.make_dataclass(
        "Pose", [("x", "float"), ("y", "float"), ("z", "float"),
                 ("yaw", "float", dataclasses.field(default=0.0))],
        frozen=True, namespace={"__post_init__": _pose_checks}),
    TrajectoryRow: dataclasses.make_dataclass(
        "TrajectoryRow", [("step", "int"), ("time_s", "float"), ("drone_x", "float"),
                          ("drone_y", "float"), ("drone_z", "float"), ("vel_fwd", "float"),
                          ("vel_right", "float"), ("fsm_state", "str"),
                          ("detected_color", "str"), ("err_px", "Optional[float]")],
        frozen=True),
}

#: Mostly valid field values, with the ones Pose rejects mixed in; 0.0 and
#: -0.0 make equal values from different floats.
FIELD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1, True]), FINITE, ANY)


#: Positional constructor arguments of each class.
ARGS = {
    Pose: st.tuples(FIELD, FIELD, FIELD, FIELD),
    TrajectoryRow: st.tuples(st.integers(0, 10**6), FIELD, FIELD, FIELD, FIELD, FIELD, FIELD,
                             st.text(max_size=4), st.sampled_from(["none", "pink", "blue"]),
                             st.none() | FIELD),
}


def _built(build, *args, **kwargs):
    """(value, None) or (None, (exception type, message))."""
    try:
        return build(*args, **kwargs), None
    except (TypeError, ValueError, OverflowError) as exc:
        return None, (type(exc), str(exc))


def _field_specs(cls):
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
             f.compare, f.kw_only) for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_written_out_constructors_keep_the_dataclass_surface(cls):
    twin = TWINS[cls]
    assert _field_specs(cls) == _field_specs(twin)
    assert cls.__match_args__ == twin.__match_args__
    # every dataclass parameter but init, which the written-out __init__ replaces
    for param in ("repr", "eq", "order", "unsafe_hash", "frozen"):
        assert getattr(cls.__dataclass_params__, param) == \
            getattr(twin.__dataclass_params__, param)
    assert [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()] \
        == [(p.name, p.kind, p.default) for p in inspect.signature(twin).parameters.values()]


@settings(max_examples=300)
@given(st.sampled_from(list(ARGS)), st.data())
def test_values_build_compare_hash_and_replace_as_their_twins(cls, data):
    twin = TWINS[cls]
    args = data.draw(ARGS[cls], label="args")
    value, error = _built(cls, *args)
    twin_value, twin_error = _built(twin, *args)
    assert error == twin_error
    names = [f.name for f in dataclasses.fields(cls)]
    assert _built(cls, **dict(zip(names, args)))[1] == error
    if error is not None:
        return
    assert type(value) is cls and dataclasses.astuple(value) == tuple(args)
    assert repr(value) == repr(twin_value)
    assert hash(value) == hash(twin_value)
    # == against a second value, equal or not, built from drawn fields
    other = data.draw(ARGS[cls] | st.just(args), label="other")
    other_value, other_error = _built(cls, *other)
    if other_error is None:
        assert (value == other_value) == (twin_value == twin(*other))
        assert value != twin_value   # a twin is another class
    # dataclasses.replace goes through the constructor, checks and all
    changed = data.draw(st.lists(st.sampled_from(names), unique=True))
    changes = {name: data.draw(FIELD, label=name) for name in changed}
    back, back_error = _built(dataclasses.replace, value, **changes)
    twin_back, twin_back_error = _built(dataclasses.replace, twin_value, **changes)
    assert back_error == twin_back_error
    if back_error is None:
        assert type(back) is cls and repr(back) == repr(twin_back)
        assert dataclasses.astuple(back) == dataclasses.astuple(twin_back)


@pytest.mark.parametrize("value", [
    Pose(0.5, -1.25, 1.0, 0.3),
    Pose(0.0, 0.0, 0.0),
    TrajectoryRow(7, 0.7, 0.1, -0.2, 1.0, 0.05, 0.0, "servoing", "pink", 12.5),
    TrajectoryRow(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "taking_off", "none", None),
], ids=repr)
def test_pose_and_row_stay_frozen_and_round_trip(value):
    twin_value = TWINS[type(value)](*dataclasses.astuple(value))
    for name in [f.name for f in dataclasses.fields(value)] + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError) as got:
            setattr(value, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            setattr(twin_value, name, 1.0)
        assert str(got.value) == str(want.value)
        with pytest.raises(dataclasses.FrozenInstanceError) as got:
            delattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            delattr(twin_value, name)
        assert str(got.value) == str(want.value)
    assert vars(value) == vars(twin_value)
    for round_trip in [*(lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
                         for p in range(pickle.HIGHEST_PROTOCOL + 1)),
                       copy.deepcopy, copy.copy]:
        back = round_trip(value)
        assert type(back) is type(value) and back == value and vars(back) == vars(value)
        assert hash(back) == hash(value)


@given(FINITE, FINITE, st.floats(0.0, 1e300))
def test_pose_takes_keywords_and_defaults_yaw_to_zero(x, y, z):
    pose = Pose(z=z, y=y, x=x)
    assert pose == Pose(x, y, z) == Pose(x, y, z, 0.0)
    assert repr(pose) == repr(TWINS[Pose](x, y, z)) == f"Pose(x={x!r}, y={y!r}, z={z!r}, yaw=0.0)"
