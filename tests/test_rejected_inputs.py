"""Every refused input from outside, one table per format: a config row goes
through load_campaign, build_scenario and `visnav run --config`, a CSV row
through its reader and `visnav stats` or `visnav spread`.  Each must be
refused with the one message, exit 2 and write nothing."""

import csv
import json
import re

import pytest

from visnav import (Campaign, MalformedLogError, ScenarioError, default_scenario, load_campaign,
                    path_spread, run_campaign)
from visnav.cli import main
from visnav.harness import RETURN_PHASES, load_trajectory, read_results_csv
from visnav.scenario import build_scenario

NAN, INF = float("nan"), float("inf")

#: A 64x36 zero-noise track config.
SMALL_TRACK = {"task": "track",
               "markers": [{"x": 0.1, "y": 0.05, "radius": 0.12, "color": "pink"}],
               "sim": {"frame": {"width": 64, "height": 36, "focal_length": 32.0},
                       "noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0}}}


def _sim(task, **sim):
    return {"task": task, "sim": sim}


def _marker(task="forward", **fields):
    """A config with one pink marker, 1 m ahead unless ``fields`` say otherwise."""
    return {"task": task,
            "markers": [{"x": 1.0, "y": 0.0, "radius": 0.06, "color": "pink", **fields}]}


def _segment(until, target=(320, 80)):
    """A forward config that searches along one segment, ended by ``until``."""
    return {"task": "forward", "trajectory": {"type": "segments", "segments": [
        {"target": list(target), "until": until}]}}


def _square(**keys):
    return {"task": "forward", "trajectory": {"type": "square", **keys}}


#: A campaign setting Campaign refuses: (key, value, message).
CAMPAIGN_SETTINGS = [
    ("trials", 2.7, "trials must be an integer, got 2.7"),
    ("trials", True, "trials must be an integer, got True"),
    ("trials", "3", "trials must be an integer, got '3'"),
    ("trials", None, "trials must be an integer, got None"),
    ("trials", 0, "trials must be >= 1, got 0"),
    ("base_seed", 4.0, "base_seed must be an integer, got 4.0"),
    ("base_seed", False, "base_seed must be an integer, got False"),
    ("base_seed", "7", "base_seed must be an integer, got '7'"),
    ("base_seed", -1, "base_seed must be >= 0, got -1"),
]

#: How build_scenario words a value that a section's own class refuses.
BAD = "bad config value: "

#: (config, message).  A config is JSON text, its bytes, or a tree to write as
#: JSON.  load_campaign raises ``config <path>: `` and the message, which is
#: build_scenario's, whole, where plain JSON fails there; for a file that
#: plain json.loads cannot read, the message is the start of load_campaign's
#: after ``config <path> ``.
CONFIG_ROWS = [
    # not JSON that load_campaign can read
    ("{nope", "is not valid UTF-8 JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
    ("not json at all {", "is not valid UTF-8 JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[" * 200_000 + "]" * 200_000, "is not valid UTF-8 JSON: maximum recursion depth exceeded"),
    (b"\xff\xfe{}", "is not valid UTF-8 JSON: 'utf-8' codec can't decode byte 0xff in "
                    "position 0: invalid start byte"),
    # over int()'s digit limit, 4 300 by default: json.loads fails before any key is read
    ('{"task": "forward", "timeout_s": 1' + "0" * 5000 + "}", "holds a number too long to read: "),
    # a key named twice in one object, whose last copy plain json.loads would keep
    ('{"task": "forward", "timeout_s": 5, "timeout_s": 6}', "config names key 'timeout_s' twice"),
    ('{"task": "return", "trials": 2, "trials": 3}', "config names key 'trials' twice"),
    ('{"task": "return", "sim": {"noise": {"drift_std": 0.0}, "noise": {"drift_std": 0.02}}}',
     "config names key 'noise' twice"),
    # keys the schema does not name, or that an object lacks
    (["task", "forward"], "config must be a JSON object, got ['task', 'forward']"),
    ({"markers": []}, "config is missing key 'task'"),
    ({"task": "forward", "timeot_s": 5},
     "unknown config key 'timeot_s'; known: task, search_color, home_color, timeout_s, trials, "
     "base_seed, markers, drone_start, carrier_start, trajectory, sim"),
    (_marker("track", x=0.3, y=0.2, hieght=1.0),
     "unknown marker key 'hieght'; known: x, y, radius, color"),
    (_square(side_duration_s=4.0, ofset_px=50),
     "unknown square trajectory key 'ofset_px'; known: type, side_duration_s, offset_px"),
    ({"task": "forward", "trajectory": {"side_duration_s": 4.0}},
     "unknown forward trajectory key 'side_duration_s'; known: type"),
    ({"task": "forward", "trajectory": {"type": "segments", "segments": [], "segment": []}},
     "unknown segments trajectory key 'segment'; known: type, segments"),
    ({"task": "forward", "trajectory": {"type": "segments", "segments": [
        {"target": [320, 80], "untill": {"type": "duration", "seconds": 5.0}}]}},
     "unknown segment key 'untill'; known: target, until"),
    (_segment({"type": "duration", "seconds": 5.0, "color": "pink"}),
     "unknown duration termination key 'color'; known: type, seconds"),
    ({"task": "track", "trajectory": {"type": "spiral", "side_duration_s": "x"}},
     'a track config takes no "trajectory" key: a track mission flies no search'),
    ({"task": "forward", "trajectory": {"type": "spiral"}}, "unknown trajectory type 'spiral'"),
    (_segment({"type": "blah"}), "unknown termination type 'blah'"),
    ({"task": "fly"}, "unknown task 'fly' (expected track|forward|return|coordination)"),
    ({"task": "forward", "markers": [{"x": 1.0, "radius": 0.06, "color": "pink"}]},
     "marker is missing key 'y'"),
    ({"task": "track", "markers": [{}]}, "marker is missing key 'x'"),
    ({"task": "forward", "trajectory": {"type": "segments", "segments": [
        {"until": {"type": "marker", "color": "pink"}}]}}, "segment is missing key 'target'"),
    (_square(), "square trajectory is missing key 'side_duration_s'"),
    (_segment({"type": "duration"}), "duration termination is missing key 'seconds'"),
    # sections must be JSON objects and lists JSON arrays, not coerced or defaulted
    ({"task": "forward", "sim": [["dt", 0.2]]}, "sim must be a JSON object, got [['dt', 0.2]]"),
    (_sim("forward", gains=None), "gains must be a JSON object, got None"),
    (_sim("forward", gains=False), "gains must be a JSON object, got False"),
    (_sim("forward", frame=0), "frame must be a JSON object, got 0"),
    (_sim("forward", noise=[]), "noise must be a JSON object, got []"),
    ({"task": "forward", "trajectory": 5}, "trajectory must be a JSON object, got 5"),
    (_segment("pink"), "termination must be a JSON object, got 'pink'"),
    ({"task": "forward", "markers": {}}, "markers must be a JSON array, got {}"),
    ({"task": "forward", "markers": [5]}, "marker must be a JSON object, got 5"),
    (_sim("coordination", carrier_waypoints={}), "carrier_waypoints must be a JSON array, got {}"),
    ({"task": "forward", "trajectory": {"type": "segments", "segments": 5}},
     "segments must be a JSON array, got 5"),
    # a color is a JSON string naming a known color
    ({"task": "forward", "search_color": 5}, "search_color must be a color name string, got 5"),
    ({"task": "return", "home_color": None}, "home_color must be a color name string, got None"),
    (_marker(color=5), "color must be a color name string, got 5"),
    (_segment({"type": "marker", "color": 1}), "color must be a color name string, got 1"),
    *[(config, f"{key}: unknown color {name!r}; known: pink, blue, red, green, yellow, orange")
      for key, name, config in [
          ("home_color", "purple", {"task": "return", "home_color": "purple"}),
          ("search_color", "purple", {"task": "forward", "search_color": "purple"}),
          ("search_color", "mauve", {"task": "forward", "search_color": "mauve"}),
          ("color", "purple", _marker(color="purple")),
          ("color", "purple", _segment({"type": "marker", "color": "purple"}))]],
    # a number is a JSON number that a float holds, not a bool, string or null
    ({"task": "forward", "timeout_s": "30"}, "timeout_s must be a number, got '30'"),
    ({"task": "forward", "timeout_s": True}, "timeout_s must be a number, got True"),
    (_marker("track", x=0.3, y=0.2, radius=True), "radius must be a number, got True"),
    (_marker(radius=True), "radius must be a number, got True"),
    (_marker(x="1.0"), "x must be a number, got '1.0'"),
    (_marker(y=False), "y must be a number, got False"),
    (_square(side_duration_s="3"), "side_duration_s must be a number, got '3'"),
    (_square(side_duration_s=3.0, offset_px=True), "offset_px must be a number, got True"),
    (_segment({"type": "duration", "seconds": "5"}), "seconds must be a number, got '5'"),
    (_segment({"type": "distance", "meters": True}), "meters must be a number, got True"),
    (_sim("forward", dt=True), "dt must be a number, got True"),
    (_sim("forward", altitude="1.0"), "altitude must be a number, got '1.0'"),
    (_sim("forward", min_blob_size=None), "min_blob_size must be a number, got None"),
    (_sim("forward", frame={"width": "640"}), "width must be a number, got '640'"),
    (_sim("forward", gains={"k": True}), "k must be a number, got True"),
    (_sim("forward", noise={"drift_std": "0.01"}), "drift_std must be a number, got '0.01'"),
    *[(config, f"{key} must be a number that a float holds, "
               "got 100000000000000000...0000000000000000000")
      for key, config in [("timeout_s", {"task": "forward", "timeout_s": 10**400}),
                          ("x", _marker("track", x=10**400, y=0.2, radius=0.1)),
                          ("min_blob_size", _sim("forward", min_blob_size=10**400)),
                          ("width", _sim("track", frame={"width": 10**400})),
                          ("target",
                           _segment({"type": "duration", "seconds": 5}, (320, 10**400)))]],
    # switches are JSON bools, sizes and counts JSON integers >= 1
    *[(_sim("track", gains={"literal_axes": value}),
       f"{BAD}literal_axes must be true or false, got {value!r}") for value in ("false", 0, None)],
    *[(_sim(task, frame={"width": 640.5}), f"{BAD}frame width must be an integer >= 1, got 640.5")
      for task in ("track", "forward")],
    (_sim("forward", frame={"height": 0}), f"{BAD}frame height must be an integer >= 1, got 0"),
    *[(_sim(task, min_blob_size=value), f"{BAD}min_blob_size must be an integer >= 1, got {value}")
      for task in ("track", "forward") for value in (-5, 2.5)],
    # finite values in range
    (_marker(x=NAN), f"{BAD}marker position must be finite (x, y), got (nan, 0.0)"),
    (_marker("track", x=0.3, y=0.2, radius=INF),
     f"{BAD}marker radius must be positive and finite"),
    ({"task": "forward", "timeout_s": 0}, "timeout_s must be a positive finite number, got 0.0"),
    (_sim("forward", dt=-1.0), f"{BAD}dt must be positive and finite, got -1.0"),
    (_sim("forward", altitude=0), f"{BAD}altitude must be positive and finite, got 0.0"),
    (_sim("forward", frame={"focal_length": 0}), f"{BAD}focal_length must be positive and finite"),
    ({"task": "forward", "trajectory": {"type": "segments", "segments": []}},
     f"{BAD}a trajectory needs at least one segment"),
    (_segment({"type": "duration", "seconds": 0}),
     f"{BAD}duration seconds must be a positive number that a float holds, got 0.0"),
    (_segment({"type": "distance", "meters": -1}),
     f"{BAD}distance meters must be a positive number that a float holds, got -1.0"),
    (_square(side_duration_s=0), f"{BAD}side_duration_s must be positive, got 0.0"),
    (_sim("forward", gains={"k": -1}), f"{BAD}gain k must be positive and finite"),
    (_sim("track", gains={"max_speed": INF}), f"{BAD}max_speed must be positive and finite"),
    *[(_sim(task, gains={"hover_threshold": NAN}), f"{BAD}hover_threshold must be finite and >= 0")
      for task in ("track", "coordination")],
    *[(_sim(task, noise={key: NAN}), f"{BAD}{key} must be finite and >= 0")
      for task in ("return", "coordination") for key in ("drift_std", "takeoff_jitter_std")],
    *[(_sim("coordination", carrier_speed=value, **waypoints),
       f"{BAD}carrier_speed must be positive and finite, got {value}")
      for value in (-0.3, NAN) for waypoints in ({}, {"carrier_waypoints": [[1.0, 0.0]]})],
    (_sim("coordination", carrier_height=NAN), f"{BAD}carrier_height must be in [0, altitude)"),
    *[(_sim("coordination", carrier_marker_radius=value),
       f"{BAD}carrier_marker_radius must be positive and finite, got {value}")
      for value in (NAN, -INF)],
    ({**SMALL_TRACK, "timeout_s": 1e6}, "timeout_s 1000000.0 at dt 0.1 allows 1e+07 ticks per "
                                        "mission, over the budget of 1000000"),
    # points are finite [x, y] pairs, and a target's pixel error is finite too
    ({"task": "forward", "drone_start": 5}, "drone_start must be a finite [x, y] pair, got 5"),
    ({"task": "forward", "drone_start": [True, 0.0]},
     "drone_start must be a finite [x, y] pair, got [True, 0.0]"),
    ({"task": "coordination", "drone_start": [NAN, 0.0]},
     "drone_start must be a finite [x, y] pair, got [nan, 0.0]"),
    ({"task": "coordination", "carrier_start": [0.0, INF]},
     "carrier_start must be a finite [x, y] pair, got [0.0, inf]"),
    (_sim("coordination", carrier_waypoints=[5]),
     "carrier_waypoints must be a finite [x, y] pair, got 5"),
    (_sim("coordination", carrier_waypoints=[[1.0, 0.0], [NAN, 0.0]]),
     "carrier_waypoints must be a finite [x, y] pair, got [nan, 0.0]"),
    (_segment({"type": "marker", "color": "pink"}, ("320", 80)),
     "target must be a finite [x, y] pair, got ['320', 80]"),
    (_segment({"type": "marker", "color": "pink"}, (320, True)),
     "target must be a finite [x, y] pair, got [320, True]"),
    (_segment({"type": "duration", "seconds": 1.0}, (1.7e308, 1.7e308)),
     "target [1.7e+308, 1.7e+308] is too far from the frame center: its pixel error overflows"),
    (_segment({"type": "duration", "seconds": 1.0}, (-1.7e308, 1e308)),
     "target [-1.7e+308, 1e+308] is too far from the frame center: its pixel error overflows"),
    # the campaign settings, which Campaign checks
    *[({"task": "forward", key: value}, message) for key, value, message in CAMPAIGN_SETTINGS],
    ({**SMALL_TRACK, "trials": 2.7}, "trials must be an integer, got 2.7"),
    ({**SMALL_TRACK, "base_seed": "0"}, "base_seed must be an integer, got '0'"),
    ({**SMALL_TRACK, "base_seed": -3}, "base_seed must be >= 0, got -3"),
]


@pytest.mark.parametrize("config, message", CONFIG_ROWS, ids=[m for _, m in CONFIG_ROWS])
def test_a_rejected_config_names_its_file_and_exits_2(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    with pytest.raises(ScenarioError) as err:
        load_campaign(path)
    loaded = str(err.value)
    try:   # plain JSON, where a key named twice keeps its last copy
        tree = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError):
        assert loaded.startswith(f"config {path} {message}")
    else:
        try:   # as bench/workloads.py builds its scenarios
            build_scenario(tree)
        except ScenarioError as exc:
            assert str(exc) == message
        # else the scenario builds: a campaign setting or a key named twice is at fault
        assert loaded == f"config {path}: {message}"
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {loaded}\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", CAMPAIGN_SETTINGS)
def test_campaign_settings_are_checked_by_campaign_alone(key, value, message):
    # build_scenario leaves them to Campaign, which gives a file and a caller
    # in code the same error
    sc = build_scenario({"task": "forward", key: value})
    assert sc == default_scenario("forward")
    with pytest.raises(ScenarioError, match=re.escape(message)):
        Campaign(sc, **{key: value})


def _set(column, value):
    """An edit that writes ``value`` into ``column`` of the first row."""
    def edit(rows):
        rows[1][rows[0].index(column)] = value
        return rows
    return edit


def _short(rows):
    return [rows[0], rows[1][:3], *rows[2:]]


def _long(rows):
    return [rows[0], rows[1] + ["0"], *rows[2:]]


def _twice(column):
    """An edit that adds a second ``column`` holding failed:timeout, which a
    reader keying rows by the header would take in place of the first."""
    return lambda rows: [rows[0] + [column]] + [row + ["failed:timeout"] for row in rows[1:]]


def _outbound(rows):
    """The trajectory without its return leg, as a track mission logs it."""
    state = rows[0].index("fsm_state")
    return [row for row in rows if not row[state].startswith(RETURN_PHASES)]


STATS, SPREAD = ("stats", "results.csv"), ("spread", "trajectory_0.csv")
LIMIT = csv.field_size_limit()

#: (command, file of the campaign, edit, message): the command's reader must
#: raise MalformedLogError with the message on the edited file.
CSV_ROWS = [
    # the header lacks a column or names one twice
    (*STATS, lambda rows: [["a", "b"], ["1", "2"]], "results file missing columns: "
     "['elapsed_s', 'final_x', 'final_y', 'outcome', 'seed', 'ticks', 'trial']"),
    (*STATS, lambda rows: [["trial", "seed"], ["0", "0"]],
     "results file missing columns: ['elapsed_s', 'final_x', 'final_y', 'outcome', 'ticks']"),
    (*SPREAD, lambda rows: [["step", "time_s", "drone_x"], ["0", "0.0", "0.0"]],
     "trajectory file missing columns: ['detected_color', 'drone_y', 'drone_z', 'err_px', "
     "'fsm_state', 'vel_fwd', 'vel_right']"),
    ("spread", "results.csv", lambda rows: rows,
     "trajectory file missing columns: ['detected_color', 'drone_x', 'drone_y', 'drone_z', "
     "'err_px', 'fsm_state', 'step', 'time_s', 'vel_fwd', 'vel_right']"),
    (*STATS, _twice("outcome"), "results file header names column 'outcome' twice"),
    (*SPREAD, _twice("fsm_state"), "trajectory file header names column 'fsm_state' twice"),
    # a row with more or fewer fields than the header
    (*STATS, _short, "results file line 2: 3 fields, the header has 7"),
    (*STATS, _long, "results file line 2: 8 fields, the header has 7"),
    (*SPREAD, _short, "trajectory file line 2: 3 fields, the header has 10"),
    (*SPREAD, _long, "trajectory file line 2: 11 fields, the header has 10"),
    # a cell over the csv module's field limit, or a file that is not UTF-8
    (*STATS, _set("outcome", "x" * (LIMIT + 1)),
     f"results file line 2: field larger than field limit ({LIMIT})"),
    (*SPREAD, _set("fsm_state", "x" * (LIMIT + 1)),
     f"trajectory file line 2: field larger than field limit ({LIMIT})"),
    (*STATS, _set("outcome", "success\udcff"), "results file is not UTF-8: invalid start byte"),
    (*SPREAD, _set("fsm_state", "landed\udcff"),
     "trajectory file is not UTF-8: invalid start byte"),
    # a number that does not parse, or parses only leniently, in a row that
    # feeds mean_s or the spread
    *[(command, name, _set(column, value),
       f"{what} file line 2: {column} {value!r} is not {expected}")
      for command, name, what, column, expected in [
          (*STATS, "results", "elapsed_s", "a finite number"),
          (*STATS, "results", "trial", "an integer"),
          (*SPREAD, "trajectory", "drone_x", "a finite number"),
          (*SPREAD, "trajectory", "step", "an integer"),
          (*SPREAD, "trajectory", "err_px", "empty or a finite number")]
      for value in ["abc", "nan", "inf", "1_0", "1_0.5", " 2 ", "\u0663", "\uff11.5"]],
    # an outcome that would print a forged line: the line is where csv has
    # read to when the row ends
    *[(*STATS, _set("outcome", label), f"results file line {line}: outcome {label!r} "
                                        "is not printable text")
      for label, line in [("failed:x\nsuccess_count: 99", 3), ("failed:x\rsuccess_count: 99", 3),
                          ("failed:\x1b[2Ktimeout", 2),   # erases the printed line
                          ("failed:x\u2028success", 2)]],  # a Unicode line separator
    # a log that reads but is no out-and-back mission
    (*SPREAD, _outbound, "log has no return leg after the hover"),
]

READERS = {"stats": read_results_csv, "spread": lambda path: path_spread(load_trajectory(path))}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The directory of a two-trial return campaign whose trials both succeed."""
    out = tmp_path_factory.mktemp("campaign")
    config = {**SMALL_TRACK, "task": "return",
              "markers": [{"x": 0.8, "y": 0.0, "radius": 0.12, "color": "pink"}]}
    assert run_campaign(Campaign(build_scenario(config), trials=2), out).success_count == 2
    return out


@pytest.mark.parametrize("command, name, edit, message", CSV_ROWS, ids=[r[3] for r in CSV_ROWS])
def test_a_rejected_csv_exits_2_with_its_readers_message(campaign, tmp_path, capsys, command,
                                                         name, edit, message):
    with open(campaign / name, newline="", encoding="utf-8") as fh:
        rows = edit(list(csv.reader(fh)))
    path = tmp_path / name
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(MalformedLogError) as err:
        READERS[command](path)
    assert str(err.value) == message
    assert main([command, "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
