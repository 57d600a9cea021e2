"""The visnav command line: run / stats / spread subcommands and exit codes."""

import csv
import json
import math

import pytest

from visnav import FrameSpec, default_scenario, load_campaign, run, run_campaign
from visnav.cli import main
from visnav.harness import MAX_DUMP_FRAME_BYTES, RESULTS_COLUMNS
from visnav.perception import ppm_size
from visnav.sim import TRAJECTORY_COLUMNS


def write_config(tmp_path, **overrides):
    config = {
        "task": "track",
        "markers": [{"x": 0.1, "y": 0.05, "radius": 0.12, "color": "pink"}],
        "sim": {
            "frame": {"width": 64, "height": 36, "focal_length": 32.0},
            "noise": {"drift_std": 0.0, "takeoff_jitter_std": 0.0},
        },
    }
    config.update(overrides)
    path = tmp_path / "mission.json"
    path.write_text(json.dumps(config))
    return path


def test_run_builtin_task(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--task", "track", "--trials", "2", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "success 2/2" in captured
    assert (out / "results.csv").exists()
    assert (out / "trajectory_0.csv").exists()
    assert (out / "trajectory_1.csv").exists()
    assert (out / "summary.txt").exists()


def test_run_with_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)])
    assert code == 0
    assert "success 1/1" in capsys.readouterr().out


def test_config_trials_and_seed_with_cli_override(tmp_path, capsys):
    cfg = write_config(tmp_path, trials=3, base_seed=50)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "success 3/3" in text
    assert "seed 50" in text and "seed 52" in text
    # explicit flags beat the config values
    assert main(["run", "--config", str(cfg), "--trials", "1", "--seed", "7",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "success 1/1" in text and "seed 7" in text


def test_run_requires_task_or_config(tmp_path):
    assert main(["run", "--out", str(tmp_path / "o")]) == 2


def test_run_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[" * 200_000 + b"]" * 200_000, b"\xff\xfe{}"],
                         ids=["nested_200000_deep", "not_utf8"])
def test_run_config_too_deep_or_not_utf8_exits_2_naming_the_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {bad} is not valid UTF-8 JSON: ")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_run_strict_exits_3_on_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, task="forward", timeout_s=1.0,
                       markers=[{"x": 5.0, "y": 0.0, "radius": 0.06, "color": "pink"}])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--trials", "2", "--out", str(out),
                 "--strict"]) == 3
    # without --strict the same campaign exits 0
    assert main(["run", "--config", str(cfg), "--trials", "2", "--out", str(out)]) == 0


def test_run_literal_eq3_defeats_forward_search(tmp_path, capsys):
    # with the verbatim axis map the vehicle flies away from the forward
    # target, so the marker ahead is never found
    cfg = write_config(tmp_path, task="forward", timeout_s=5.0,
                       markers=[{"x": 0.8, "y": 0.0, "radius": 0.12, "color": "pink"}])
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out),
                 "--literal-eq3"])
    assert code == 0
    assert "failed:timeout" in capsys.readouterr().out
    results = (out / "results.csv").read_text()
    assert "failed:timeout" in results


def test_run_dump_frames(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out),
                 "--dump-frames"])
    assert code == 0
    frames = sorted((out / "trial_0").glob("frame_*.ppm"))
    assert frames
    assert frames[0].name == "frame_000000.ppm"


def test_dump_frames_stride_writes_every_nth_captured_frame(tmp_path, capsys):
    # a forward search with no marker to find captures a frame on every
    # tick after the 2 s climb, until the 6 s timeout
    cfg = write_config(tmp_path, task="forward", markers=[], timeout_s=6.0)
    every = []
    for n in (1, 3, 4):
        out = tmp_path / f"out{n}"
        assert main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out),
                     "--dump-frames", str(n)]) == 0
        names = sorted(p.name for p in (out / "trial_0").iterdir())
        every = every or names
        assert len(names) == math.ceil(len(every) / n)
        assert names == every[::n]
        # 64x36 frames of 6925 bytes, at most ceil((6 / 0.1 + 1) / n) per trial
        assert f"6925 bytes per frame, at most 1 trials x {math.ceil(61 / n)} frames" \
            in capsys.readouterr().err
    assert len(every) == 39


@pytest.mark.parametrize("stride", ["0", "-2"])
def test_dump_frames_stride_below_one_exits_2(tmp_path, capsys, stride):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out),
                 "--dump-frames", stride]) == 2
    assert "--dump-frames stride must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_stats_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--task", "track", "--trials", "3", "--out", str(out)])
    capsys.readouterr()
    code = main(["stats", "--in", str(out / "results.csv")])
    assert code == 0
    text = capsys.readouterr().out
    assert "success_count: 3" in text
    assert "mean_s:" in text and "std_dev_s:" in text


def test_stats_missing_file_exits_2(tmp_path):
    assert main(["stats", "--in", str(tmp_path / "none.csv")]) == 2


def test_stats_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "r.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["stats", "--in", str(bad)]) == 2


def test_spread_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, task="return",
                       markers=[{"x": 0.8, "y": 0.0, "radius": 0.12, "color": "pink"}])
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)])
    capsys.readouterr()
    code = main(["spread", "--in", str(out / "trajectory_0.csv")])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("path_spread_m:")
    assert float(text.split(":")[1]) <= 1e-6


def test_spread_on_wrong_csv_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--task", "track", "--trials", "1", "--out", str(out)])
    assert main(["spread", "--in", str(out / "results.csv")]) == 2
    capsys.readouterr()
    assert main(["spread", "--in", str(out / "trajectory_0.csv")]) == 2   # a track log
    assert "no return leg after the hover" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, what", [("stats", "results.csv", "results"),
                                                  ("spread", "trajectory_0.csv", "trajectory")])
@pytest.mark.parametrize("change", ["short", "long"])
def test_csv_row_with_the_wrong_field_count_exits_2(tmp_path, capsys, command, name, what,
                                                    change):
    cfg = write_config(tmp_path, task="return",
                       markers=[{"x": 0.8, "y": 0.0, "radius": 0.12, "color": "pink"}])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 0
    lines = (out / name).read_text().splitlines(keepends=True)
    fields = lines[1].rstrip("\r\n").split(",")
    row = fields[:3] if change == "short" else fields + ["0"]
    lines[1] = ",".join(row) + "\r\n"
    (out / name).write_text("".join(lines))
    capsys.readouterr()
    assert main([command, "--in", str(out / name)]) == 2
    header = len(lines[0].split(","))
    assert capsys.readouterr().err == \
        f"error: {what} file line 2: {len(row)} fields, the header has {header}\n"


@pytest.mark.parametrize("command, columns, what", [("stats", RESULTS_COLUMNS, "results"),
                                                     ("spread", TRAJECTORY_COLUMNS, "trajectory")])
def test_csv_cell_over_the_csv_field_limit_exits_2(tmp_path, capsys, command, columns, what):
    path = tmp_path / "log.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerow(["0"] * len(columns))
        writer.writerow(["x" * (csv.field_size_limit() + 1)] * len(columns))
    assert main([command, "--in", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {what} file line 3: field larger than field "
                                       f"limit ({csv.field_size_limit()})\n")


@pytest.mark.parametrize("command, name, column, expected", [
    ("stats", "results.csv", "elapsed_s", "a finite number"),
    ("stats", "results.csv", "trial", "an integer"),
    ("spread", "trajectory_0.csv", "drone_x", "a finite number"),
    ("spread", "trajectory_0.csv", "step", "an integer"),
    ("spread", "trajectory_0.csv", "err_px", "empty or a finite number"),
])
@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1_0", "1_0.5", " 2 ", "\u0663",
                                   "\uff11.5"])
def test_csv_value_that_does_not_parse_exits_2(tmp_path, capsys, command, name, column,
                                               expected, value):
    # the last row: a successful trial of results.csv, a return-leg row of
    # the trajectory, so an unchecked nan would reach mean_s or the spread
    cfg = write_config(tmp_path, task="return",
                       markers=[{"x": 0.8, "y": 0.0, "radius": 0.12, "color": "pink"}])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--trials", "2", "--out", str(out)]) == 0
    what, last = ("results", "success") if command == "stats" else ("trajectory", "landed")
    with open(out / name, newline="") as fh:
        rows = list(csv.reader(fh))
    assert last in rows[-1]
    rows[-1][rows[0].index(column)] = value
    with open(out / name, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main([command, "--in", str(out / name)]) == 2
    assert capsys.readouterr().err == \
        f"error: {what} file line {len(rows)}: {column} {value!r} is not {expected}\n"


@pytest.mark.parametrize("command, name, what, column", [
    ("stats", "results.csv", "results", "outcome"),
    ("spread", "trajectory_0.csv", "trajectory", "fsm_state")])
def test_csv_that_is_not_utf8_exits_2_naming_the_file_kind(tmp_path, capsys, command, name,
                                                           what, column):
    cfg = write_config(tmp_path, task="return",
                       markers=[{"x": 0.8, "y": 0.0, "radius": 0.12, "color": "pink"}])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 0
    with open(out / name, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][rows[0].index(column)] = "landed\udcff"  # a lone 0xff byte once encoded
    with open(out / name, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main([command, "--in", str(out / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} file is not UTF-8: ")


def test_csv_cell_error_bounds_the_cell_it_echoes(tmp_path, capsys):
    path = tmp_path / "results.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        writer.writerow(["7" * 100_000, 0, "success", 1.0, 10, 0.0, 0.0])
    assert main(["stats", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: results file line 2: trial ") and len(err.encode()) < 1024


def test_stats_bounds_a_long_outcome_label_and_prints_run_labels_whole(tmp_path, capsys):
    labels = ["success", "failed:timeout", "failed:search_exhausted",
              "failed:return_exhausted", "failed:reversal_unavailable", "x" * 100_000]
    path = tmp_path / "results.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        writer.writerows([i, i, label, 1.0, 10, 0.0, 0.0] for i, label in enumerate(labels))
    assert main(["stats", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 1024
    for label in labels[:-1]:
        assert f"\noutcome {label}: 1\n" in out
    assert f"\noutcome {'x' * 64}... (100000 characters): 1\n" in out


@pytest.mark.parametrize("command, name, what, column, value", [
    ("stats", "results.csv", "results", "outcome", "failed:timeout"),
    ("spread", "trajectory_0.csv", "trajectory", "fsm_state", "failed:timeout")])
def test_csv_header_naming_a_column_twice_exits_2(tmp_path, capsys, command, name, what,
                                                   column, value):
    # read as a dict, the later column would win and the run's own cells be lost
    cfg = write_config(tmp_path, task="return",
                       markers=[{"x": 0.8, "y": 0.0, "radius": 0.12, "color": "pink"}])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--trials", "2", "--out", str(out)]) == 0
    with open(out / name, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(out / name, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0] + [column]] + [row + [value] for row in rows[1:]])
    capsys.readouterr()
    assert main([command, "--in", str(out / name)]) == 2
    assert capsys.readouterr() == \
        ("", f"error: {what} file header names column {column!r} twice\n")


def test_config_error_bounds_the_value_it_echoes(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"task": "return", "markers": {"x": "a" * 2_000_000}}))
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: markers must be a JSON array") and len(err.encode()) < 1024


@pytest.mark.parametrize("message, config", [
    ("marker is missing key 'y'",
     {"task": "forward", "markers": [{"x": 1.0, "radius": 0.06, "color": "pink"}]}),
    ("segment is missing key 'target'",
     {"task": "forward", "trajectory": {"type": "segments", "segments": [
         {"until": {"type": "marker", "color": "pink"}}]}}),
    ("square trajectory is missing key 'side_duration_s'",
     {"task": "forward", "trajectory": {"type": "square"}}),
    ("duration termination is missing key 'seconds'",
     {"task": "forward", "trajectory": {"type": "segments", "segments": [
         {"target": [320, 80], "until": {"type": "duration"}}]}}),
])
def test_run_names_a_missing_required_config_key(tmp_path, capsys, message, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_default_noise_run_spread_stats_chain(tmp_path, capsys):
    # drift and takeoff jitter on: every file the run writes must read back
    out = tmp_path / "out"
    assert main(["run", "--task", "return", "--trials", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    for trial in (0, 1):
        assert main(["spread", "--in", str(out / f"trajectory_{trial}.csv")]) == 0
        assert capsys.readouterr().out.startswith("path_spread_m:")
    assert main(["stats", "--in", str(out / "results.csv")]) == 0
    text = capsys.readouterr().out
    summary = (out / "summary.txt").read_text()
    assert text.startswith(summary)
    with open(out / "results.csv", newline="") as fh:
        results = list(csv.DictReader(fh))
    outcomes = sorted({r["outcome"] for r in results})
    times = sorted(float(r["elapsed_s"]) for r in results if r["outcome"] == "success")
    *counts, p50 = text[len(summary):].splitlines()
    assert counts == [f"outcome {o}: {sum(r['outcome'] == o for r in results)}"
                      for o in outcomes]
    assert p50.startswith("elapsed_p50_s: ")
    assert float(p50.split(": ")[1]) == pytest.approx(
        (times[0] + times[-1]) / 2 if times else math.nan, nan_ok=True)


def test_noisy_poses_stay_python_floats():
    sc = default_scenario("return")
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert all(type(row.drone_x) is float and type(row.drone_y) is float
               for row in result.rows)
    assert type(result.final_pose.x) is float and type(result.final_pose.y) is float


def test_run_rejects_non_finite_marker_position(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"task": "forward", "markers": '
                    '[{"x": NaN, "y": 0.0, "radius": 0.06, "color": "pink"}]}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert "marker position must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/trajectory_*.csv"))


def test_run_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--task", "track", "--trials", "1", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert "base_seed must be >= 0" in capsys.readouterr().err
    cfg = write_config(tmp_path, base_seed=-3)
    assert main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 2
    assert "base_seed must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/trajectory_*.csv"))


@pytest.mark.parametrize("key, value", [
    ("drone_start", [float("nan"), 0.0]),
    ("carrier_start", [0.0, float("inf")]),
    ("carrier_waypoints", [[1.0, 0.0], [float("nan"), 0.0]]),
])
def test_run_rejects_non_finite_start_and_waypoints(tmp_path, capsys, key, value):
    config = {"task": "coordination"}
    if key == "carrier_waypoints":
        config["sim"] = {key: value}
    else:
        config[key] = value
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert f"{key} must be a finite [x, y] pair" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_tick_budget_overrun_before_writing(tmp_path, capsys):
    cfg = write_config(tmp_path, timeout_s=1e6)   # 10^7 ticks at dt 0.1
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "timeout_s 1000000.0 at dt 0.1" in err and "budget" in err
    assert not out.exists()


@pytest.mark.parametrize("radius, message", [
    ("Infinity", "marker radius must be positive and finite"),
    ("1e306", "is too large to draw"),
])
def test_run_rejects_marker_radius_that_overflows(tmp_path, capsys, radius, message):
    path = tmp_path / "huge.json"
    path.write_text('{"task": "track", "markers": '
                    f'[{{"x": 0.3, "y": 0.2, "radius": {radius}, "color": "pink"}}]}}')
    assert main(["run", "--config", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


HUGE_MARKER = {"task": "track",
               "markers": [{"x": 0.3, "y": 0.2, "radius": 1e306, "color": "pink"}]}


@pytest.mark.parametrize("flags", [[], ["--dump-frames"]])
def test_run_that_fails_in_a_trial_leaves_no_output_directory(tmp_path, capsys, flags):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_MARKER))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "2",
                 "--out", str(out / "nested"), *flags]) == 2
    assert "is too large to draw" in capsys.readouterr().err
    assert not out.exists()


def test_run_that_fails_in_a_trial_leaves_an_existing_out_directory_as_it_was(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_MARKER))
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n")
    assert main(["run", "--config", str(path), "--out", str(out), "--dump-frames"]) == 2
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me\n"


@pytest.mark.parametrize("message, config", [
    ("unknown config key 'timeot_s'", {"task": "forward", "timeot_s": 5}),
    ("unknown marker key 'hieght'",
     {"task": "track",
      "markers": [{"x": 0.3, "y": 0.2, "radius": 0.06, "color": "pink", "hieght": 1.0}]}),
    ("unknown square trajectory key 'ofset_px'",
     {"task": "forward", "trajectory": {"type": "square", "side_duration_s": 4.0,
                                        "ofset_px": 50}}),
    ("unknown forward trajectory key 'side_duration_s'",
     {"task": "forward", "trajectory": {"side_duration_s": 4.0}}),
    ("unknown segments trajectory key 'segment'",
     {"task": "forward", "trajectory": {"type": "segments", "segments": [], "segment": []}}),
    ("unknown segment key 'untill'",
     {"task": "forward", "trajectory": {"type": "segments", "segments": [
         {"target": [320, 80], "untill": {"type": "duration", "seconds": 5.0}}]}}),
    ("unknown duration termination key 'color'",
     {"task": "forward", "trajectory": {"type": "segments", "segments": [
         {"target": [320, 80], "until": {"type": "duration", "seconds": 5.0,
                                         "color": "pink"}}]}}),
    ('a track config takes no "trajectory" key',
     {"task": "track", "trajectory": {"type": "spiral", "side_duration_s": "x"}}),
])
def test_run_rejects_unknown_config_keys(tmp_path, capsys, message, config):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("message, config", [
    ("sim must be a JSON object", {"task": "forward", "sim": [["dt", 0.2]]}),
    ("gains must be a JSON object", {"task": "forward", "sim": {"gains": None}}),
    ("gains must be a JSON object", {"task": "forward", "sim": {"gains": False}}),
    ("frame must be a JSON object", {"task": "forward", "sim": {"frame": 0}}),
    ("noise must be a JSON object", {"task": "forward", "sim": {"noise": []}}),
    ("markers must be a JSON array", {"task": "forward", "markers": {}}),
    ("carrier_waypoints must be a JSON array",
     {"task": "coordination", "sim": {"carrier_waypoints": {}}}),
    ("search_color must be a color name string", {"task": "forward", "search_color": 5}),
    ("home_color must be a color name string", {"task": "return", "home_color": None}),
    ("color must be a color name string",
     {"task": "forward", "markers": [{"x": 1.0, "y": 0.0, "radius": 0.06, "color": 5}]}),
    ("color must be a color name string",
     {"task": "forward", "trajectory": {"type": "segments", "segments": [
         {"target": [320, 80], "until": {"type": "marker", "color": 1}}]}}),
    ("drone_start must be a finite [x, y] pair", {"task": "forward", "drone_start": 5}),
    ("carrier_waypoints must be a finite [x, y] pair",
     {"task": "coordination", "sim": {"carrier_waypoints": [5]}}),
    ("segments must be a JSON array",
     {"task": "forward", "trajectory": {"type": "segments", "segments": 5}}),
])
def test_run_rejects_config_values_of_the_wrong_json_type(tmp_path, capsys, message, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("key, config", [
    ("home_color", {"task": "return", "home_color": "purple"}),
    ("search_color", {"task": "forward", "search_color": "purple"}),
    ("color", {"task": "forward",
               "markers": [{"x": 1.0, "y": 0.0, "radius": 0.06, "color": "purple"}]}),
    ("color", {"task": "forward", "trajectory": {"type": "segments", "segments": [
        {"target": [320, 80], "until": {"type": "marker", "color": "purple"}}]}}),
])
def test_run_rejects_an_unknown_color_naming_its_key(tmp_path, capsys, key, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {key}: unknown color 'purple'; known: pink, blue, red, green, yellow, orange\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("trials", 2.7), ("base_seed", "0")])
def test_run_rejects_non_integer_trials_and_seed(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("message, sim", [
    ("literal_axes must be true or false", {"gains": {"literal_axes": "false"}}),
    ("frame width must be an integer >= 1", {"frame": {"width": 640.5}}),
    ("min_blob_size must be an integer >= 1", {"min_blob_size": -5}),
    ("min_blob_size must be an integer >= 1", {"min_blob_size": 2.5}),
])
def test_run_rejects_mistyped_switches_and_sizes(tmp_path, capsys, message, sim):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": "track", "sim": sim}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, config", [
    ("timeout_s", {"task": "forward", "timeout_s": "30"}),
    ("radius", {"task": "track",
                "markers": [{"x": 0.3, "y": 0.2, "radius": True, "color": "pink"}]}),
    ("seconds", {"task": "forward", "trajectory": {"type": "segments", "segments": [
        {"target": [320, 80], "until": {"type": "duration", "seconds": "5"}}]}}),
    ("dt", {"task": "forward", "sim": {"dt": True}}),
    ("drift_std", {"task": "forward", "sim": {"noise": {"drift_std": "0.01"}}}),
])
def test_run_rejects_config_numbers_that_are_not_json_numbers(tmp_path, capsys, key, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    assert f"{key} must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, sim", [
    ("hover_threshold", '{"gains": {"hover_threshold": NaN}}'),
    ("drift_std", '{"noise": {"drift_std": NaN}}'),
    ("takeoff_jitter_std", '{"noise": {"takeoff_jitter_std": NaN}}'),
    ("carrier_speed", '{"carrier_speed": -0.3, "carrier_waypoints": [[1.0, 0.0]]}'),
    ("carrier_speed", '{"carrier_speed": NaN, "carrier_waypoints": [[1.0, 0.0]]}'),
    ("carrier_height", '{"carrier_height": NaN}'),
    ("carrier_marker_radius", '{"carrier_marker_radius": NaN}'),
])
def test_run_rejects_non_finite_and_out_of_range_sim_values(tmp_path, capsys, key, sim):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"task": "coordination", "sim": {sim}}}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_run_with_a_duration_too_long_to_count_in_ticks_times_out(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "task": "forward", "markers": [], "timeout_s": 5.0,
        "trajectory": {"type": "segments", "segments": [
            {"target": [320, 80], "until": {"type": "duration", "seconds": 1e308}}]}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    with open(out / "results.csv", newline="") as fh:
        assert [row["outcome"] for row in csv.DictReader(fh)] == ["failed:timeout"]


#: Config keys whose values are JSON integers by schema, not float settings.
_INTEGER_KEYS = {"trials", "base_seed", "min_blob_size", "width", "height"}


def _spelled_as_floats(node, key=None):
    """The config tree with every integer in a float setting written as a float."""
    if isinstance(node, dict):
        return {k: _spelled_as_floats(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_spelled_as_floats(v, key) for v in node]
    if type(node) is int and key not in _INTEGER_KEYS:
        return float(node)
    return node


@pytest.mark.parametrize("task", ["track", "forward", "return", "coordination"])
def test_integers_in_float_settings_write_the_same_bytes(tmp_path, capsys, task):
    config = {
        "task": task, "timeout_s": 200, "drone_start": [0, 0], "carrier_start": [0, 0],
        "markers": [{"x": 0 if task == "track" else 2, "y": 0, "radius": 0.06,
                     "color": "pink"}],
        "sim": {"dt": 1, "altitude": 1, "carrier_height": 0, "carrier_speed": 1,
                "carrier_waypoints": [[0, 0]], "climb_rate": 1, "descent_rate": 1,
                "min_blob_size": 10, "frame": {"width": 640, "height": 360, "focal_length": 320},
                "gains": {"hover_threshold": 50, "max_speed": 1},
                "noise": {"drift_std": 0, "takeoff_jitter_std": 0}},
    }
    if task != "track":
        config["trajectory"] = {"type": "segments", "segments": [
            {"target": [320, 80], "until": {"type": "distance", "meters": 3}}]}
    outs = []
    for name, tree in (("int", config), ("float", _spelled_as_floats(config))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tree))
        outs.append(tmp_path / name)
        assert main(["run", "--config", str(path), "--trials", "2", "--dump-frames", "40",
                     "--out", str(outs[-1])]) == 0
    assert "1.0" not in (tmp_path / "int.json").read_text()
    assert "success 2/2" in capsys.readouterr().out
    files = [sorted(p.relative_to(out) for p in out.rglob("*")) for out in outs]
    assert files[0] == files[1] and len(files[0]) > 4
    for rel in files[0]:
        a, b = (out / rel for out in outs)
        assert a.is_dir() or a.read_bytes() == b.read_bytes(), rel



@pytest.mark.parametrize("frame", [{"width": 1000000000000}, {"height": 1000000000000},
                                   {"width": 3000, "height": 4000}])
def test_dump_of_frames_over_the_size_cap_exits_2_before_any_trial(tmp_path, capsys, frame):
    # a frame is drawn only to be dumped, so the cap stops the run before any is drawn
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"task": "track", "sim": {"frame": frame}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out),
                 "--dump-frames"]) == 2
    err = capsys.readouterr().err
    size = ppm_size(FrameSpec(**frame))
    assert size > MAX_DUMP_FRAME_BYTES
    assert f"error: frame.width x frame.height makes a {size}-byte frame" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", [[1.7e308, 1.7e308], [-1.7e308, 1e308]])
def test_run_rejects_a_target_whose_pixel_error_overflows(tmp_path, capsys, target):
    # each coordinate is finite but the error norm is not, so err_px would be inf
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"task": "forward", "trajectory": {
        "type": "segments",
        "segments": [{"target": target, "until": {"type": "duration", "seconds": 1.0}}]}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: target {target!r}") and "overflows" in err
    assert not out.exists()


def test_library_and_cli_run_a_config_file_alike(tmp_path, capsys):
    # the file's trials and base_seed reach the library's Campaign as they reach the CLI
    cfg = write_config(tmp_path, trials=3, base_seed=40,
                       sim={"frame": {"width": 64, "height": 36, "focal_length": 32.0}})
    run_campaign(load_campaign(cfg), out_dir=tmp_path / "a")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert "success 3/3" in capsys.readouterr().out
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names == ["results.csv", "summary.txt",
                     "trajectory_0.csv", "trajectory_1.csv", "trajectory_2.csv"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    with open(tmp_path / "a" / "results.csv", newline="") as fh:
        assert [row["seed"] for row in csv.DictReader(fh)] == ["40", "41", "42"]
