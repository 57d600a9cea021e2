"""The visnav command line: run / stats / spread subcommands and exit codes."""

import json

import pytest

from visnav import default_scenario, run
from visnav.cli import main


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


def test_spread_on_wrong_csv_exits_2(tmp_path):
    out = tmp_path / "out"
    main(["run", "--task", "track", "--trials", "1", "--out", str(out)])
    assert main(["spread", "--in", str(out / "results.csv")]) == 2


def test_default_noise_run_spread_stats_chain(tmp_path, capsys):
    # drift and takeoff jitter on: every file the run writes must read back
    out = tmp_path / "out"
    assert main(["run", "--task", "return", "--trials", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    for trial in (0, 1):
        assert main(["spread", "--in", str(out / f"trajectory_{trial}.csv")]) == 0
        assert capsys.readouterr().out.startswith("path_spread_m:")
    assert main(["stats", "--in", str(out / "results.csv")]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text()


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
