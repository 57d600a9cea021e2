"""Campaign runner, statistics and the path-spread measure."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visnav import (Campaign, Color, InsufficientDataError, MalformedLogError, Marker,
                    MissionResult, NoiseModel, Pose, TrajectoryRow, TrialRecord, default_scenario,
                    path_spread, run, run_campaign, sample_stats)
from visnav.harness import (P95_MIN_SUCCESSES, RETURN_PHASES, format_outcomes, format_summary,
                            load_trajectory, read_results_csv, summarize_results,
                            write_results_csv)


def test_sample_stats_known_values():
    mean, std = sample_stats([1.0] * 14 + [0.0] * 6)
    assert mean == pytest.approx(0.7, abs=5e-5)
    assert std == pytest.approx(0.4702, abs=5e-5)


def test_sample_stats_constant_series():
    assert sample_stats([5.0, 5.0, 5.0]) == (5.0, 0.0)


def test_sample_stats_two_values():
    mean, std = sample_stats([0.0, 10.0])
    assert mean == 5.0
    assert std == pytest.approx(math.sqrt(50.0), rel=1e-12)


def test_sample_stats_insufficient_data():
    with pytest.raises(InsufficientDataError):
        sample_stats([1.0])
    with pytest.raises(InsufficientDataError):
        sample_stats([])


def test_sample_stats_matches_two_pass_oracle():
    rng = np.random.default_rng(51)
    for _ in range(50):
        values = list(rng.uniform(-100, 100, rng.integers(2, 40)))
        mean, std = sample_stats(values)
        om = sum(values) / len(values)
        ov = sum((v - om) ** 2 for v in values) / (len(values) - 1)
        assert mean == pytest.approx(om, rel=1e-12, abs=1e-12)
        assert std == pytest.approx(math.sqrt(ov), rel=1e-12, abs=1e-12)


def test_zero_noise_campaign_has_zero_std():
    sc = default_scenario("forward", noise=NoiseModel.zero())
    stats = run_campaign(Campaign(sc, trials=5, base_seed=0))
    assert stats.success_count == 5
    assert stats.std_dev == 0.0
    assert len({r.result.elapsed_s for r in stats.records}) == 1


_coord = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def _zero_noise_scenarios(draw):
    sc = default_scenario(draw(st.sampled_from(["track", "forward", "return", "coordination"])),
                          noise=NoiseModel.zero())
    cfg = dataclasses.replace(
        sc.cfg, carrier_height=draw(st.floats(0.0, 0.6, exclude_max=True)),
        carrier_waypoints=draw(st.lists(st.tuples(_coord, _coord), max_size=3)))
    return dataclasses.replace(sc, cfg=cfg, drone_start=draw(st.tuples(_coord, _coord)),
                               markers=(Marker(draw(st.tuples(_coord, _coord)), 0.06,
                                               Color.PINK),))


@settings(max_examples=10, deadline=None)
@given(_zero_noise_scenarios(), st.integers(0, 2**32), st.integers(1, 2**32))
def test_zero_noise_mission_does_not_depend_on_the_seed(sc, seed, offset):
    # the premise that lets run_campaign fly a zero-noise mission once
    results = []
    for s in (seed, seed + offset):
        world = sc.make_world(s)
        results.append(run(sc.spec, world, sc.cfg))
        assert "rng" not in vars(world)
    assert results[0] == results[1]


@pytest.mark.parametrize("noise", [NoiseModel.zero(), NoiseModel()])
def test_campaign_records_equal_fresh_runs(noise):
    sc = default_scenario("return", noise=noise)
    stats = run_campaign(Campaign(sc, trials=4, base_seed=5))
    assert [rec.seed for rec in stats.records] == [5, 6, 7, 8]
    for rec in stats.records:
        assert rec.result == run(sc.spec, sc.make_world(rec.seed), sc.cfg)


def test_zero_noise_campaign_dumps_the_same_frames_for_every_trial(tmp_path):
    sc = default_scenario("return", noise=NoiseModel.zero())
    run_campaign(Campaign(sc, trials=3), out_dir=tmp_path, dump_frames=50)
    dumps = [{p.name: p.read_bytes() for p in (tmp_path / f"trial_{t}").iterdir()}
             for t in range(3)]
    assert dumps[0] and dumps[1] == dumps[0] and dumps[2] == dumps[0]


def test_zero_noise_campaign_dumping_frames_flies_once(tmp_path, monkeypatch):
    import visnav.harness as harness
    calls = []

    def counted_run(spec, world, cfg, frame_sink=None):
        calls.append(world.seed)
        return run(spec, world, cfg, frame_sink=frame_sink)

    monkeypatch.setattr(harness, "run", counted_run)
    sc = default_scenario("return", noise=NoiseModel.zero())
    stats = run_campaign(Campaign(sc, trials=5, base_seed=7), out_dir=tmp_path, dump_frames=50)
    assert calls == [7]
    assert all(rec.result is stats.records[0].result for rec in stats.records)
    dumps = [{p.name: p.read_bytes() for p in (tmp_path / f"trial_{t}").iterdir()}
             for t in range(5)]
    assert dumps[0] and all(d == dumps[0] for d in dumps)


def test_campaign_seeds_are_base_plus_index():
    sc = default_scenario("track", noise=NoiseModel.zero())
    stats = run_campaign(Campaign(sc, trials=4, base_seed=100))
    assert [r.seed for r in stats.records] == [100, 101, 102, 103]


def test_same_base_seed_reproduces_stats():
    sc = default_scenario("forward")
    s1 = run_campaign(Campaign(sc, trials=4, base_seed=9))
    s2 = run_campaign(Campaign(sc, trials=4, base_seed=9))
    assert s1.mean == s2.mean and s1.std_dev == s2.std_dev
    assert [r.result.elapsed_s for r in s1.records] == \
           [r.result.elapsed_s for r in s2.records]


def test_campaign_outputs_and_roundtrip(tmp_path):
    sc = default_scenario("track", noise=NoiseModel.zero())
    stats = run_campaign(Campaign(sc, trials=3, base_seed=0), out_dir=tmp_path)
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    for t in range(3):
        assert (tmp_path / f"trajectory_{t}.csv").exists()
    rows = read_results_csv(tmp_path / "results.csv")
    assert len(rows) == 3
    recomputed = summarize_results(rows)
    assert recomputed.success_count == stats.success_count
    assert recomputed.mean == pytest.approx(stats.mean)
    summary = (tmp_path / "summary.txt").read_text()
    assert "success_count: 3" in summary
    assert summary == format_summary(recomputed, len(rows))


#: Finite floats, with those whose text is easy to get wrong drawn often.
_finite = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]) \
    | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trial_records(draw):
    n = draw(st.integers(1, 8))
    records = []
    for trial in range(n):
        success = draw(st.booleans())
        result = MissionResult(
            success=success,
            outcome="success" if success else draw(st.sampled_from(
                ["failed:timeout", "failed:search_exhausted"])),
            elapsed_s=draw(_finite), ticks=draw(st.integers(0, 10**6)),
            final_pose=Pose(draw(_finite), draw(_finite), 1.0), rows=())
        records.append(TrialRecord(trial, draw(st.integers(0, 2**63)), result))
    return records


@settings(max_examples=60, deadline=None)
@given(_trial_records())
def test_results_csv_round_trips_any_records(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("results") / "results.csv"
    write_results_csv(records, path)
    rows = read_results_csv(path)
    assert [(int(r["trial"]), int(r["seed"]), r["outcome"], int(r["ticks"])) for r in rows] == \
        [(rec.trial, rec.seed, rec.result.outcome, rec.result.ticks) for rec in records]
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical floats
    assert [repr((float(r["elapsed_s"]), float(r["final_x"]), float(r["final_y"])))
            for r in rows] == \
        [repr((rec.result.elapsed_s, rec.result.final_pose.x, rec.result.final_pose.y))
         for rec in records]


@settings(max_examples=100, deadline=None)
@given(_trial_records())
def test_results_csv_bytes_are_repr_per_field(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("results") / "results.csv"
    write_results_csv(records, path)
    lines = ["trial,seed,outcome,elapsed_s,ticks,final_x,final_y"]
    for rec in records:
        r = rec.result
        lines.append(f"{rec.trial},{rec.seed},{r.outcome},{r.elapsed_s!r},{r.ticks},"
                     f"{r.final_pose.x!r},{r.final_pose.y!r}")
    assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()


def test_campaign_output_bytes_are_deterministic(tmp_path):
    sc = default_scenario("track")
    run_campaign(Campaign(sc, trials=3, base_seed=1), out_dir=tmp_path / "a")
    run_campaign(Campaign(sc, trials=3, base_seed=1), out_dir=tmp_path / "b")
    for name in ["results.csv", "trajectory_0.csv", "trajectory_1.csv", "trajectory_2.csv"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_failed_trials_counted_but_excluded(tmp_path):
    sc = default_scenario("forward", noise=NoiseModel.zero())
    spec = dataclasses.replace(sc.spec, timeout=1.0)   # everything times out
    sc = dataclasses.replace(sc, spec=spec)
    stats = run_campaign(Campaign(sc, trials=3, base_seed=0), out_dir=tmp_path)
    assert stats.success_count == 0
    assert math.isnan(stats.mean)
    rows = read_results_csv(tmp_path / "results.csv")
    assert all(r["outcome"] == "failed:timeout" for r in rows)


def test_failed_trials_show_in_the_outcome_lines():
    rows = [{"outcome": "failed:timeout", "elapsed_s": 1.0}] * 3
    assert format_outcomes(rows) == "outcome failed:timeout: 3\nelapsed_p50_s: nan\n"


@pytest.mark.parametrize("successes", [P95_MIN_SUCCESSES - 1, P95_MIN_SUCCESSES])
def test_elapsed_p95_needs_ten_successes_beyond_it(successes):
    # rows as read_results_csv returns them: elapsed_s already a float
    rows = [{"outcome": "success", "elapsed_s": 0.1 * k} for k in range(successes)]
    rows += [{"outcome": "failed:search_exhausted", "elapsed_s": 0.0},
             {"outcome": "failed:timeout", "elapsed_s": 120.0}]
    lines = format_outcomes(rows).splitlines()
    times = np.array([0.1 * k for k in range(successes)])
    assert lines[:4] == ["outcome failed:search_exhausted: 1", "outcome failed:timeout: 1",
                         f"outcome success: {successes}",
                         f"elapsed_p50_s: {float(np.percentile(times, 50))}"]
    if successes < P95_MIN_SUCCESSES:
        assert len(lines) == 4
    else:
        p95 = float(np.percentile(times, 95))
        assert lines[4:] == [f"elapsed_p95_s: {p95}"]
        assert (times > p95).sum() == 10


def test_path_spread_zero_noise_is_flat():
    sc = default_scenario("return", noise=NoiseModel.zero())
    result = run(sc.spec, sc.make_world(0), sc.cfg)
    assert result.success
    assert path_spread(result.rows) <= 1e-6


def test_path_spread_grows_with_drift():
    sc = default_scenario("return",
                          noise=NoiseModel(drift_std=0.02, takeoff_jitter_std=0.0))
    spreads = []
    for seed in range(5):
        result = run(sc.spec, sc.make_world(seed), sc.cfg)
        if result.success:
            spreads.append(path_spread(result.rows))
    assert spreads and max(spreads) > 1e-3


def test_path_spread_round_trips_through_csv(tmp_path):
    sc = default_scenario("return", noise=NoiseModel.zero())
    run_campaign(Campaign(sc, trials=1, base_seed=0), out_dir=tmp_path)
    rows = load_trajectory(tmp_path / "trajectory_0.csv")
    assert path_spread(rows) <= 1e-6


def test_path_spread_requires_out_and_back_log():
    rows = [TrajectoryRow(0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, "searching:0", "", 100.0)]
    with pytest.raises(MalformedLogError):
        path_spread(rows)
    with pytest.raises(MalformedLogError):
        path_spread([])
    rows = [TrajectoryRow(0, 0.0, 0.5, 0.5, 1.0, 0.0, 0.0, "hovering_on_target", "pink", 1.0),
            TrajectoryRow(1, 0.1, 0.5, 0.5, 1.0, 0.0, 0.0, "reversing:0", "", None)]
    with pytest.raises(MalformedLogError, match="degenerate"):
        path_spread(rows)   # the apex is the start


def _reference_spread(rows):
    """path_spread as two numpy passes: the hover rows, then the return leg
    as one array."""
    if not rows:
        raise MalformedLogError("empty trajectory log")
    hover = "hovering_on_target"
    hover_idx = [i for i, r in enumerate(rows) if r.fsm_state.split(":", 1)[0] == hover]
    if not hover_idx:
        raise MalformedLogError(f"log has no {hover} phase; "
                                "not a completed out-and-back mission")
    apex_i = hover_idx[-1]
    start = np.array([rows[0].drone_x, rows[0].drone_y])
    apex = np.array([rows[apex_i].drone_x, rows[apex_i].drone_y])
    line = apex - start
    length = float(np.hypot(*line))
    if length < 1e-12:
        raise MalformedLogError("outbound leg is degenerate (start == apex)")
    ret = [(r.drone_x, r.drone_y) for r in rows[apex_i + 1:]
           if r.fsm_state.split(":", 1)[0] in RETURN_PHASES]
    if not ret:
        raise MalformedLogError("log has no return leg after the hover")
    pts = np.asarray(ret, dtype=float) - start
    deviation = np.abs(line[0] * pts[:, 1] - line[1] * pts[:, 0]) / length
    return float(deviation.max())


# Labels of every phase, with and without a ":detail", and near misses that
# are no phase; coordinates from a few values, so that logs repeat the start
# (a degenerate leg) or sit within 1e-12 of it, or from a wide range.
_labels = st.sampled_from([
    "taking_off", "searching:0", "servoing:pink", "hovering_on_target",
    "hovering_on_target:1", "hovering_on_target_x", "reversing:0", "reversing:84",
    "servoing_home", "landing", "landed", "landing_x", "reversing_x:3", ""])
_spread_coord = st.sampled_from([0.0, -0.0, 0.5, 1e-13, -3.0]) | st.floats(-1e3, 1e3)


@st.composite
def _trajectory_logs(draw):
    """Logs of 0-40 rows, or out-and-back ones: a start, rows, a hover, then
    a return leg (which may hold other phases or none of its own)."""
    def rows(labels):
        return [(label, draw(_spread_coord), draw(_spread_coord)) for label in labels]

    if draw(st.booleans()):
        cells = rows(draw(st.lists(_labels, max_size=40)))
    else:
        cells = (rows(["taking_off"]) + rows(draw(st.lists(_labels, max_size=8)))
                 + rows(["hovering_on_target"] * draw(st.integers(1, 3)))
                 + rows(draw(st.lists(st.sampled_from(["reversing:0", "servoing_home",
                                                       "landing", "landed", "searching:0"]),
                                      max_size=20))))
    return [TrajectoryRow(i, 0.1 * i, x, y, 1.0, 0.0, 0.0, label, "", None)
            for i, (label, x, y) in enumerate(cells)]


@settings(max_examples=300, deadline=None)
@given(_trajectory_logs())
def test_path_spread_matches_its_numpy_reference(rows):
    # the same float, bit for bit, or the same MalformedLogError message
    try:
        want = _reference_spread(rows)
    except MalformedLogError as exc:
        with pytest.raises(MalformedLogError) as got:
            path_spread(rows)
        assert str(got.value) == str(exc)
    else:
        got = path_spread(rows)
        assert type(got) is float and got.hex() == want.hex()


def test_blank_csv_lines_between_rows_are_skipped(tmp_path):
    sc = default_scenario("return", noise=NoiseModel.zero())
    run_campaign(Campaign(sc, trials=2, base_seed=0), out_dir=tmp_path)
    for name, read in (("results.csv", read_results_csv), ("trajectory_0.csv", load_trajectory)):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        spaced = tmp_path / f"spaced_{name}"
        spaced.write_text("\n\n".join(lines) + "\n")
        assert read(spaced) == read(path)
        assert len(read(path)) == len(lines) - 1


def test_campaign_validation():
    sc = default_scenario("track")
    with pytest.raises(ValueError):
        Campaign(sc, trials=0)
    with pytest.raises(ValueError, match="base_seed"):
        Campaign(sc, base_seed=-1)
    with pytest.raises(ValueError, match="dump_frames stride"):
        run_campaign(Campaign(sc, trials=1), dump_frames=-1)
    for stride in (1, True):
        with pytest.raises(ValueError, match="dump_frames needs an out_dir"):
            run_campaign(Campaign(sc, trials=1), dump_frames=stride)


def test_failed_trial_removes_every_directory_the_campaign_created(tmp_path, monkeypatch):
    # trial 0 completes and its frames are written; trial 1 raises before any of its are
    import visnav.harness as harness
    calls = []

    def run_then_fail(spec, world, cfg, frame_sink=None):
        result = run(spec, world, cfg, frame_sink=frame_sink)
        calls.append(result)
        if len(calls) == 2:
            raise RuntimeError("trial failed")
        return result

    monkeypatch.setattr(harness, "run", run_then_fail)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    campaign = Campaign(default_scenario("track"), trials=3)
    with pytest.raises(RuntimeError):
        run_campaign(campaign, out_dir=out / "a" / "b", dump_frames=True)
    assert len(calls) == 2
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    calls.clear()
    with pytest.raises(RuntimeError):
        run_campaign(campaign, out_dir=out, dump_frames=True)
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
