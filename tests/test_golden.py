"""Byte oracle: fixed-seed campaigns must write exactly the recorded bytes.

Each case runs `visnav run` on a small JSON config and compares the
SHA-256 of every file it writes (results.csv, trajectory_*.csv,
summary.txt, and the dumped PPM frames folded into one digest) with a
recorded value.  A speed-up or refactor that changes any of these bytes
changes simulator behaviour; a deliberate behaviour change re-records
them with ``PYTHONPATH=src python tests/test_golden.py``.  Each case also
runs as a real ``python -m visnav.cli`` process under PYTHONHASHSEED 0 and
4242, so no output depends on the order of a hashed set or dict.

Each trajectory file also has a label-stripped digest, taken with every
``reversing:<n>`` state label rewritten to ``reversing``.  It pins the
motion, commands, errors and phases of the return leg apart from how its
replay is cut into segments, so a change that only renumbers those
segments re-records the full digest and keeps this one.

Open-loop flight has a pin of its own: seeded ``fly_trajectory``
out-and-back flights, each digested from the ``repr`` of the final drone
and carrier poses, the carrier's waypoint index, the step count, the
clock, every motion-log entry of both legs and the generator state.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from visnav import (Duration, ImaginedSegment, ImaginedTrajectory, NoiseModel, PixelPoint,
                    Pose, SimConfig, fly_trajectory, make_world, reverse, square_trajectory)
from visnav.cli import main

CASES = {
    # default noise (drift 0.01): search, hover, replay home, land on the pad
    "return_drift": ({"task": "return"}, []),
    "return_drift_0.08": ({"task": "return", "sim": {"noise": {"drift_std": 0.08}}}, []),
    # the pad rides 0.3 m up on a carrier that drives off along two waypoints
    "coordination_raised": ({"task": "coordination",
                             "sim": {"carrier_height": 0.3,
                                     "carrier_waypoints": [[1.0, 0.0], [1.0, 0.5]]}}, []),
    # two overlapping pinks merge into one blob, an orange overlaps them,
    # red overlaps yellow on the way out, and a green overlaps the home pad
    "cluttered": ({"task": "return", "markers": [
        {"x": 2.0, "y": 0.0, "radius": 0.06, "color": "pink"},
        {"x": 2.02, "y": 0.1, "radius": 0.06, "color": "pink"},
        {"x": 2.06, "y": -0.08, "radius": 0.05, "color": "orange"},
        {"x": 0.8, "y": 0.05, "radius": 0.1, "color": "red"},
        {"x": 0.85, "y": 0.15, "radius": 0.1, "color": "yellow"},
        {"x": 1.3, "y": -0.3, "radius": 0.07, "color": "green"},
        {"x": 1.3, "y": 0.4, "radius": 0.07, "color": "green"},
        {"x": 0.06, "y": 0.12, "radius": 0.07, "color": "green"}]}, []),
    # every captured frame of a small-camera mission, so the raster is pinned too
    "frames_64x36": ({"task": "return", "timeout_s": 60.0,
                      "markers": [{"x": 0.8, "y": 0.0, "radius": 0.08, "color": "pink"},
                                  {"x": 0.85, "y": 0.07, "radius": 0.06, "color": "red"},
                                  {"x": 0.4, "y": -0.2, "radius": 0.06, "color": "yellow"}],
                      "sim": {"frame": {"width": 64, "height": 36, "focal_length": 32.0}}},
                     ["--dump-frames"]),
    # 31 ground markers along and beside the search path on the same small
    # camera: render projects the ones near the frame from its index
    "indexed_64x36": ({"task": "return", "timeout_s": 60.0, "markers": [
        {"x": 1.2, "y": 0.0, "radius": 0.08, "color": "pink"},
        *({"x": k / 10 - 0.3, "y": 0.45 if k % 2 else -0.45, "radius": 0.05,
           "color": ("red", "green", "yellow", "orange")[k % 4]} for k in range(24)),
        *({"x": 1.6 + 0.15 * k, "y": 0.0, "radius": 0.05, "color": "yellow"} for k in range(6))],
        "sim": {"frame": {"width": 64, "height": 36, "focal_length": 32.0}}},
        ["--dump-frames"]),
}

ROOT = Path(__file__).resolve().parents[1]

#: Key suffix of a trajectory file's label-stripped digest.
UNINDEXED = "without reversing index"
REVERSING_INDEX = re.compile(rb"reversing:\d+")

GOLDEN = {
    'cluttered': {
        'results.csv': '5190a49ccc8f5fe01768fc83879e7ba4b93427e4bcb84fba5021fe2c0a11f064',
        'summary.txt': '17feed86809fc99ea782fcc4ff8c11f9500a68252eec2995a4992941f204da03',
        'trajectory_0.csv': 'bfc405b165d859996798cf61a0f77f7368adbff72b078b1d4f913d200bc84b90',
        'trajectory_0.csv without reversing index': '164eee6a9e8bb63c95f192cad4d56b7cd7c6be3afdca4155e698c9b44c411f9c',
        'trajectory_1.csv': '37f223848d78f617ba62e4a086dcb13ad25d9551b66e5ef1ff7407484fb866b5',
        'trajectory_1.csv without reversing index': 'e2cfa82218ed704abd76437a9dd6c125025f0ddd399f0f82e4a4476b72534bcd',
    },
    'coordination_raised': {
        'results.csv': '0806b55caaebd686d6d8254ed5b3cc6236db98cad0041668757ac419ddb28de6',
        'summary.txt': '23cff506afd35c9c406e4dbdadfda6d251ec9e877d19cbbf7e80349a62e27b42',
        'trajectory_0.csv': '425c0a53483cc32cd861cd3dbf01fe6e7765af90896eee0b35415292f234a08a',
        'trajectory_0.csv without reversing index': '64f8cd7b2972cb9b709c2d400b014a1c0879f8b3e37e6ad46249ba770219d441',
        'trajectory_1.csv': '651ff5d60c5d3702ccac1aa65affc4d6c781286ea2ae5edb7dfc7cf7753d1339',
        'trajectory_1.csv without reversing index': '9776c4357c856d2bad5ea06c0cce2e73bb542c38212229268170a52b8dfefacb',
    },
    'frames_64x36': {
        'results.csv': '188b90a20a94996efff3324cf60f6cd910ce37ca3b30b2d0633230cdcde4b837',
        'summary.txt': '9f9ba549e6e2e3a21a118939696e9322d9904ab4b1c829f57d6d0f4195614ada',
        'trajectory_0.csv': 'b5d664d804a25c9b0a987112d54af487f5adfe318df470639cdf18450f095199',
        'trajectory_0.csv without reversing index': 'd49fa302541285df52d386c42c07e1c994d0e811faa3ef611d2bc12223121c45',
        'trajectory_1.csv': '94fa34ef6c596431e646a4bae30a0aafcf20b0e0b586b5e037e477116f99bc4a',
        'trajectory_1.csv without reversing index': '26466ceaa5da2b9cfb6ae7895a7b1238c82b34fd2699d92c0e2f2e3edd479f74',
        'trial_0/*.ppm': '2ffd8077d2ff421d3fa30ca7fdaad92c1d679f1c514470f6288361910a24cd5d',
        'trial_1/*.ppm': 'e3f13ab2c3f52d1e09eb2b924af4af700a850b7516f504a9ec0b93152d2d2dcc',
    },
    'indexed_64x36': {
        'results.csv': '90ba47cc52e657c0f8e3d1eebbbb60ee0e3b00fc555e649883a9ac3081830e8f',
        'summary.txt': '2ab62cf40b2d539b4ebcbc74b7c291cfdc0e0ada8ff63aec92aa02ec7b8806ed',
        'trajectory_0.csv': 'e03da0139e923f9ddb11be19c437c822a18c998a3905af9bed3492760eb5f207',
        'trajectory_0.csv without reversing index': '24b36ac12f634edb5d622898fd53893ef567e38bebfec261b7c64094138fdd63',
        'trajectory_1.csv': '06aa4f4c04e45d9025bbb0a3c82425069f40fe470d23b71ebead786edf2d207c',
        'trajectory_1.csv without reversing index': '95dfe4cd2ee0e4255d2c5edfe5896b243dc8e282222f0b58eaff76bf25a7f9bb',
        'trial_0/*.ppm': '7537986e84182be0ee0347f46b81b99cb3de59eb5a127f2044d64264430b01d2',
        'trial_1/*.ppm': 'c24f06fe41fb8f9a53eebf4246d4b8c9918f31b4a2ffe9af42d16e0355393654',
    },
    'return_drift': {
        'results.csv': 'c51ea050d2b6466f559406c4c44b9af1bfd0faa6db14de4fe2b8fa54e79920de',
        'summary.txt': '330719151d00e402960f12ce3cbd92eef09717195df8d974b5613f9cb4ebfc43',
        'trajectory_0.csv': '33a8d32703d1d72646eb6669d26a6a657c21c942ce20b2ec7bb9cddde77f3e3f',
        'trajectory_0.csv without reversing index': '3cdcfad19b91f92ecc3483d48267e6c50b8b3d680f0f81e190476b89675d967e',
        'trajectory_1.csv': 'ffdaf3f7528744261c508fc7e8ab2452f11f67d594ac24b4b524c2355a7839be',
        'trajectory_1.csv without reversing index': '9f4b17e96d7bea49933d2f8ad82d279cb9da3ed7ee049bc2ade0646c31dac0b7',
    },
    'return_drift_0.08': {
        'results.csv': '621c3c6e8c8e5e0dcb55257ed2eb7827f426e8d20eebf8cbaabeae14b7e9f266',
        'summary.txt': 'c29ed32e1c0cf35098e345f48ec21433d81f5dc719b48b57364de5ebb8d3deaf',
        'trajectory_0.csv': 'd6283c91866ccf00c4742ac60fd9326cda907ff8d5c47b3db9091e112c5b1264',
        'trajectory_0.csv without reversing index': 'aa25665669668be037fcc3161fe53a1c0c9ab4e9f048211dd9b05242d59116bc',
        'trajectory_1.csv': 'a8e730597b5bc2aff48a521dcc883d782b58bf3d94636d16fa454d8a4f2593b3',
        'trajectory_1.csv without reversing index': 'cfdcd7723e5dd9dc769e37f1474b6974cb53bf515b0b0705e7336f3342dd00ed',
    },
}


def campaign_digests(config: dict, flags: list, tmp: Path, hash_seed: str = "") -> dict:
    """SHA-256 of each file a two-trial, seed-3 run writes; each trial's
    frames fold into one digest over their names and bytes.  The run is a
    call of cli.main, or with ``hash_seed`` a ``python -m visnav.cli``
    process under that PYTHONHASHSEED."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out = tmp / "out"
    argv = ["run", "--config", str(path), "--trials", "2", "--seed", "3", "--out", str(out),
            *flags]
    if not hash_seed:
        assert main(argv) == 0
    else:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "visnav.cli", *argv], cwd=tmp, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    digests = {}
    for p in sorted(out.iterdir()):
        if p.is_file():
            data = p.read_bytes()
            digests[p.name] = hashlib.sha256(data).hexdigest()
            if p.name.startswith("trajectory_"):
                stripped = REVERSING_INDEX.sub(b"reversing", data)
                digests[f"{p.name} {UNINDEXED}"] = hashlib.sha256(stripped).hexdigest()
    for trial_dir in sorted(p for p in out.iterdir() if p.is_dir()):
        h = hashlib.sha256()
        for frame in sorted(trial_dir.iterdir()):
            h.update(frame.name.encode() + b"\0" + frame.read_bytes())
        digests[f"{trial_dir.name}/*.ppm"] = h.hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_bytes_match_recorded_digests(name, tmp_path, capsys):
    config, flags = CASES[name]
    assert campaign_digests(config, flags, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_process_writes_the_recorded_bytes_under_each_hash_seed(name, hash_seed, tmp_path):
    config, flags = CASES[name]
    assert campaign_digests(config, flags, tmp_path, hash_seed) == GOLDEN[name]


#: Duration-terminated segments: (target pixel, seconds).  The odd lengths
#: round to 37, 4, 23 and 30 ticks of 0.1 s.
SEGMENTS = (((320.0, 80.0), 3.7), ((517.5, 260.0), 0.4),
            ((101.0, -250.0), 2.3), ((640.0, 181.0), 3.0))
#: The carrier, starting under the drone, reaches (0.5, 0) on tick 19,
#: inside the first segment, and (0.5, 1.1) on tick 56, inside the third.
CARRIER_WAYPOINTS = ((0.5, 0.0), (0.5, 1.1))

OPEN_LOOP = {
    "square_drift_0": (0.0, (), "square"),
    "segments_drift_0.01": (0.01, (), "segments"),
    "segments_drift_0.08": (0.08, (), "segments"),
    "segments_drift_0.08_carrier": (0.08, CARRIER_WAYPOINTS, "segments"),
}

OPEN_LOOP_GOLDEN = {
    'segments_drift_0.01': 'cdbaf24f22e4badc5d5fa2c3839b7f16981560645a3f58614974a0c84a7a8843',
    'segments_drift_0.08': '55a467cce964a0e3c1903eb85fad586b3befb56b66aadef53d0336dd11035213',
    'segments_drift_0.08_carrier': '592fd222f491ef86f32dfa07979b408ab38432f1fddd3f011103d76d9c4dbf27',
    'square_drift_0': '0382943e80a4fb2336239d46c51a78a5b4e45b54d7d94ac981e00c9e858ec4d7',
}


def open_loop_digest(drift: float, waypoints: tuple, shape: str) -> str:
    """SHA-256 of a seeded out-and-back ``fly_trajectory`` flight's end state."""
    cfg = SimConfig(noise=NoiseModel(drift, 0.0), carrier_waypoints=waypoints)
    if shape == "square":
        traj = square_trajectory(cfg.frame, 2.5)
    else:
        traj = ImaginedTrajectory(tuple(ImaginedSegment(PixelPoint(*target), Duration(seconds))
                                        for target, seconds in SEGMENTS))
    world = make_world(17, drone=Pose(0.25, -0.5, cfg.altitude, 0.3))
    log_out = fly_trajectory(traj, world, cfg)
    log_back = fly_trajectory(reverse(log_out, cfg.frame), world, cfg)
    state = (world.drone, world.carrier, world.carrier_wp_index, world.steps, world.time,
             log_out.entries, log_back.entries, world.rng.bit_generator.state)
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(OPEN_LOOP))
def test_open_loop_flight_matches_recorded_digest(name):
    assert open_loop_digest(*OPEN_LOOP[name]) == OPEN_LOOP_GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            digests = campaign_digests(*CASES[name], Path(tmp))
        print(f"    {name!r}: {{", *(f"        {k!r}: {v!r}," for k, v in digests.items()),
              "    },", sep="\n")
    for name in sorted(OPEN_LOOP):
        print(f"    {name!r}: {open_loop_digest(*OPEN_LOOP[name])!r},")
