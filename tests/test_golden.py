"""Byte oracle: fixed-seed campaigns must write exactly the recorded bytes.

Each case runs `visnav run` on a small JSON config and compares the
SHA-256 of every file it writes (results.csv, trajectory_*.csv,
summary.txt, and the dumped PPM frames folded into one digest) with a
recorded value.  A speed-up or refactor that changes any of these bytes
changes simulator behaviour; a deliberate behaviour change re-records
them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
}

GOLDEN = {
    'cluttered': {
        'results.csv': '5190a49ccc8f5fe01768fc83879e7ba4b93427e4bcb84fba5021fe2c0a11f064',
        'summary.txt': '17feed86809fc99ea782fcc4ff8c11f9500a68252eec2995a4992941f204da03',
        'trajectory_0.csv': '82c2112c599dde7b19ffa194303775062153881a529226bff79b3ff9c5344e76',
        'trajectory_1.csv': '03a3801b856f0e00d87cc50fb57f0731a5da870438a2786443a785898707dc16',
    },
    'coordination_raised': {
        'results.csv': '0806b55caaebd686d6d8254ed5b3cc6236db98cad0041668757ac419ddb28de6',
        'summary.txt': '23cff506afd35c9c406e4dbdadfda6d251ec9e877d19cbbf7e80349a62e27b42',
        'trajectory_0.csv': '425c0a53483cc32cd861cd3dbf01fe6e7765af90896eee0b35415292f234a08a',
        'trajectory_1.csv': '651ff5d60c5d3702ccac1aa65affc4d6c781286ea2ae5edb7dfc7cf7753d1339',
    },
    'frames_64x36': {
        'results.csv': '188b90a20a94996efff3324cf60f6cd910ce37ca3b30b2d0633230cdcde4b837',
        'summary.txt': '9f9ba549e6e2e3a21a118939696e9322d9904ab4b1c829f57d6d0f4195614ada',
        'trajectory_0.csv': 'b5d664d804a25c9b0a987112d54af487f5adfe318df470639cdf18450f095199',
        'trajectory_1.csv': '94fa34ef6c596431e646a4bae30a0aafcf20b0e0b586b5e037e477116f99bc4a',
        'trial_0/*.ppm': '2ffd8077d2ff421d3fa30ca7fdaad92c1d679f1c514470f6288361910a24cd5d',
        'trial_1/*.ppm': 'e3f13ab2c3f52d1e09eb2b924af4af700a850b7516f504a9ec0b93152d2d2dcc',
    },
    'return_drift': {
        'results.csv': 'c51ea050d2b6466f559406c4c44b9af1bfd0faa6db14de4fe2b8fa54e79920de',
        'summary.txt': '330719151d00e402960f12ce3cbd92eef09717195df8d974b5613f9cb4ebfc43',
        'trajectory_0.csv': 'f15155bf02969814dca8200feaf6cda1e98db85b85f89d771a54bd5550e7f6a1',
        'trajectory_1.csv': '813b33416a782d5a3917318ccb060a9db6897438dfa47a0ea85d3938a7629967',
    },
    'return_drift_0.08': {
        'results.csv': '621c3c6e8c8e5e0dcb55257ed2eb7827f426e8d20eebf8cbaabeae14b7e9f266',
        'summary.txt': 'c29ed32e1c0cf35098e345f48ec21433d81f5dc719b48b57364de5ebb8d3deaf',
        'trajectory_0.csv': '4f30baab078ab383b3631c644c55f8e9bf7be37669eeb6f40f614e1947cf8844',
        'trajectory_1.csv': 'c79aec749e3ecb3a4e40c409ace8bd4a11b6688379e778fd0206925b5539f1c0',
    },
}


def campaign_digests(config: dict, flags: list, tmp: Path) -> dict:
    """SHA-256 of each file a two-trial, seed-3 run writes; each trial's
    frames fold into one digest over their names and bytes."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out = tmp / "out"
    assert main(["run", "--config", str(path), "--trials", "2", "--seed", "3",
                 "--out", str(out), *flags]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.is_file()}
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


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            digests = campaign_digests(*CASES[name], Path(tmp))
        print(f"    {name!r}: {{", *(f"        {k!r}: {v!r}," for k, v in digests.items()),
              "    },", sep="\n")
