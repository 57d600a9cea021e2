"""The command line through a real process, as a shell runs it: exit codes
and streams through ``python -m visnav.cli``, and again through the
``visnav`` console script when the package is installed."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _installed() -> bool:
    try:
        importlib.metadata.distribution("visnav")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture(params=["module", "script"])
def visnav(request, tmp_path):
    if request.param == "module":
        command = [sys.executable, "-m", "visnav.cli"]
    elif not _installed():
        pytest.skip("the visnav package is not installed")
    else:
        script = shutil.which("visnav")
        assert script is not None, "visnav is installed but no visnav script is on PATH"
        command = [script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    return lambda *args: subprocess.run([*command, *args], cwd=tmp_path, env=env,
                                        capture_output=True, text=True, timeout=300)


def test_run_stats_spread_chain_exits_0(visnav):
    for args in (["run", "--task", "coordination", "--trials", "2", "--seed", "3",
                  "--out", "cli"],
                 ["stats", "--in", "cli/results.csv"],
                 ["spread", "--in", "cli/trajectory_0.csv"]):
        proc = visnav(*args)
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("path_spread_m: ")


def test_a_missing_input_file_exits_2_with_an_error_line(visnav):
    proc = visnav("stats", "--in", "missing.csv")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_strict_run_with_a_failed_trial_exits_3(visnav, tmp_path):
    (tmp_path / "timeout.json").write_text(json.dumps(
        {"task": "forward", "markers": [], "timeout_s": 1.8, "sim": {"dt": 0.3}}))
    proc = visnav("run", "--config", "timeout.json", "--trials", "1", "--strict", "--out", "o")
    assert proc.returncode == 3, proc.stderr
    assert "success 0/1" in proc.stdout
