"""The experiment scripts run end to end and exit cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("run_failover.py", ("--horizon", "2000")),
        ("run_degradation.py", ("--horizon", "2000", "--kill-at", "1000")),
        ("run_scaleout.py", ()),
    ],
)
def test_script_exits_cleanly(name, args):
    result = _run_script(name, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_make_fixture_writes_every_file(tmp_path):
    result = _run_script("make_fixture.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["comm.cfg", "degradation.scn", "failover.scn", "model.ucm"]
