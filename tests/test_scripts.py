"""The experiment scripts run end to end, exit cleanly and print what they found."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from audit import rows_of

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


# lines each script prints for the arguments below
_EXPECTED = {
    "run_failover.py": ["verdict: graceful"],
    "run_degradation.py": [
        "verdict: graceful",
        "non-incident links identical to the clean run: True",
    ],
    "run_scaleout.py": ["  + node PeerCI#6"],
}


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
    lines = result.stdout.splitlines()
    assert all(line in lines for line in _EXPECTED[name]), result.stdout
    if name == "run_failover.py":
        takeovers = [line for line in lines if line.startswith("takeover:")]
        assert len(takeovers) == 2 and all("active t=1301 " in line for line in takeovers)


def test_make_fixture_writes_every_file(tmp_path):
    result = _run_script("make_fixture.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["comm.cfg", "degradation.scn", "failover.scn", "model.ucm"]


def test_make_fixture_scales_the_model_with_the_scenarios(tmp_path):
    from viewcase.engine import parse_scenario
    from viewcase.fixture import FIXTURE_MODEL, build_world
    from viewcase.model import parse_model

    result = _run_script("make_fixture.py", "--out", str(tmp_path), "--peers", "9")
    assert result.returncode == 0, result.stderr
    model = parse_model((tmp_path / "model.ucm").read_text(encoding="utf-8"))
    assert {a.name: a.multiplicity for a in model.actors}["PeerCI"] == 9
    _, _, world = build_world(model)
    scenario = parse_scenario((tmp_path / "degradation.scn").read_text(encoding="utf-8"))
    trace, _ = world.run(scenario, 1000, seed=0)
    stimuli = [(r.process, r.detail) for r in rows_of(trace, "stimulus")]
    assert ("PeerCI#8", "RX_DATA size 700") in stimuli
    assert not [s for s in stimuli if s[1].endswith(" dropped")]

    result = _run_script("make_fixture.py", "--out", str(tmp_path / "six"))
    assert result.returncode == 0, result.stderr
    six = (tmp_path / "six" / "model.ucm").read_text(encoding="utf-8")
    assert parse_model(six) == parse_model(FIXTURE_MODEL)
