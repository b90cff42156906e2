"""The viewcase command line: exit codes, artifacts, determinism."""

import pytest

from viewcase.cli import main
from viewcase.comm import DEFAULT_CONFIG, render_comm_config
from viewcase.engine import parse_scenario
from viewcase.fixture import FIXTURE_MODEL, build_world, degradation_scenario, failover_scenario

BAD_MODEL = (
    "actor A multiplicity 1\n"
    'usecase U "Left dangling" codesize 10\n'
    "trigger A -> U\n"
    "relation include U <- Ghost\n"
)


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.ucm"
    path.write_text(FIXTURE_MODEL, encoding="utf-8")
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "steady.scn"
    path.write_text(degradation_scenario(kill=None), encoding="utf-8")
    return str(path)


# --- validate -----------------------------------------------------------------


def test_validate_ok(model_file, capsys):
    assert main(["validate", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 5 actors, 10 use cases")


def test_validate_rejects_broken_model(tmp_path, capsys):
    path = tmp_path / "broken.ucm"
    path.write_text(BAD_MODEL, encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 1
    assert "Ghost" in capsys.readouterr().err


def test_missing_model_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", "--model", str(tmp_path / "nope.ucm")]) == 2
    assert "cannot read" in capsys.readouterr().err


# --- plan and graph ----------------------------------------------------------------


def test_plan_to_stdout(model_file, capsys):
    assert main(["plan", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("plan-format: 1\n")
    assert "objective: fault-tolerance" in out
    assert "node: PeerCI#5" in out


def test_plan_to_directory(model_file, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["plan", "--model", model_file, "--out", str(out_dir)]) == 0
    text = (out_dir / "plan.txt").read_text(encoding="utf-8")
    assert "footprint: 130800" in text


def test_plan_into_a_path_that_is_a_file_is_usage_error(model_file, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    assert main(["plan", "--model", model_file, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocker}: ") and err.count("\n") == 1


def test_plan_memory_objective_respects_budget(model_file, capsys):
    assert main([
        "plan", "--model", model_file, "--objective", "mem", "--memory-budget", "40000",
    ]) == 0
    out = capsys.readouterr().out
    assert "objective: memory-bound" in out
    assert "footprint: 38000" in out


def test_plan_budget_overrun_fails(model_file, capsys):
    assert main([
        "plan", "--model", model_file, "--objective", "mem", "--memory-budget", "37999",
    ]) == 1
    assert "plan failed" in capsys.readouterr().err


def test_memory_objective_requires_budget(model_file, capsys):
    assert main(["plan", "--model", model_file, "--objective", "mem"]) == 2
    assert "--memory-budget" in capsys.readouterr().err


def test_graph_emits_dot(model_file, capsys):
    assert main(["graph", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph G {\n")
    assert out.rstrip().endswith("}")
    assert '"LocalHost#0" -> "PeerCI#0" [label="mq"];' in out


# --- simulate and report ------------------------------------------------------------


def test_simulate_writes_artifacts(model_file, scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code = main([
        "simulate", "--model", model_file, "--scenario", scenario_file,
        "--horizon", "2000", "--out", str(out_dir),
    ])
    assert code == 0
    for name in ("trace.tsv", "metrics.txt", "report.txt", "plan.txt"):
        assert (out_dir / name).exists(), name
    assert "verdict: graceful" in capsys.readouterr().out
    trace = (out_dir / "trace.tsv").read_text(encoding="utf-8")
    assert all(len(line.split("\t")) == 5 for line in trace.splitlines())
    assert "verdict: graceful" in (out_dir / "report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "scenario", [degradation_scenario(), failover_scenario()], ids=["degradation", "failover"]
)
def test_streamed_trace_matches_the_collected_trace(model_file, tmp_path, capsys, scenario):
    path = tmp_path / "case.scn"
    path.write_text(scenario, encoding="utf-8")
    out_dir = tmp_path / "sim"
    assert main([
        "simulate", "--model", model_file, "--scenario", str(path),
        "--horizon", "6000", "--seed", "11", "--out", str(out_dir),
    ]) == 0
    _, _, world = build_world()
    collected, _ = world.run(parse_scenario(scenario), 6000, seed=11)
    streamed = (out_dir / "trace.tsv").read_bytes()
    assert streamed == collected.to_text().encode("utf-8")
    assert f"({len(collected.rows)} trace rows, " in capsys.readouterr().out


def test_simulate_is_deterministic(model_file, scenario_file, tmp_path):
    texts = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        main([
            "simulate", "--model", model_file, "--scenario", scenario_file,
            "--horizon", "2000", "--seed", "5", "--out", str(out_dir),
        ])
        texts.append(
            tuple((out_dir / f).read_bytes() for f in ("trace.tsv", "metrics.txt", "report.txt"))
        )
    assert texts[0] == texts[1]


def test_simulate_without_scenario_is_quiet_but_healthy(model_file, tmp_path):
    out_dir = tmp_path / "idle"
    assert main([
        "simulate", "--model", model_file, "--horizon", "1000", "--out", str(out_dir),
    ]) == 0
    metrics = (out_dir / "metrics.txt").read_text(encoding="utf-8")
    assert "trips 0" in metrics


def test_simulate_bad_scenario_fails(model_file, tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("fault explode X at 1\n", encoding="utf-8")
    assert main([
        "simulate", "--model", model_file, "--scenario", str(bad),
        "--out", str(tmp_path / "x"),
    ]) == 1
    assert "line 1" in capsys.readouterr().err


def test_simulate_rejects_negative_size_before_writing_a_trace(model_file, tmp_path, capsys):
    bad = tmp_path / "negative.scn"
    bad.write_text("stimulus LocalHost#0 SEND_REQ at 100 every 0 priority 180 size -1\n", encoding="utf-8")
    out_dir = tmp_path / "neg"
    assert main(["simulate", "--model", model_file, "--scenario", str(bad), "--out", str(out_dir)]) == 1
    assert "line 1" in capsys.readouterr().err
    assert not (out_dir / "trace.tsv").exists()


def test_report_prints_verdict(model_file, scenario_file, capsys):
    code = main([
        "report", "--model", model_file, "--scenario", scenario_file, "--horizon", "1500",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("report-format: 1\nverdict: graceful")


def test_report_nongraceful_exits_one(model_file, tmp_path, capsys):
    scn = tmp_path / "killall.scn"
    lines = [
        "stimulus LocalHost#0 SEND_REQ at 100 every 200 priority 180 size 800",
    ]
    # kill every node in the plan so no survivors remain
    from viewcase.model import parse_model
    from viewcase.partition import MappingPolicy, build_plan

    plan = build_plan(parse_model(FIXTURE_MODEL), MappingPolicy())
    lines += [f"fault kill {n.id} at 500" for n in plan.all_nodes()]
    scn.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main([
        "report", "--model", model_file, "--scenario", str(scn), "--horizon", "1500",
    ])
    assert code == 1
    assert "verdict: total" in capsys.readouterr().out


def test_horizon_must_be_positive_via_cli(model_file, capsys):
    assert main(["report", "--model", model_file, "--horizon", "0"]) == 2
    assert "horizon" in capsys.readouterr().err


def test_simulate_refuses_horizon_zero_before_writing_a_trace(model_file, tmp_path, capsys):
    out_dir = tmp_path / "h0"
    assert main(["simulate", "--model", model_file, "--horizon", "0", "--out", str(out_dir)]) == 2
    assert "horizon" in capsys.readouterr().err
    assert not (out_dir / "trace.tsv").exists()


def test_simulate_into_a_path_under_a_file_is_usage_error(model_file, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    out_dir = blocker / "x"
    assert main(["simulate", "--model", model_file, "--horizon", "100", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_dir}: ") and err.count("\n") == 1


# --- --config --------------------------------------------------------------------------

ARTIFACTS = ("trace.tsv", "metrics.txt", "report.txt", "plan.txt")


def _simulate_bytes(model_file, scenario_file, out_dir, *extra):
    code = main([
        "simulate", "--model", model_file, "--scenario", scenario_file,
        "--horizon", "2000", "--out", str(out_dir), *extra,
    ])
    assert code == 0
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}


def test_default_config_file_changes_no_artifact(model_file, scenario_file, tmp_path):
    cfg = tmp_path / "comm.cfg"
    cfg.write_text(render_comm_config(DEFAULT_CONFIG), encoding="utf-8")  # as make_fixture.py writes it
    plain = _simulate_bytes(model_file, scenario_file, tmp_path / "plain")
    configured = _simulate_bytes(model_file, scenario_file, tmp_path / "cfg", "--config", str(cfg))
    assert configured == plain


def test_config_file_reaches_the_simulation(model_file, scenario_file, tmp_path):
    cfg = tmp_path / "small-mtu.cfg"
    cfg.write_text("mtu_payload = 200\n", encoding="utf-8")
    plain = _simulate_bytes(model_file, scenario_file, tmp_path / "plain")
    small = _simulate_bytes(model_file, scenario_file, tmp_path / "small", "--config", str(cfg))
    assert small["trace.tsv"] != plain["trace.tsv"]


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("text", ["mtu_payload 200\n", "mtu_payload = 0\n"])
def test_malformed_config_file_is_usage_error(model_file, tmp_path, capsys, command, text):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(text, encoding="utf-8")
    argv = [command, "--model", model_file, "--horizon", "500", "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "line 1" in err


def test_simulate_rejects_a_33_byte_auth_key_before_writing_a_trace(model_file, tmp_path, capsys):
    cfg = tmp_path / "long-key.cfg"
    cfg.write_text("mtu_payload = 500\nauth_key = " + "k" * 33 + "\n", encoding="utf-8")
    out_dir = tmp_path / "long-key"
    argv = ["simulate", "--model", model_file, "--config", str(cfg), "--out", str(out_dir)]
    assert main(argv) == 2  # a config file that does not parse is a usage error
    err = capsys.readouterr().err
    assert str(cfg) in err and "line 2: auth_key must be at most 32 bytes, got 33" in err
    assert not (out_dir / "trace.tsv").exists()


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_scenario_naming_an_unknown_process_is_usage_error(model_file, tmp_path, capsys, command):
    scn = tmp_path / "ghost.scn"
    scn.write_text("fault kill PeerCI#9 at 1000\n", encoding="utf-8")
    out_dir = tmp_path / "ghost"
    argv = [command, "--model", model_file, "--scenario", str(scn)]
    if command == "simulate":
        argv += ["--out", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: scenario names 'PeerCI#9'" in captured.err and "verdict" not in captured.out
    assert not (out_dir / "trace.tsv").exists()


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_config_with_repeated_priority_is_usage_error(model_file, tmp_path, capsys, command):
    cfg = tmp_path / "clash.cfg"
    cfg.write_text("mtu_payload = 500\npriority.command = 200\n", encoding="utf-8")
    argv = [command, "--model", model_file, "--horizon", "500", "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "line 2" in err and "priority.command" in err
