"""Command-line interface.

    viewcase validate --model m.ucm
    viewcase plan     --model m.ucm --objective mem --memory-budget 40000 [--out DIR]
    viewcase graph    --model m.ucm [--out DIR]
    viewcase simulate --model m.ucm --scenario s.scn --horizon 8000 --seed 0 --out DIR
    viewcase report   --model m.ucm --scenario s.scn --horizon 8000 --seed 0

`simulate` and `report` take `--config comm.cfg`, the `key = value`
communication settings (MTU, timeouts, scan period, priorities).

Exit codes: 0 success, 1 domain failure (invalid model, budget exceeded,
non-graceful degradation), 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from pathlib import Path

from .comm import parse_comm_config
from .engine import Scenario, ScenarioError, degradation_report, parse_scenario
from .fixture import build_world
from .ipc import assign_ipc, dependency_graph, emit_component_graph
from .model import ModelError, UseCaseModel, parse_model, validate_model
from .partition import (
    DEFAULT_INLINE_THRESHOLD, BudgetExceeded, MappingPolicy, Objective, build_plan, render_plan,
)

_OBJECTIVES = {"ft": Objective.FAULT_TOLERANCE, "mem": Objective.MEMORY_BOUND}


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_model(args) -> UseCaseModel | None:
    """Parse and validate; print diagnostics and return None when invalid."""
    text = _read_text(args.model)
    try:
        model = parse_model(text)
    except ModelError as exc:
        print(f"{args.model}: {exc}", file=sys.stderr)
        return None
    diags = validate_model(model)
    for d in diags:
        print(f"{args.model}: {d}", file=sys.stderr)
    if any(d.severity == "error" for d in diags):
        return None
    return model


def _policy(args) -> MappingPolicy:
    objective = _OBJECTIVES[args.objective]
    if objective is Objective.MEMORY_BOUND and args.memory_budget is None:
        raise ValueError("--objective mem requires --memory-budget")
    return MappingPolicy(
        objective=objective,
        memory_budget=args.memory_budget,
        inline_threshold=args.inline_threshold,
    )


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
    else:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text, encoding="utf-8")
        print(f"wrote {path / filename}")


def cmd_validate(args) -> int:
    model = _load_model(args)
    if model is None:
        return 1
    print(f"ok: {len(model.actors)} actors, {len(model.use_cases)} use cases, "
          f"{len(model.relations)} relations, {len(model.flows)} flows")
    return 0


def _plan_document(args, render, filename: str) -> int:
    """Plan the model and emit `render(plan, channels)` as `filename`."""
    model = _load_model(args)
    if model is None:
        return 1
    plan = build_plan(model, _policy(args))
    channels = assign_ipc(dependency_graph(plan, model))
    _emit(render(plan, channels), args.out, filename)
    return 0


def cmd_plan(args) -> int:
    return _plan_document(args, render_plan, "plan.txt")


def cmd_graph(args) -> int:
    return _plan_document(args, emit_component_graph, "graph.dot")


def _build(args):
    """Read the inputs and build the world; None after a printed diagnostic."""
    comm_config = None
    if args.config is not None:
        text = _read_text(args.config)
        try:
            comm_config = parse_comm_config(text)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    model = _load_model(args)
    if model is None:
        return None
    scenario = Scenario()
    if args.scenario is not None:
        try:
            scenario = parse_scenario(_read_text(args.scenario))
        except ScenarioError as exc:
            print(f"{args.scenario}: {exc}", file=sys.stderr)
            return None
    plan, channels, world = build_world(model, _policy(args), comm_config=comm_config)
    world.check_run(scenario, args.horizon)  # a usage error, raised before any artifact
    return scenario, plan, channels, world


def _count_lines(path: Path) -> int:
    with path.open("rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 16), b""))


def cmd_simulate(args) -> int:
    built = _build(args)
    if built is None:
        return 1
    scenario, plan, channels, world = built
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.tsv"
    # streamed as the run goes, with the encoding and newlines of write_text
    with trace_path.open("w", encoding="utf-8") as trace_file:
        _, metrics = world.run(scenario, horizon=args.horizon, seed=args.seed, sink=trace_file.write)
    report = degradation_report(metrics, plan)
    (out / "metrics.txt").write_text(metrics.to_text(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_text(metrics), encoding="utf-8")
    (out / "plan.txt").write_text(render_plan(plan, channels), encoding="utf-8")
    print(f"verdict: {report.verdict} ({_count_lines(trace_path)} trace rows, "
          f"{len(metrics.links)} links) -> {out}")
    return 0 if report.verdict == "graceful" else 1


def cmd_report(args) -> int:
    built = _build(args)
    if built is None:
        return 1
    scenario, plan, _, world = built
    # the report needs no trace: its lines go to a sink that keeps none
    _, metrics = world.run(
        scenario, horizon=args.horizon, seed=args.seed, sink=deque(maxlen=0).append
    )
    report = degradation_report(metrics, plan)
    sys.stdout.write(report.to_text(metrics))
    return 0 if report.verdict == "graceful" else 1


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objective", choices=sorted(_OBJECTIVES), default="ft",
                   help="ft = fault tolerance, mem = memory bound")
    p.add_argument("--memory-budget", type=int, default=None)
    p.add_argument("--inline-threshold", type=int, default=DEFAULT_INLINE_THRESHOLD)


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    _add_policy_flags(p)
    p.add_argument("--scenario", default=None, help="scenario file (faults and stimuli)")
    p.add_argument("--horizon", type=int, default=10000, help="virtual milliseconds to run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="communication config file of 'key = value' lines (default built-in)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewcase",
        description="Plan processes, threads and IPC from a use-case model, then simulate the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("plan", help="emit the canonical plan document")
    p.add_argument("--model", required=True)
    _add_policy_flags(p)
    p.add_argument("--out", default=None, help="directory for plan.txt (default stdout)")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("graph", help="emit the component graph as DOT")
    p.add_argument("--model", required=True)
    _add_policy_flags(p)
    p.add_argument("--out", default=None, help="directory for graph.dot (default stdout)")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("simulate", help="run the plan and write trace/metrics/report")
    p.add_argument("--model", required=True)
    _add_sim_flags(p)
    p.add_argument("--out", default="viewcase-out", help="artifact directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("report", help="run the plan and print the degradation report")
    p.add_argument("--model", required=True)
    _add_sim_flags(p)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"plan failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a write: a failed read is already a ValueError
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
