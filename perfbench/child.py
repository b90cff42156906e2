#!/usr/bin/env python3
"""One sample of the benchmark: the viewcase pipeline in a process of its own.

`run.py` starts one fresh interpreter per sample, so that imports and the
peak resident memory belong to this sample alone:

    python3 perfbench/child.py --workload steady-6p --seed 0 --horizon 10000 --trace 0

The pipeline follows `viewcase simulate`: parse and validate the model,
parse the scenario, `build_world` (build_plan, dependency_graph, assign_ipc,
build_behaviors, instantiate), `SimWorld.run`, then render and write the
four artifacts. Set-up is repeated a few times first, so that `setup_s` is
a median. The timings are reported in reference seconds (see
`calibrate.py`) and, under `host`, in host seconds. The set-ups are scaled
by the reference loop timed before and after them; the measured pass by
units of the loop that a timer runs during it, whose time is taken out of
the pass. Prints one JSON object: timings, the simulated statistics that
`run.py` compares with the goldens, the artifact hashes and, with
`--trace 1`, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

# Set-ups before the measured pass, for `setup_s`: at least SETUP_MIN, then
# more until SETUP_BUDGET_S of set-up time is spent or SETUP_MAX are done.
SETUP_MIN = 3
SETUP_MAX = 30
SETUP_BUDGET_S = 0.1


def _import_viewcase():
    sys.path.insert(0, str(SRC))
    import viewcase

    if Path(viewcase.__file__).resolve().parent != SRC / "viewcase":
        raise SystemExit(f"viewcase imported from {viewcase.__file__}, not from {SRC}")
    from viewcase import engine, fixture, model, partition

    return SimpleNamespace(engine=engine, fixture=fixture, model=model, partition=partition)


def set_up(vc, model_text: str, scenario_text: str):
    """Everything `viewcase simulate` does before the run; returns its products."""
    model = vc.model.parse_model(model_text)
    if any(d.severity == "error" for d in vc.model.validate_model(model)):
        raise SystemExit("the generated model does not validate")
    scenario = vc.engine.parse_scenario(scenario_text)
    plan, channels, world = vc.fixture.build_world(model, vc.partition.MappingPolicy())
    return scenario, plan, channels, world


def render(vc, plan, channels, trace, metrics) -> tuple[object, dict[str, str]]:
    report = vc.engine.degradation_report(metrics, plan)
    return report, {
        "trace.tsv": trace.to_text(),
        "metrics.txt": metrics.to_text(),
        "report.txt": report.to_text(metrics),
        "plan.txt": vc.partition.render_plan(plan, channels),
    }


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def simulated_statistics(trace, metrics, report) -> dict:
    """What the goldens pin: counts and records, not bytes or timings."""
    links = [[" ".join(k), s.sent, s.delivered] for k, s in sorted(metrics.links.items())]
    procs = [
        [pid, p.dispatches, p.discards, p.deferrals]
        for pid, p in sorted(metrics.processes.items())
    ]
    return {
        "verdict": report.verdict,
        "dispatches": sum(p[1] for p in procs),
        "trace_rows": len(trace.rows),
        "links": len(links),
        "sent": sum(row[1] for row in links),
        "delivered": sum(row[2] for row in links),
        "links_sha256": _digest(links),
        "processes": len(procs),
        "discards": sum(p[2] for p in procs),
        "deferrals": sum(p[3] for p in procs),
        "processes_sha256": _digest(procs),
        "faults": [list(f) for f in metrics.faults],
        "failover": [[f.main, f.standby, f.detected_at, f.active_at] for f in metrics.failover],
    }


def rx_completed_keys(world) -> int:
    """Completed-message keys held by every reassembly buffer at the end."""
    total = 0
    for proc in world.processes.values():
        for machine in proc.machines.values():
            rx = machine.variables.get("rx")
            total += len(getattr(rx, "completed", ()))
    return total


def sample(workload, seed: int, horizon: int, trace: bool) -> dict:
    vc = _import_viewcase()
    base = vc.model.parse_model(vc.fixture.FIXTURE_MODEL)
    model_text = vc.model.render_model(vc.fixture.scale_peers(base, workload.peers))
    scenario_text = workload.scenario(workload.peers)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    ref_unit_s = [calibrate.unit_seconds()]
    setup_s: list[float] = []
    while len(setup_s) < SETUP_MIN or (
        len(setup_s) < SETUP_MAX and sum(setup_s) < SETUP_BUDGET_S
    ):
        start = clock()
        products = set_up(vc, model_text, scenario_text)
        setup_s.append(clock() - start)
        del products
        gc.collect()

    ref_unit_s.append(calibrate.unit_seconds())
    # the measured pass is scaled by units run from a timer while it runs;
    # a traced child runs no timer, whose units would land in its spans
    sampler = None if trace else calibrate.Sampler()
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with contextlib.nullcontext() if sampler is None else sampler:
            t0 = clock()
            scenario, plan, channels, world = set_up(vc, model_text, scenario_text)
            t1 = clock()
            if tracer is not None:
                tracer.world = world
            sim_trace, metrics = world.run(scenario, horizon=horizon, seed=seed)
            t2 = clock()
            report, texts = render(vc, plan, channels, sim_trace, metrics)
            for name, text in texts.items():
                (out_dir / name).write_text(text, encoding="utf-8")
            t3 = clock()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sampler is not None and len(sampler):
        paused = sampler.spent
        run_unit_s = sampler.unit_seconds()
    else:
        paused = lambda start, end: 0.0  # noqa: E731
        ref_unit_s.append(calibrate.unit_seconds())
        run_unit_s = statistics.mean(ref_unit_s[1:])

    stats = simulated_statistics(sim_trace, metrics, report)
    sim_s = t2 - t1 - paused(t1, t2)
    host = {
        "wall_s": t3 - t0 - paused(t0, t3),
        "setup_s": statistics.median(setup_s),
        "sim_s": sim_s,
        "dispatch_us": sim_s / stats["dispatches"] * 1e6 if stats["dispatches"] else 0.0,
    }
    # the set-ups are scaled by the loop timed before and after them
    setup_scale = calibrate.REF_UNIT_S / statistics.mean(ref_unit_s[:2])
    run_scale = calibrate.REF_UNIT_S / run_unit_s
    result = {
        **{name: value * run_scale for name, value in host.items()},
        "setup_s": host["setup_s"] * setup_scale,
        "setup_samples": len(setup_s),
        "peak_rss_mb": kib * 1024 / 1e6,
        "host": host,
        "ref_unit_s": ref_unit_s,
        "run_unit_s": run_unit_s,
        "timer_units": len(sampler) if sampler is not None else 0,
        "statistics": stats,
        "artifacts_sha256": {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in texts.items()
        },
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers.update(
            {
                "partition.nodes": len(plan.all_nodes()),
                "ipc.channels": len(channels),
                "fixture.rx_completed_keys": rx_completed_keys(world),
                "engine.trace_rows": len(sim_trace.rows),
            }
        )
        result["layers"] = layers
        result["missing_targets"] = tracer.missing
    return result


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = sample(WORKLOADS[args.workload], args.seed, args.horizon, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
