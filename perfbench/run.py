#!/usr/bin/env python3
"""Benchmark of the viewcase plan -> simulate pipeline.

    python3 perfbench/run.py --workload steady-6p --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. Each sample is one fresh child process (`child.py`) that runs the
whole pipeline once, and only one child runs at a time. Samples are taken
until `--seconds` is used up (at least three, or one pair when traced).
With `--trace 0` the last line of stdout reports the end-to-end metrics as
medians over the samples; with `--trace 1`, untraced and traced children
alternate and the last line reports the per-layer metrics of the traced
ones, plus the tracing overhead. Times are in reference seconds: host
seconds scaled by the speed of a fixed reference loop (`calibrate.py`)
timed around each stretch a child measures, so that a host that is busier
in one run than in the next does not move them. See NOTES.md for what each
metric means.
Every sample's simulated statistics are compared with `goldens.json`; a
sample that differs counts as failed. The line before the last one holds
the per-sample details, the artifact hashes and the provenance.

Exit status 0 when a result was printed, 2 when the checkout holds no
program to measure or no sample finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

GOLDENS = HERE / "goldens.json"
MIN_SAMPLES = 3
HARD_LIMIT_S = 150.0  # start no child after this; every run ends well inside 180 s
CHILD_TIMEOUT_S = 170.0

# end-to-end metrics every child measures; `match_rate` is computed over the run
SAMPLED = ("wall_s", "setup_s", "sim_s", "dispatch_us", "peak_rss_mb")
HOST_TIMED = ("wall_s", "setup_s", "sim_s", "dispatch_us")
SAMPLE_DETAILS = ("traced", "host", "ref_unit_s", "run_unit_s", "timer_units")


class CannotRun(Exception):
    pass


def _check_checkout() -> None:
    if not (ROOT / "src" / "viewcase" / "__init__.py").is_file():
        raise CannotRun(f"no viewcase sources under {ROOT / 'src'}")


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def declared_units() -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares, end-to-end and per-layer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_child(workload: str, seed: int, horizon: int, trace: bool, timeout: float) -> dict:
    """One sample in a fresh interpreter; raises RuntimeError when it fails."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--horizon", str(horizon), "--trace", str(int(trace)),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"sample timed out after {timeout:.0f} s") from None
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"sample exited {done.returncode}: {tail[0]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError("sample printed no result") from None


def golden_mismatches(stats: dict, golden: dict) -> list[str]:
    return [
        f"{key}: got {stats.get(key)!r}, golden {want!r}"
        for key, want in golden["statistics"].items()
        if stats.get(key) != want
    ]


def _summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    horizon: int | None = None,
    goldens: dict | None = None,
    min_samples: int = MIN_SAMPLES,
) -> tuple[dict, dict]:
    """Take the samples of one run; returns (result line, detail line)."""
    _check_checkout()
    spec = WORKLOADS[workload]
    horizon = horizon or spec.horizon
    goldens = load_goldens() if goldens is None else goldens
    golden = goldens.get(workload, {}).get(str(horizon))
    if golden is None:
        raise CannotRun(f"no golden statistics for {workload} at horizon {horizon}")

    start = time.perf_counter()
    # trace runs alternate untraced and traced children, untraced first
    modes = (False, True) if trace else (False,)
    samples: list[dict] = []
    failures: list[str] = []
    durations: list[float] = []
    attempted = 0
    minimum = len(modes) if trace else min_samples
    while True:
        elapsed = time.perf_counter() - start
        step = statistics.median(durations) * len(modes) if durations else 0.0
        if attempted >= minimum and elapsed + step > seconds:
            break
        if attempted and elapsed + step > HARD_LIMIT_S:
            break
        for traced in modes:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = run_child(
                    workload, seed, horizon, traced, CHILD_TIMEOUT_S - (t0 - start)
                )
            except RuntimeError as exc:
                failures.append(f"sample {attempted}: {exc}")
                continue
            finally:
                durations.append(time.perf_counter() - t0)
            result["traced"] = traced
            wrong = golden_mismatches(result["statistics"], golden)
            if wrong:
                failures.append(f"sample {attempted}: " + "; ".join(wrong))
            result["matches_golden"] = not wrong
            samples.append(result)

    # the same seed must give the same bytes in every sample of the run
    hash_sets = {json.dumps(s["artifacts_sha256"], sort_keys=True) for s in samples}
    deterministic = len(hash_sets) <= 1
    if not deterministic:
        failures.append("artifact hashes differ between samples with the same seed")
    failed = attempted - sum(s["matches_golden"] for s in samples) if deterministic else attempted

    plain = [s for s in samples if not s["traced"]]
    if not plain or (trace and len(plain) == len(samples)):
        raise CannotRun("no sample finished: " + "; ".join(failures[-3:]))

    details = {name: _summary([s[name] for s in plain]) for name in SAMPLED}
    host_details = {name: _summary([s["host"][name] for s in plain]) for name in HOST_TIMED}
    if trace:
        traced = [s for s in samples if s["traced"]]
        layer_names = traced[0]["layers"]
        metrics = {
            name: statistics.median(s["layers"][name] for s in traced) for name in layer_names
        }
        metrics["trace.overhead_s"] = (
            statistics.median(s["sim_s"] for s in traced) - details["sim_s"]["median"]
        )
    else:
        metrics = {name: d["median"] for name, d in details.items()}
        metrics["match_rate"] = (attempted - failed) / attempted
    units = declared_units()

    first = samples[0]["artifacts_sha256"]
    detail = {
        "workload": workload,
        "seed": seed,
        "horizon": horizon,
        "trace": int(trace),
        "samples": [
            {k: s[k] for k in (*SAMPLED, *SAMPLE_DETAILS)} for s in samples
        ],
        "end_to_end": details,
        "end_to_end_host_seconds": host_details,
        "error_rate": failed / attempted,
        "failures": failures,
        "artifacts_sha256": first,
        "artifacts_match_seed_commit": first == golden.get("artifacts_sha256"),
        "missing_trace_targets": samples[-1].get("missing_targets", []),
        "provenance": provenance(),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return result, detail


def provenance() -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
