#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny horizon so it takes seconds.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its
per-layer metrics, each with its unit, and that both match the goldens;
that a tampered golden is reported as a failure; that the benchmark's
scenario text still equals the fixture's; and that no benchmark file
imports from the repository's tests. Nothing here depends on how long
anything takes. Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import re
import sys

from run import HERE, ROOT, measure, load_goldens
from workloads import WORKLOADS

SEED = 3


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in declared), f"{what}: every declared metric, nothing else")
    check(
        all(got[m["name"]]["unit"] == m["unit"] for m in declared),
        f"{what}: units as declared",
    )
    check(
        all(isinstance(v["value"], (int, float)) for v in got.values()),
        f"{what}: every value is a number",
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
        "BENCHMARK.json lists the workloads the benchmark runs",
    )
    goldens = load_goldens()
    for name, workload in WORKLOADS.items():
        tiny = workload.selftest_horizon
        result, detail = measure(name, SEED, 0, False, horizon=tiny, min_samples=1)
        check(result["correct"] and result["failed"] == 0, f"{name}: untraced run matches goldens")
        check(detail["artifacts_match_seed_commit"], f"{name}: artifact bytes equal the recorded ones")
        check_metrics(result, spec["end_to_end"], f"{name} --trace 0")

        result, detail = measure(name, SEED, 0, True, horizon=tiny)
        check(result["correct"] and result["failed"] == 0, f"{name}: traced run matches goldens")
        check(not detail["missing_trace_targets"], f"{name}: every trace target exists")
        check_metrics(result, spec["per_layer"], f"{name} --trace 1")

        tampered = copy.deepcopy(goldens)
        tampered[name][str(tiny)]["statistics"]["trace_rows"] += 1
        result, detail = measure(name, SEED, 0, False, horizon=tiny, goldens=tampered, min_samples=1)
        check(
            not result["correct"]
            and result["failed"] == result["attempted"]
            and result["metrics"]["match_rate"]["value"] == 0
            and any("trace_rows" in f for f in detail["failures"]),
            f"{name}: a tampered golden is reported as a failure",
        )

    sys.path.insert(0, str(ROOT / "src"))
    from viewcase import fixture

    check(
        WORKLOADS["steady-6p"].scenario(6) == fixture.degradation_scenario(kill=None)
        and WORKLOADS["failover-6p"].scenario(6) == fixture.failover_scenario(),
        "benchmark scenarios equal the fixture's",
    )
    imports_tests = re.compile(r"^\s*(from|import)\s+tests\b", re.MULTILINE)
    check(
        not any(imports_tests.search(p.read_text(encoding="utf-8")) for p in HERE.glob("*.py")),
        "no benchmark file imports from tests/",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
