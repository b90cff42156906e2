#!/usr/bin/env python3
"""Record `goldens.json`: the simulated statistics every sample is checked against.

    python3 perfbench/record_goldens.py

Run it once, at the commit whose behaviour the benchmark pins; it records
each workload at its measured horizon and at its self-test horizon, with
seed 0 (the statistics do not depend on the seed, which only fills
stimulus payloads). The artifact hashes are stored beside them so that
every run shows whether its bytes still equal that commit's.
"""

from __future__ import annotations

import json

from run import GOLDENS, provenance, run_child
from workloads import WORKLOADS


def main() -> None:
    goldens: dict = {"_recorded_at": provenance()}
    for name, spec in WORKLOADS.items():
        goldens[name] = {}
        for horizon in (spec.horizon, spec.selftest_horizon):
            result = run_child(name, 0, horizon, False, timeout=170.0)
            goldens[name][str(horizon)] = {
                "statistics": result["statistics"],
                "artifacts_sha256": result["artifacts_sha256"],
            }
            print(f"{name} @ {horizon}: {result['statistics']['dispatches']} dispatches")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
