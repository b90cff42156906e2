#!/usr/bin/env python3
"""Degradation experiment: identical traffic with and without a node fault.

Runs the bundled deployment twice — once fault-free, once killing one
peer mid-run — and compares per-link delivery. A graceful outcome means
every lossy link touches the victim and all other links are untouched.

    python3 scripts/run_degradation.py --victim PeerCI#3 --kill-at 5000
"""

import argparse
from collections import deque

from viewcase.engine import degradation_report, parse_scenario
from viewcase.fixture import build_world, degradation_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--victim", default="PeerCI#3")
    parser.add_argument("--kill-at", type=int, default=5000)
    parser.add_argument("--horizon", type=int, default=8000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    metrics = {}
    plan = None
    for label, kill in (("clean", None), ("faulted", args.victim)):
        plan, _, world = build_world()
        scenario = parse_scenario(degradation_scenario(kill=kill, kill_at=args.kill_at))
        # only the metrics are compared, so no trace line is kept
        _, metrics[label] = world.run(
            scenario, args.horizon, seed=args.seed, sink=deque(maxlen=0).append
        )
        total = sum(p.dispatches for p in metrics[label].processes.values())
        print(f"[{label}] {total} dispatches, {len(metrics[label].links)} links")

    report = degradation_report(metrics["faulted"], plan)
    print(f"verdict: {report.verdict}")
    for key in report.lost_links:
        s = metrics["faulted"].links[key]
        print(f"  lost {key[0]} ({key[1]} -> {key[2]}): {s.delivered}/{s.sent} delivered")

    drifted = 0
    for key, stats in metrics["faulted"].links.items():
        if args.victim in (key[1], key[2]):
            continue
        clean = metrics["clean"].links.get(key)
        if clean is None or (clean.sent, clean.delivered) != (stats.sent, stats.delivered):
            drifted += 1
            print(f"  drift on {key}: clean={clean} faulted={stats}")
    print(f"non-incident links identical to the clean run: {drifted == 0}")


if __name__ == "__main__":
    main()
