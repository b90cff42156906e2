#!/usr/bin/env python3
"""Failover experiment: kill both hosts and time the standby takeover.

Prints the detection/takeover timeline extracted from the trace plus the
failover records from the metrics.

    python3 scripts/run_failover.py --kill-at 1000
"""

import argparse

from viewcase.engine import degradation_report, parse_scenario
from viewcase.fixture import build_world, failover_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kill-at", type=int, default=1000)
    parser.add_argument("--horizon", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    plan, _, world = build_world()
    scenario = parse_scenario(failover_scenario(kill_at=args.kill_at))
    trace, metrics = world.run(scenario, args.horizon, seed=args.seed)

    for line in trace.rows:
        time, process, _, event, detail = line.split("\t", 4)
        if event in ("fault", "alert", "takeover", "rebind") or (
            event == "send" and "TAKEOVER" in detail
        ):
            print(f"t={time:<6} {process:<14} {event:<9} {detail}")

    print()
    for rec in metrics.failover:
        lag = rec.active_at - args.kill_at
        print(
            f"takeover: {rec.main} -> {rec.standby} detected t={rec.detected_at}, "
            f"active t={rec.active_at} ({lag} ms after the kill)"
        )
    standby = world.processes["StandbyCI#0"].machines["TakeOver"]
    print(f"standby state: {standby.current}, takeovers={standby.variables.get('takeovers', 0)}")
    print(f"verdict: {degradation_report(metrics, plan).verdict}")


if __name__ == "__main__":
    main()
