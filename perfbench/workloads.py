"""The benchmark's workloads and the scenario text each one feeds the simulator.

The benchmark owns its inputs: the scenario lines are written here rather
than taken from `viewcase.fixture`, so a change to the fixture's helpers
cannot silently change what is measured. The self-test checks that they
still equal `degradation_scenario(kill=None)` and `failover_scenario()`.
The model text is generated in the child with `render_model(scale_peers(...))`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def steady_scenario(peers: int) -> str:
    """Steady traffic on every link and no fault."""
    lines = [
        "stimulus LocalHost#0 SEND_REQ at 100 every 200 priority 180 size 2500",
        "stimulus LocalHost#1 SEND_REQ at 150 every 200 priority 180 size 2500",
    ]
    lines += [
        f"stimulus PeerCI#{k} RX_DATA at {120 + 10 * k} every 300 priority 200 size 700"
        for k in range(peers)
    ]
    return "\n".join(lines) + "\n"


def idle_scenario(peers: int) -> str:
    """No stimulus and no fault: only periodic status and heartbeats run."""
    return ""


def failover_scenario(peers: int) -> str:
    """Inbound traffic from every peer; both live hosts die at t=1000."""
    lines = [
        f"stimulus PeerCI#{k} RX_DATA at {100 + 10 * k} every 200 priority 200 size 600"
        for k in range(peers)
    ]
    lines += ["fault kill LocalHost#0 at 1000", "fault kill LocalHost#1 at 1000"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    peers: int
    scenario: Callable[[int], str]  # peers -> scenario text
    horizon: int  # virtual ms of one measured run
    selftest_horizon: int  # virtual ms of the benchmark's self-test


# Horizons are chosen so that one sample takes a few seconds of host time on
# a 2-CPU machine: a 30 s run then holds about six samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady-6p", 6, steady_scenario, 10000, 1500),
        Workload("status-wide-500p", 500, idle_scenario, 300, 120),
        Workload("failover-6p", 6, failover_scenario, 15000, 1500),
    )
}
