"""End-to-end acceptance checks for the planner, runtime, and comm stack.

Each test prints exactly one `ACCEPTANCE <n> PASS|FAIL` line so the suite
doubles as a checklist; assertions carry the same facts for pytest.
"""

import itertools
import random
from collections import Counter

import pytest

from audit import parse_rows, rows_of
from viewcase import comm
from viewcase.cli import main
from viewcase.engine import degradation_report, parse_scenario
from viewcase.fixture import (
    FIXTURE_MODEL,
    build_world,
    degradation_scenario,
    failover_scenario,
    scale_peers,
)
from viewcase.ipc import ChannelKind, assign_ipc, dependency_graph
from viewcase.model import FlowClass, parse_model
from viewcase.partition import (
    SPOF_WARNING,
    BudgetExceeded,
    MappingPolicy,
    Objective,
    build_plan,
    plan_diff,
)


@pytest.fixture(scope="module")
def model():
    return parse_model(FIXTURE_MODEL)


@pytest.fixture(scope="module")
def ft_plan(model):
    return build_plan(model, MappingPolicy())


@pytest.fixture(scope="module")
def channels(ft_plan, model):
    return assign_ipc(dependency_graph(ft_plan, model))


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance {number}: {detail}"


# 1 ------------------------------------------------------------------------------


def test_acceptance_1_actor_driven_partition(ft_plan, capsys):
    census = Counter(n.actor for n in ft_plan.nodes)
    expected_ids = {
        "Operator#0", "LocalHost#0", "LocalHost#1", "StandbyCI#0", "CommEquipment#*",
        "PeerCI#0", "PeerCI#1", "PeerCI#2", "PeerCI#3", "PeerCI#4", "PeerCI#5",
    }
    ids = {n.id for n in ft_plan.nodes}
    ok = (
        ids == expected_ids
        and census == {"Operator": 1, "LocalHost": 2, "StandbyCI": 1, "CommEquipment": 1, "PeerCI": 6}
        and ft_plan.shared_service_nodes == ()
    )
    _report(
        capsys, 1, ok,
        f"fault-tolerant plan has {len(ft_plan.nodes)} process nodes "
        f"(Operator x1, LocalHost x2, StandbyCI x1, CommEquipment x1 shared, PeerCI x6)",
    )


# 2 ------------------------------------------------------------------------------


def test_acceptance_2_common_use_case_placement(model, ft_plan, capsys):
    inlined_auth = sorted(n.id for n in ft_plan.nodes if "Authenticate" in n.inlined)
    inlined_log = sorted(n.id for n in ft_plan.nodes if "LogTraffic" in n.inlined)

    mb = build_plan(model, MappingPolicy(Objective.MEMORY_BOUND, memory_budget=40000))
    services = {n.id: n for n in mb.shared_service_nodes}
    spof_ok = all(SPOF_WARNING in n.warnings for n in mb.shared_service_nodes)
    try:
        build_plan(model, MappingPolicy(Objective.MEMORY_BOUND, memory_budget=37999))
        budget_enforced = False
    except BudgetExceeded:
        budget_enforced = True

    ok = (
        len(inlined_auth) == 9
        and "StandbyCI#0" not in inlined_auth
        and "CommEquipment#*" not in inlined_auth
        and len(inlined_log) == 8
        and ft_plan.estimated_footprint == 130800
        and set(services) == {"Authenticate#svc", "LogTraffic#svc"}
        and spof_ok
        and mb.estimated_footprint == 38000
        and budget_enforced
    )
    _report(
        capsys, 2, ok,
        "small shared use cases inline under fault-tolerance "
        f"(Authenticate -> {len(inlined_auth)} nodes, footprint 130800) and move to "
        f"warned service processes under memory-bound (footprint 38000, budget enforced)",
    )


# 3 ------------------------------------------------------------------------------


def test_acceptance_3_ipc_rule_assignment(channels, capsys):
    by_kind = Counter(c.kind for c in channels)
    by_source = Counter((c.source, c.kind) for c in channels)
    periodic_ok = all(
        c.kind is ChannelKind.SHARED_SEGMENT and c.segment_size == c.message_size
        for c in channels
        if c.klass is FlowClass.PERIODIC
    )
    async_ok = all(
        c.kind is ChannelKind.MESSAGE_QUEUE and c.capacity == 64 and len(c.readers) == 1
        for c in channels
        if c.klass is FlowClass.ASYNC
    )
    status = next(c for c in channels if c.source == "ExchangeStatus")
    ok = (
        len(channels) == 36
        and by_kind[ChannelKind.SHARED_SEGMENT] == 11
        and by_kind[ChannelKind.MESSAGE_QUEUE] == 25
        and by_source[("SendData", ChannelKind.MESSAGE_QUEUE)] == 12
        and by_source[("ReceiveData", ChannelKind.MESSAGE_QUEUE)] == 12
        and by_source[("ReportHealth", ChannelKind.SHARED_SEGMENT)] == 10
        and by_source[("MonitorEquipment", ChannelKind.MESSAGE_QUEUE)] == 1
        and len(status.readers) == 10
        and periodic_ok
        and async_ok
    )
    _report(
        capsys, 3, ok,
        "36 channels: periodic flows on 11 shared segments (status fans out to 10 "
        "readers), asynchronous flows on 25 point-to-point queues of capacity 64",
    )


# 4 ------------------------------------------------------------------------------


def test_acceptance_4_graceful_degradation(capsys):
    victim = "PeerCI#3"
    results = {}
    plan = None
    for label, kill in (("clean", None), ("faulted", victim)):
        plan, _, world = build_world()
        scenario = parse_scenario(degradation_scenario(kill=kill))
        _, metrics = world.run(scenario, 8000, seed=0)
        results[label] = metrics
    report = degradation_report(results["faulted"], plan)
    lossy = [
        k for k, s in results["faulted"].links.items() if s.delivered < s.sent
    ]
    incident_ok = all(victim in (k[1], k[2]) for k in lossy)
    untouched = {
        k: (s.sent, s.delivered)
        for k, s in results["faulted"].links.items()
        if victim not in (k[1], k[2])
    }
    clean = {
        k: (s.sent, s.delivered)
        for k, s in results["clean"].links.items()
        if victim not in (k[1], k[2])
    }
    ok = (
        report.verdict == "graceful"
        and lossy != []
        and incident_ok
        and untouched == clean
    )
    _report(
        capsys, 4, ok,
        f"killing {victim} mid-run stays graceful: {len(lossy)} lossy links all "
        f"touch the victim, all {len(untouched)} other links match the fault-free run exactly",
    )


# 5 ------------------------------------------------------------------------------


def test_acceptance_5_scale_out_diff(model, ft_plan, channels, capsys):
    bigger = scale_peers(model, 7)
    new_plan = build_plan(bigger, MappingPolicy())
    new_channels = assign_ipc(dependency_graph(new_plan, bigger))
    diff = plan_diff(ft_plan, new_plan, channels, new_channels)
    expected_added = {
        "mq:LocalHost#0:PeerCI#6:SendData",
        "mq:LocalHost#1:PeerCI#6:SendData",
        "mq:PeerCI#6:LocalHost#0:ReceiveData",
        "mq:PeerCI#6:LocalHost#1:ReceiveData",
        "shm:PeerCI#6:ReportHealth",
    }
    ok = (
        diff.added_nodes == ("PeerCI#6",)
        and diff.removed_nodes == ()
        and diff.changed_nodes == ()
        and set(diff.added_channels) == expected_added
        and diff.removed_channels == ()
        and [c for c, _ in diff.changed_channels] == ["shm:Operator#0:ExchangeStatus"]
    )
    _report(
        capsys, 5, ok,
        "scaling 6 -> 7 peers adds exactly one node and five channels and only "
        "widens the status segment's reader set; nothing is removed or renamed",
    )


# 6 ------------------------------------------------------------------------------


def test_acceptance_6_fragmentation_round_trip(capsys):
    key = b"acceptance"
    rng = random.Random(2026)
    mtus = (64, 512, 1000)
    mismatches = 0
    for i in range(1000):
        size = rng.randrange(0, 65537)
        payload = rng.randbytes(size)
        mtu = mtus[i % 3]
        msg = comm.AppMessage(i, "a", "b", "track_data", payload)
        pkts = comm.packetize(msg, mtu, key)
        rng.shuffle(pkts)
        buf = comm.ReassemblyBuffer(owner="b")
        final = None
        for p in pkts:
            out = comm.reassemble(buf, p, 0, 10_000, key, src="a")
            if out.kind is comm.OutcomeKind.COMPLETE:
                final = out.message
        if final is None or final.payload != payload:
            mismatches += 1

    # additionally: every delivery order of a four-fragment message works
    payload = bytes(range(256)) * 14  # 3584 bytes -> 4 packets at mtu 1000
    base = comm.packetize(comm.AppMessage(9, "a", "b", "command", payload), 1000, key)
    order_failures = 0
    for perm in itertools.permutations(base):
        buf = comm.ReassemblyBuffer(owner="b")
        outcomes = [comm.reassemble(buf, p, 0, 10_000, key, src="a") for p in perm]
        if outcomes[-1].kind is not comm.OutcomeKind.COMPLETE:
            order_failures += 1
        elif outcomes[-1].message.payload != payload:
            order_failures += 1
    ok = mismatches == 0 and order_failures == 0
    _report(
        capsys, 6, ok,
        "1000 random messages up to 64 KiB survive packetize -> shuffle -> reassemble "
        f"at MTUs {mtus} with {mismatches} mismatches; all 24 delivery orders of a "
        f"4-fragment message reassemble ({order_failures} failures)",
    )


# 7 ------------------------------------------------------------------------------


def test_acceptance_7_run_to_completion_throughput(capsys):
    _, _, world = build_world()
    scenario = parse_scenario(degradation_scenario(kill=None))
    trace, metrics = world.run(scenario, 30_000, seed=0)

    def dispatch_no(detail):
        for token in detail.split():
            if token[0] == "d" and token[1:].isdigit():
                return int(token[1:])
        return None

    rows = parse_rows(trace.to_text())
    interleaved = 0
    for pid in metrics.processes:
        seen = []
        for row in rows:
            if row.process != pid or row.thread != "processor":
                continue
            n = dispatch_no(row.detail)
            if n is None:
                continue
            if not seen or seen[-1] != n:
                seen.append(n)
        if seen != sorted(set(seen)):
            interleaved += 1

    total = sum(p.dispatches for p in metrics.processes.values())
    ok = interleaved == 0 and total >= 10_000
    _report(
        capsys, 7, ok,
        f"{total} dispatches over 30 s of virtual time, and every process finishes "
        "each dispatch before starting the next (0 interleavings)",
    )


# 8 ------------------------------------------------------------------------------


def test_acceptance_8_standby_failover(capsys):
    _, _, world = build_world()
    scenario = parse_scenario(failover_scenario(kill_at=1000))
    trace, metrics = world.run(scenario, 4000, seed=0)
    standby = world.processes["StandbyCI#0"]
    machine = standby.machines["TakeOver"]
    records = {r.main: r for r in metrics.failover}
    takeover_rows = rows_of(trace, "takeover", "StandbyCI#0")
    deadline_ok = bool(records) and all(r.active_at <= 1400 for r in records.values())
    ok = (
        set(records) == {"LocalHost#0", "LocalHost#1"}
        and deadline_ok
        and machine.current == "Active"
        and machine.variables.get("takeovers", 0) == 2
        and len(takeover_rows) == 2
    )
    active_at = max((r.active_at for r in records.values()), default=None)
    _report(
        capsys, 8, ok,
        f"standby replaces both hosts killed at t=1000 by t={active_at} "
        "(limit 1400 = one miss to flag late plus three to declare dead)",
    )


# 9 ------------------------------------------------------------------------------


def test_acceptance_9_deterministic_artifacts(tmp_path, capsys):
    model_file = tmp_path / "model.ucm"
    model_file.write_text(FIXTURE_MODEL, encoding="utf-8")
    scn_file = tmp_path / "steady.scn"
    scn_file.write_text(degradation_scenario(), encoding="utf-8")
    names = ("trace.tsv", "metrics.txt", "report.txt", "plan.txt")
    snapshots = []
    for attempt in ("one", "two"):
        out = tmp_path / attempt
        code = main([
            "simulate", "--model", str(model_file), "--scenario", str(scn_file),
            "--horizon", "6000", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        snapshots.append({n: (out / n).read_bytes() for n in names})
    identical = [n for n in names if snapshots[0][n] == snapshots[1][n]]
    ok = identical == list(names) and len(snapshots[0]["trace.tsv"]) > 10_000
    _report(
        capsys, 9, ok,
        "re-running the same simulation command reproduces trace.tsv, metrics.txt, "
        "report.txt and plan.txt byte for byte",
    )
