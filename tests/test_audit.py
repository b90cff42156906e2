"""The auditor rebuilds metrics.txt and report.txt from trace.tsv and plan.txt."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import audit
from test_fixture import world_under
from viewcase.cli import main
from viewcase.engine import SimConfig, SimWorld, degradation_report, parse_scenario
from viewcase.fixture import (
    FIXTURE_MODEL,
    build_world,
    degradation_scenario,
    failover_scenario,
    scale_peers,
)
from viewcase.model import parse_model
from viewcase.partition import MappingPolicy, Objective, render_plan

_MEM = MappingPolicy(Objective.MEMORY_BOUND, memory_budget=40000)


def _audited(plan, channels, world, scenario, horizon, seed=0):
    """Run the world, rebuild its metrics and report from the trace and the
    plan, and check both against the engine's own; returns the metrics."""
    trace, metrics = world.run(scenario, horizon, seed=seed)
    rebuilt_metrics, rebuilt_report = audit.rebuild(trace.to_text(), render_plan(plan, channels))
    assert rebuilt_metrics == metrics.to_text()
    assert rebuilt_report == degradation_report(metrics, plan).to_text(metrics)
    return metrics


# The runs whose artifacts tests/test_fixture.py pins by digest.
_PINNED_RUNS = {
    "degradation": (build_world, degradation_scenario(), 3000, 11),
    "failover": (build_world, failover_scenario(), 2000, 11),
    "50 peers": (
        lambda: build_world(scale_peers(parse_model(FIXTURE_MODEL), 50)),
        degradation_scenario(peers=50), 3000, 11,
    ),
    "failover, odd periods": (lambda: world_under(SimConfig(7, 13, 29)), failover_scenario(), 4000, 5),
    "500 idle peers": (lambda: build_world(scale_peers(parse_model(FIXTURE_MODEL), 500)), "", 300, 0),
    "shared receiver and watchdog sweep": (
        lambda: world_under(SimConfig(1, 50, 1)), degradation_scenario(kill=None), 2000, 0,
    ),
    "failover, one sweep": (lambda: world_under(SimConfig(50, 50, 50)), failover_scenario(), 4000, 0),
}


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_the_trace_rebuilds_metrics_and_report_of_every_pinned_run(name):
    build, text, horizon, seed = _PINNED_RUNS[name]
    _audited(*build(), parse_scenario(text), horizon, seed)


def test_the_trace_rebuilds_metrics_and_report_under_mem_with_the_peers_killed():
    scenario = parse_scenario(
        "stimulus LocalHost#* SEND_REQ at 100 every 200 priority 180 size 2500\n"
        "stimulus PeerCI#* RX_DATA at 120 every 300 priority 200 size 700\n"
        "fault kill PeerCI#* at 1000\n"
    )
    metrics = _audited(*build_world(policy=_MEM), scenario, 3000)
    assert [pid for _, pid, _ in metrics.faults] == ["PeerCI#*"]


def test_the_trace_rebuilds_deferrals_discards_and_takeovers():
    """Failover, plus signals that the peer session and the standby defer and
    one that no machine takes."""
    scenario = parse_scenario(
        failover_scenario()
        + "stimulus PeerCI#1 PEER_MSG at 300 every 400 priority 90 size 8\n"
        "stimulus StandbyCI#0 DATA_PKT at 200 every 500 priority 90 size 40\n"
        "stimulus Operator#0 NOT_A_SIGNAL at 250 every 0 priority 90 size 1\n"
    )
    metrics = _audited(*build_world(), scenario, 2000, seed=3)
    stats = metrics.processes
    assert stats["PeerCI#1"].deferrals and stats["StandbyCI#0"].deferrals
    assert stats["Operator#0"].discards == 1
    assert len(metrics.failover) == 2


def test_the_trace_rebuilds_metrics_and_report_when_writers_block():
    """70 kB every 100 ms fills the host's queues: each blocked send traces
    a `blocked` row that counts nothing, and the auditor skips it."""
    plan, channels, world = build_world()
    overload = "stimulus LocalHost#0 SEND_REQ at 100 every 100 priority 180 size 70000\n"
    trace, metrics = world.run(parse_scenario(overload), 2000)
    blocked = [r for r in audit.parse_rows(trace.to_text()) if r.detail.endswith(" blocked")]
    assert len(blocked) == 114
    assert {r.event for r in blocked} == {"send"}
    rebuilt_metrics, rebuilt_report = audit.rebuild(trace.to_text(), render_plan(plan, channels))
    assert rebuilt_metrics == metrics.to_text()
    assert rebuilt_report == degradation_report(metrics, plan).to_text(metrics)
    queue = ("mq:LocalHost#0:PeerCI#0:SendData", "LocalHost#0", "PeerCI#0")
    assert metrics.links[queue].sent == 1330  # the auditor would rebuild 1349 with the rows counted


_SIGNALS = (
    "SEND_REQ", "RX_DATA", "DATA_PKT", "ExchangeStatus", "SESSION_UP", "SESSION_DOWN",
    "PEER_MSG", "TAKEOVER", "EQUIP_STATUS", "NOT_A_SIGNAL",
)
_PROCESSES = {
    policy.objective: [n.id for n in build_world(policy=policy)[0].all_nodes()]
    for policy in (MappingPolicy(), _MEM)
}


@st.composite
def _fixture_runs(draw):
    policy = draw(st.sampled_from([MappingPolicy(), _MEM]))
    processes = st.sampled_from(_PROCESSES[policy.objective])
    kills = draw(st.lists(st.tuples(processes, st.integers(0, 2500)), max_size=3))
    stimuli = draw(st.lists(
        st.tuples(
            processes, st.sampled_from(_SIGNALS), st.integers(0, 2500),
            st.sampled_from([0, 1, 7, 100, 300]), st.integers(0, 255), st.integers(0, 3000),
        ),
        min_size=1, max_size=5,
    ))
    lines = [f"fault kill {pid} at {at}" for pid, at in kills]
    lines += [
        f"stimulus {pid} {signal} at {at} every {every} priority {priority} size {size}"
        for pid, signal, at, every, priority, size in stimuli
    ]
    return policy, "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_fixture_runs())
def test_the_trace_rebuilds_metrics_and_report_of_any_fixture_scenario(run):
    policy, text = run
    _audited(*build_world(policy=policy), parse_scenario(text), 2500)


def _failover_trace_lines():
    plan, channels, world = build_world()
    trace, _ = world.run(parse_scenario(failover_scenario()), 2000)
    return trace.to_text().splitlines(keepends=True), render_plan(plan, channels)


def test_the_auditor_refuses_a_row_earlier_than_the_row_before_it():
    lines, plan = _failover_trace_lines()
    audit.rebuild("".join(lines), plan)
    times = [line.split("\t", 1)[0] for line in lines]
    i = next(i for i in range(len(lines) - 1) if times[i] != times[i + 1])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    with pytest.raises(ValueError, match=f"^row {i + 2}: time .* is below "):
        audit.rebuild("".join(lines), plan)


def test_the_auditor_refuses_a_row_from_a_thread_of_a_dead_process():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    k, fault = next((k, r) for k, r in enumerate(rows) if r.event == "fault")
    # the `-` thread may still name it: a stimulus sent to it is dropped
    lines.insert(k + 1, f"{fault.time}\t{fault.process}\t-\tstimulus\tPING dropped\n")
    audit.rebuild("".join(lines), plan)
    lines.insert(k + 2, f"{fault.time}\t{fault.process}\tprocessor\tdiscard\tPING\n")
    refused = f"^row {k + 3}: {re.escape(fault.process)} traces discard on processor after"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(lines), plan)


def test_the_auditor_refuses_a_dispatch_that_opens_or_completes_out_of_turn():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    k, done = next((k, r) for k, r in enumerate(rows) if r.event == "complete")
    renumbered = lines[:k] + [lines[k].replace(" d1\n", " d2\n")] + lines[k + 1:]
    refused = f"^row {k + 1}: {re.escape(done.process)} completes .* d2, which is not open"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(renumbered), plan)
    # without its `complete` row, the process's next dispatch opens while d1 is open
    later = (j for j in range(k + 1, len(rows)) if rows[j].process == done.process)
    j = next(j for j in later if rows[j].event == "dispatch")
    refused = f"^row {j}: {re.escape(done.process)} opens .* d1 is open"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(lines[:k] + lines[k + 1:]), plan)


def test_the_auditor_refuses_a_processor_that_keeps_dispatching_while_a_dispatch_runs(monkeypatch):
    """A dispatch with actions stops the tick after its first millisecond. With
    `_offer` returning False there instead, the processor takes the next
    message while that dispatch is still open, and the trace shows it."""
    offer = SimWorld._offer

    def keep_going(self, proc, msg):
        return offer(self, proc, msg) and not proc.alive  # True still stops the tick after a kill

    monkeypatch.setattr(SimWorld, "_offer", keep_going)
    plan, channels, world = build_world()
    trace, _ = world.run(parse_scenario(degradation_scenario()), 3000, seed=11)
    with pytest.raises(ValueError, match=r"^row \d+: \S+ opens .* is open$"):
        audit.rebuild(trace.to_text(), render_plan(plan, channels))


def test_the_auditor_refuses_a_message_taken_from_an_empty_mailbox():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    j, take = next((j, r) for j, r in enumerate(rows) if r.event in ("dispatch", "defer", "discard"))
    # without the rows that put its messages in, the process takes from an empty mailbox
    posts = ("stimulus", "recv", "sample", "recall", "takeover")
    posted = [k for k in range(j) if rows[k].process == take.process and rows[k].event in posts]
    assert posted
    edited = [line for k, line in enumerate(lines) if k not in posted]
    empty = f"{re.escape(take.process)} traces {take.event} with its mailbox empty"
    refused = f"^row {j + 1 - len(posted)}: {empty}$"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(edited), plan)


def test_the_auditor_refuses_a_queue_read_empty_or_blocked_before_it_is_full():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    k, sent = next((k, r) for k, r in enumerate(rows) if r.detail.endswith(" queued"))
    cid, signal, _ = sent.detail.split()
    j = next(j for j in range(k + 1, len(rows)) if rows[j][3:] == ("recv", f"{cid} {signal}"))
    # without its `queued` row, the message is received from an empty queue
    empty = f"^row {j}: .* receives from {re.escape(cid)}, which is empty$"
    with pytest.raises(ValueError, match=empty):
        audit.rebuild("".join(lines[:k] + lines[k + 1:]), plan)
    # a writer blocked on a queue that holds one message
    blocked = lines[k].replace(" queued\n", " blocked\n")
    early = f"^row {k + 2}: .* is blocked on {re.escape(cid)} holds 1 of \\d+$"
    with pytest.raises(ValueError, match=early):
        audit.rebuild("".join(lines[:k + 1] + [blocked] + lines[k + 1:]), plan)


def test_the_auditor_refuses_a_queue_that_holds_more_than_its_capacity():
    """The engine lets each queue hold one message more than `plan.txt`
    says, as a `>` where `>=` belongs would: the queue rule refuses the
    first message past the planned capacity."""
    plan, channels, world = build_world()
    for ch in world.channels.values():
        if ch.channel.capacity is not None:
            ch.channel = ch.channel._replace(capacity=ch.channel.capacity + 1)
    overload = "stimulus LocalHost#0 SEND_REQ at 100 every 100 priority 180 size 70000\n"
    trace, _ = world.run(parse_scenario(overload), 2000)
    over = r"^row \d+: mq:LocalHost#0:\S+ holds 65, above its capacity 64$"
    with pytest.raises(ValueError, match=over):
        audit.rebuild(trace.to_text(), render_plan(plan, channels))


def test_the_auditor_refuses_a_receive_without_a_receiver_activation():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    j, got = next((j, r) for j, r in enumerate(rows) if r.event in ("recv", "sample"))
    k = max(
        k for k in range(j)
        if rows[k][1:4] == (got.process, "receiver", "activate") and rows[k].time == got.time
    )
    idle = f"{re.escape(got.process)} traces {got.event} with no receiver activation at {got.time}"
    refused = f"^row {j}: {idle}$"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(lines[:k] + lines[k + 1:]), plan)


def test_the_auditor_refuses_two_actions_of_a_dispatch_at_one_time():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    k, act = next((k, r) for k, r in enumerate(rows) if r.event == "action")
    early = f"{re.escape(act.process)} starts an action at {act.time}, no later than the last"
    refused = f"^row {k + 2}: {early}$"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(lines[:k + 1] + [lines[k]] + lines[k + 1:]), plan)


def _one_ms_later(lines, k):
    """Line k of a trace, stamped a millisecond later."""
    time, rest = lines[k].split("\t", 1)
    return f"{int(time) + 1}\t{rest}"


def _last_of_its_ms(rows, event):
    """The index and row of the first `event` row that is the last row of its time."""
    return next((k, r) for k, r in enumerate(rows[:-1]) if r.event == event and rows[k + 1].time > r.time)


def test_the_auditor_refuses_an_action_a_millisecond_late():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    k, act = _last_of_its_ms(rows, "action")
    late = f"{re.escape(act.process)} starts an action at {act.time + 1}, not at {act.time}"
    with pytest.raises(ValueError, match=f"^row {k + 1}: {late}$"):
        audit.rebuild("".join(lines[:k] + [_one_ms_later(lines, k)] + lines[k + 1:]), plan)


def test_the_auditor_refuses_a_complete_one_action_short():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    opened = next(r for r in rows if r.event == "dispatch" and r.detail.endswith(" actions 3"))
    label = opened.detail.split(" actions ")[0]
    j = next(j for j, r in enumerate(rows) if r[1::2] == (opened.process, "complete") and r.detail == label)
    i = max(i for i in range(j) if rows[i][1::2] == (opened.process, "action"))
    short = f"{re.escape(opened.process)} completes {re.escape(label)} after 2 of its 3 actions"
    with pytest.raises(ValueError, match=f"^row {j}: {short}$"):
        audit.rebuild("".join(lines[:i] + lines[i + 1:]), plan)


def test_the_auditor_refuses_a_complete_a_millisecond_after_the_last_action():
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    k, done = _last_of_its_ms(rows, "complete")
    late = f"{re.escape(done.process)} completes {re.escape(done.detail)} at {done.time + 1}, not at {done.time}"
    with pytest.raises(ValueError, match=f"^row {k + 1}: {late}$"):
        audit.rebuild("".join(lines[:k] + [_one_ms_later(lines, k)] + lines[k + 1:]), plan)


def test_the_auditor_refuses_a_processor_that_idles_a_millisecond_between_actions(monkeypatch):
    """An open dispatch wakes its processor at the next millisecond. With
    every such wake a millisecond later, each action after a dispatch's
    first comes late; the trace's counters still agree with the metrics, so
    only the timing rule sees it."""
    wake = SimWorld._wake_processor

    def late(self, proc, when):
        wake(self, proc, when + 1 if proc.active is not None else when)

    monkeypatch.setattr(SimWorld, "_wake_processor", late)
    plan, channels, world = build_world()
    trace, _ = world.run(parse_scenario(degradation_scenario()), 3000, seed=11)
    with pytest.raises(ValueError, match=r"^row \d+: \S+ starts an action at \d+, not at \d+$"):
        audit.rebuild(trace.to_text(), render_plan(plan, channels))


def test_the_auditor_refuses_a_takeover_of_a_live_process():
    """Without their `fault` rows, both hosts live when the standby takes
    them over."""
    lines, plan = _failover_trace_lines()
    rows = audit.parse_rows("".join(lines))
    faults = [k for k, r in enumerate(rows) if r.event == "fault"]
    assert [rows[k].process for k in faults] == ["LocalHost#0", "LocalHost#1"]
    n = next(k for k, r in enumerate(rows) if r.event == "takeover") + 1 - len(faults)
    refused = f"^row {n}: StandbyCI#0 takes over from LocalHost#0, which has no fault row$"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(line for k, line in enumerate(lines) if k not in faults), plan)


def test_the_command_line_checks_simulate_directories(tmp_path, capsys):
    model, scenario = tmp_path / "model.ucm", tmp_path / "failover.scn"
    model.write_text(FIXTURE_MODEL, encoding="utf-8")
    scenario.write_text(failover_scenario(), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--model", str(model), "--scenario", str(scenario),
                 "--horizon", "2000", "--out", str(out)]) == 0
    assert audit.main([str(out)]) == 0
    metrics = out / "metrics.txt"
    text = metrics.read_text(encoding="utf-8")
    metrics.write_text(text.replace("metrics-format: 1", "metrics-format: 2"), encoding="utf-8")
    capsys.readouterr()
    assert audit.main([str(out)]) == 1
    assert "metrics.txt: line " in capsys.readouterr().out


def test_the_auditor_imports_nothing_from_viewcase():
    tree = ast.parse(Path(audit.__file__).read_text(encoding="utf-8"))
    imported = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""])
    ]
    assert imported and not [name for name in imported if name.split(".")[0] == "viewcase"]


def _first_watchdog_activation(lines):
    """The index and row of the trace's first `watchdog` `activate` row."""
    rows = audit.parse_rows("".join(lines))
    return next((k, r) for k, r in enumerate(rows) if r[2:4] == ("watchdog", "activate"))


def test_the_auditor_refuses_a_trip_on_a_process_with_no_work():
    lines, plan = _failover_trace_lines()
    k, woke = _first_watchdog_activation(lines)
    rows = audit.parse_rows("".join(lines))
    assert all(r.process != woke.process or r.event in ("activate", "send") for r in rows[:k])
    trip = f"{woke.time}\t{woke.process}\twatchdog\ttrip\tno progress for {woke.time}\n"
    refused = f"^row {k + 2}: {re.escape(woke.process)} trips with no work$"
    with pytest.raises(ValueError, match=refused):
        audit.rebuild("".join(lines[:k + 1] + [trip] + lines[k + 1:]), plan)


def test_the_auditor_refuses_a_trip_within_three_watchdog_periods():
    lines, plan = _failover_trace_lines()
    k, woke = _first_watchdog_activation(lines)
    # a message posted just before the activation gives the process work
    post = f"{woke.time}\t{woke.process}\t-\tstimulus\tPING size 1\n"
    trip = f"{woke.time}\t{woke.process}\twatchdog\ttrip\tno progress for 0\n"
    early = f"{re.escape(woke.process)} trips 0 ms after its last progress, within 3 x the period 100"
    with pytest.raises(ValueError, match=f"^row {k + 3}: {early}$"):
        audit.rebuild("".join(lines[:k] + [post, lines[k], trip] + lines[k + 1:]), plan)


def test_the_watchdog_trips_exactly_when_the_auditor_says_it_is_due():
    """The pinned run with 1 ms receiver and watchdog periods traces 8 trips,
    the first at 158; each one checks out, and a trip left out or misdated
    is refused."""
    build, text, horizon, seed = _PINNED_RUNS["shared receiver and watchdog sweep"]
    plan, channels, world = build()
    trace, metrics = world.run(parse_scenario(text), horizon, seed=seed)
    lines, plan_text = trace.to_text().splitlines(keepends=True), render_plan(plan, channels)
    audit.rebuild("".join(lines), plan_text)
    rows = audit.parse_rows("".join(lines))
    trips = [k for k, r in enumerate(rows) if r.event == "trip"]
    assert len(trips) == sum(p.watchdog_trips for p in metrics.processes.values()) == 8
    k = trips[0]
    tripped = rows[k]
    assert tripped.time == 158 and rows[k - 1][1:4] == (tripped.process, "watchdog", "activate")
    # without its trip row, the process goes on with work and no progress
    due = f"{re.escape(tripped.process)} has work and no progress for 3 periods, yet does not trip"
    with pytest.raises(ValueError, match=f"^row {k + 1}: {due}$"):
        audit.rebuild("".join(lines[:k] + lines[k + 1:]), plan_text)
    # a trip that misstates the time since the last progress
    idle = int(tripped.detail.split()[-1])
    misdated = lines[k].replace(f"for {idle}\n", f"for {idle + 1}\n")
    wrong = f"{re.escape(tripped.process)} trips with 'no progress for {idle + 1}', {idle} ms after"
    with pytest.raises(ValueError, match=f"^row {k + 1}: {wrong}"):
        audit.rebuild("".join(lines[:k] + [misdated] + lines[k + 1:]), plan_text)
