"""Deterministic runtime simulation: scheduling, channels, watchdog, verdicts."""

import dataclasses
import heapq
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audit import Row, parse_rows, rows_of
from test_fixture import world_under
from viewcase.engine import (
    FailoverConfig,
    FailoverRecord,
    FaultSpec,
    LinkStats,
    Metrics,
    MessageQueueRt,
    MissingBehavior,
    ProcessStats,
    Scenario,
    ScenarioError,
    SharedSegmentRt,
    SimConfig,
    StimulusSpec,
    degradation_report,
    instantiate,
    parse_scenario,
)
from viewcase.fixture import build_behaviors, build_world, degradation_scenario, failover_scenario
from viewcase.ipc import ChannelKind, IpcChannel, assign_ipc, dependency_graph
from viewcase.model import FlowClass, parse_model
from viewcase.partition import MappingPolicy, Objective, build_plan
from viewcase.statechart import Action, ActorMessage, MachineBuilder

ASYNC_MODEL = """\
actor A multiplicity 1
actor B multiplicity 1
usecase U "Produce" codesize 100
usecase V "Consume" codesize 100
trigger A -> U
trigger B -> V
flow U -> B async size 32
"""

PERIODIC_MODEL = ASYNC_MODEL.replace("async size 32", "periodic 100 size 16")


def _producer_machine():
    b = MachineBuilder()
    b.state("Top", initial="Idle")
    b.state("Idle", parent="Top")
    b.transition(
        "Idle", "POKE", "Idle",
        actions=[Action("emit", lambda ctx: ctx.emit("U", ActorMessage("DATA", ctx.msg.body)))],
    )
    b.transition("Idle", "HIGH", "Idle", actions=[Action("h")])
    b.transition("Idle", "LOW", "Idle", actions=[Action("l")])
    b.transition("Idle", "STALL", "Idle", actions=[Action("hang")] * 1000)
    return b.build()


def _consumer_machine(signals=("DATA",)):
    b = MachineBuilder()
    b.state("Top", initial="Idle")
    b.state("Idle", parent="Top")
    for sig in signals:
        b.transition(
            "Idle", sig, "Idle",
            actions=[Action("note", lambda ctx: ctx.vars.__setitem__("seen", ctx.vars.get("seen", 0) + 1))],
        )
    return b.build()


def _plan(model_text=ASYNC_MODEL):
    return build_plan(parse_model(model_text), MappingPolicy(Objective.FAULT_TOLERANCE))


def _world(model_text=ASYNC_MODEL, consumer_signals=("DATA",), config=None):
    model = parse_model(model_text)
    plan = build_plan(model, MappingPolicy(Objective.FAULT_TOLERANCE))
    channels = assign_ipc(dependency_graph(plan, model))
    behaviors = {
        "A#0": {"U": _producer_machine()},
        "B#0": {"V": _consumer_machine(consumer_signals)},
    }
    return instantiate(plan, channels, behaviors, config=config), channels


# --- scenario grammar ----------------------------------------------------------


def test_parse_scenario_faults_and_stimuli():
    s = parse_scenario(
        "# a comment line\n"
        "fault kill LocalHost#0 at 1000\n"
        "stimulus PeerCI#3 RX_DATA at 120 every 300 priority 200 size 700  # trailing\n"
        "\n"
        "stimulus A#0 POKE at 5 every 0 priority 10 size 8\n"
    )
    assert s.faults == (FaultSpec("LocalHost#0", 1000),)
    assert s.stimuli == (
        StimulusSpec("PeerCI#3", "RX_DATA", 120, 300, 200, 700),
        StimulusSpec("A#0", "POKE", 5, 0, 10, 8),
    )


def test_parse_scenario_hash_in_process_id_is_not_a_comment():
    s = parse_scenario("fault kill B#0 at 42\n")
    assert s.faults[0].process == "B#0"


@pytest.mark.parametrize(
    "text,line",
    [
        ("fault stop A at 10", 1),
        ("fault kill A on 10", 1),
        ("stimulus A X at 1 priority 2 size 3", 1),
        ("fault kill A at ten", 1),
        ("fault kill A at 1\nnonsense", 2),
        ("fault kill PeerCI#0 at -7", 1),
        ("stimulus A X at 1 every -3 priority 2 size 3", 1),
        ("fault kill A at 1\nstimulus A X at 1 every 0 priority 2 size -1", 2),
        ("# repeat?\nfault kill PeerCI#3 at 5000 every 100", 2),
    ],
)
def test_parse_scenario_errors_carry_line_numbers(text, line):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.line == line


# --- trace format ----------------------------------------------------------------


def test_trace_is_five_field_tsv():
    world, _ = _world()
    trace, _ = world.run(parse_scenario("stimulus A#0 POKE at 10 every 100 priority 5 size 4"), 500)
    text = trace.to_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 5
        assert fields[0].isdigit()
    times = [int(line.split("\t")[0]) for line in lines]
    assert times == sorted(times)


def test_a_row_traced_outside_run_carries_the_worlds_clock():
    queue, msg = "mq:A#0:B#0:U", ActorMessage("DATA", b"x", 5)
    world, _ = _world()
    world.channel_send(queue, msg)
    assert [line.split("\t", 1)[0] for line in world._lines] == ["0"]

    world, _ = _world()
    world.run(parse_scenario("stimulus A#0 POKE at 10 every 100 priority 5 size 4"), 500)
    assert world.now > 0
    world.channel_send(queue, msg)
    assert world._lines[-1].startswith(f"{world.now}\t")


def test_rows_of_filters_event_and_process():
    world, _ = _world()
    trace, _ = world.run(parse_scenario("stimulus A#0 POKE at 10 every 0 priority 5 size 4"), 300)
    stim = rows_of(trace, "stimulus")
    assert len(stim) == 1 and stim[0].process == "A#0"
    assert rows_of(trace, "stimulus", "B#0") == []


def test_rows_parse_back_to_the_traced_fields():
    world, _ = _world()
    traced = []
    trace_row = world.trace

    def record(*fields):
        traced.append((world.now, *fields))
        trace_row(*fields)

    world.trace = record
    trace, _ = world.run(
        parse_scenario(
            "stimulus A#0 POKE at 10 every 100 priority 5 size 4\n"
            "stimulus B#0 DATA at 20 every 0 priority 5 size 4\n"
        ),
        500,
    )
    rows = parse_rows(trace.to_text())
    assert rows == [Row(*fields) for fields in traced]
    details = {r.detail for r in rows}
    assert "" in details and "POKE size 4" in details  # empty details and inner spaces
    assert trace.to_text() == trace.text


def test_world_keeps_no_trace_lines_after_run():
    world, _ = _world()
    trace, _ = world.run(parse_scenario("stimulus A#0 POKE at 10 every 100 priority 5 size 4"), 500)
    assert trace.rows
    assert world._lines == []


def test_sink_receives_each_line_and_the_run_returns_an_empty_trace():
    scenario = parse_scenario("stimulus A#0 POKE at 10 every 100 priority 5 size 4")
    collected, _ = _world()[0].run(scenario, 500)
    lines = []
    world, _ = _world()
    streamed, metrics = world.run(scenario, 500, sink=lines.append)
    assert "".join(lines) == collected.to_text()
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    assert streamed.text == "" and streamed.rows == []
    assert world._lines == [] and metrics.processes["B#0"].dispatches > 0


@pytest.mark.parametrize("horizon", [10000, 40000])
def test_file_sink_run_memory_does_not_grow_with_the_horizon(tmp_path, horizon):
    """A collecting run of the same scenario peaks at 5.7 MB at 10k and 22.7 MB at 40k."""
    _, _, world = build_world()
    scenario = parse_scenario(degradation_scenario(kill=None))
    with (tmp_path / "trace.tsv").open("w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            world.run(scenario, horizon, sink=sink.write)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000


# --- thread scheduling ------------------------------------------------------------


def test_receiver_activations_follow_configured_period():
    cfg = SimConfig(receiver_period=100)
    world, _ = _world(config=cfg)
    trace, _ = world.run(Scenario(), 1000)
    activations = [
        r for r in rows_of(trace, "activate", "B#0") if r.thread == "receiver"
    ]
    assert [r.time for r in activations] == [100 * k for k in range(1, 11)]


def test_every_thread_role_follows_its_configured_period():
    cfg = SimConfig(watchdog_period=100, receiver_period=30, transmitter_period=70)
    world, _ = _world(config=cfg)
    trace, _ = world.run(
        parse_scenario("stimulus A#0 STALL at 100 every 0 priority 5 size 1"), 1000
    )
    for role, period in (("watchdog", 100), ("receiver", 30), ("transmitter", 70)):
        times = [r.time for r in rows_of(trace, "activate", "B#0") if r.thread == role]
        assert times == list(range(period, 1001, period)), role
    # the stalled producer trips on its fourth watchdog activation
    trips = rows_of(trace, "trip", "A#0")
    assert [(r.time, r.detail) for r in trips] == [(400, "no progress for 300")]


_FIXTURE_PROCESSES = [
    "Operator#0", "LocalHost#0", "LocalHost#1", "StandbyCI#0", "CommEquipment#*",
    *(f"PeerCI#{k}" for k in range(6)),
]


@settings(max_examples=20, deadline=None)
@given(
    failover=st.booleans(),
    victim=st.sampled_from(_FIXTURE_PROCESSES),
    kill_at=st.integers(0, 1500),
    periods=st.tuples(*[st.integers(1, 60)] * 3),
    horizon=st.integers(100, 1500),
)
def test_events_run_in_time_then_scheduling_order(failover, victim, kill_at, periods, horizon):
    """Each event records (time, n) as it runs, n counting `_schedule` calls:
    times never go back, and events due at one time run in the order they
    were scheduled, including those scheduled while that time runs."""
    _, _, world = world_under(SimConfig(*periods))
    ran: list[tuple[int, int]] = []
    calls = itertools.count()
    schedule = world._schedule

    def recording(time, handler, *args):
        n = next(calls)

        def run(*handler_args):
            ran.append((world.now, n))
            handler(*handler_args)

        schedule(time, run, *args)

    world._schedule = recording
    text = (
        failover_scenario(kill_at=kill_at) if failover
        else degradation_scenario(kill=victim, kill_at=kill_at)
    )
    world.run(parse_scenario(text), horizon)
    assert ran and ran == sorted(ran)


def _per_process_activations(world):
    """Give each process its own watchdog, receiver and transmitter events,
    each rescheduling itself while its process lives, instead of one sweep
    per period: the reference the sweeps must match byte for byte."""
    schedule = world._schedule

    def activate(proc, role, run, period):
        if proc.alive:
            world.trace(proc.id, role, "activate", "")
            run(proc)
            if proc.alive:
                schedule(world.now + period, activate, proc, role, run, period)

    def split_sweeps(time, handler, *args):
        if handler != world._on_sweep:
            schedule(time, handler, *args)
            return
        period, threads = args
        for proc in world.processes.values():
            for role, run in threads:
                schedule(time, activate, proc, role, run, period)

    world._schedule = split_sweeps


# a pool of one to three periods, each thread drawing from it: equal pairs
# and triples are common, three distinct periods still occur
_THREAD_PERIODS = st.lists(st.integers(1, 60), min_size=1, max_size=3).flatmap(
    lambda pool: st.tuples(*[st.sampled_from(pool)] * 3)
)


@settings(max_examples=20, deadline=None)
@given(
    failover=st.booleans(),
    victim=st.sampled_from(_FIXTURE_PROCESSES),
    kill_at=st.integers(0, 1500),
    periods=_THREAD_PERIODS,
    horizon=st.integers(100, 1500),
    seed=st.integers(0, 3),
)
def test_sweeps_match_per_process_activations(failover, victim, kill_at, periods, horizon, seed):
    text = (
        failover_scenario(kill_at=kill_at) if failover
        else degradation_scenario(kill=victim, kill_at=kill_at)
    )
    artifacts = []
    for per_process in (False, True):
        _, _, world = world_under(SimConfig(*periods))
        if per_process:
            _per_process_activations(world)
        trace, metrics = world.run(parse_scenario(text), horizon, seed=seed)
        artifacts.append((trace.to_text(), metrics.to_text()))
    assert artifacts[0] == artifacts[1]


def test_a_trip_inside_a_shared_sweep_stops_only_the_tripped_process():
    """Receiver and watchdog share a 1 ms sweep: the tripped process is
    skipped from its trip on, the processes after it still activate then."""
    _, _, world = world_under(SimConfig(1, 50, 1))
    trace, _ = world.run(parse_scenario(degradation_scenario(kill=None)), 200)
    first = rows_of(trace, "trip")[0]
    assert (first.time, first.process) == (158, "LocalHost#1")

    def receiver_times(pid):
        return [r.time for r in rows_of(trace, "activate", pid) if r.thread == "receiver"]

    assert receiver_times("LocalHost#1")[-1] == 157
    order = list(world.processes)
    later = order[order.index("LocalHost#1") + 1:]
    assert later
    for pid in later:
        assert 158 in receiver_times(pid), pid


@pytest.mark.parametrize("period", [0, -1])
@pytest.mark.parametrize("name", ["receiver_period", "transmitter_period", "watchdog_period"])
def test_sim_config_rejects_periods_below_one(name, period):
    with pytest.raises(ValueError, match=name):
        SimConfig(**{name: period})


@pytest.mark.parametrize("period", [0, -1])
def test_failover_config_rejects_a_scan_period_below_one(period):
    with pytest.raises(ValueError, match="scan_period"):
        FailoverConfig(scan_period=period, scan_fn=lambda world: None)


def test_deterministic_same_seed_same_bytes():
    runs = []
    for _ in range(2):
        world, _ = _world()
        trace, metrics = world.run(
            parse_scenario("stimulus A#0 POKE at 10 every 70 priority 5 size 64"), 2000, seed=7
        )
        runs.append((trace.to_text(), metrics.to_text()))
    assert runs[0] == runs[1]


# --- watchdog ------------------------------------------------------------------------


def test_watchdog_trips_on_stalled_dispatch():
    world, _ = _world()
    trace, metrics = world.run(
        parse_scenario("stimulus A#0 STALL at 100 every 0 priority 5 size 1"), 1000
    )
    trips = rows_of(trace, "trip", "A#0")
    assert len(trips) == 1
    assert trips[0].time == 400  # stalled since 100, timeout 300
    assert metrics.processes["A#0"].watchdog_trips == 1
    assert (400, "A#0", "watchdog") in metrics.faults
    # the killed process does nothing afterwards
    rows = parse_rows(trace.to_text())
    assert all(r.time <= 400 for r in rows if r.process == "A#0" and r.event != "stimulus")


def test_healthy_steady_traffic_never_trips():
    world, _ = _world()
    trace, metrics = world.run(
        parse_scenario("stimulus A#0 POKE at 10 every 50 priority 5 size 8"), 3000
    )
    assert rows_of(trace, "trip") == []
    assert metrics.processes["A#0"].watchdog_trips == 0


# --- mailbox and dispatch order ---------------------------------------------------------


def test_higher_priority_dispatched_first():
    world, _ = _world()
    scenario = parse_scenario(
        "stimulus A#0 LOW at 100 every 0 priority 10 size 1\n"
        "stimulus A#0 HIGH at 100 every 0 priority 200 size 1\n"
    )
    trace, _ = world.run(scenario, 300)
    order = [r.detail.split("/")[1].split(" ")[0] for r in rows_of(trace, "dispatch", "A#0")]
    assert order == ["HIGH", "LOW"]


def test_recalled_messages_precede_normal_arrivals_at_equal_priority():
    world, _ = _world()
    proc = world.processes["A#0"]
    world.post_mailbox("A#0", ActorMessage("LOW", b"n", 5))
    world.post_mailbox("A#0", ActorMessage("HIGH", b"r", 5), recalled=True)
    first = heapq.heappop(proc.mailbox)
    second = heapq.heappop(proc.mailbox)
    assert first.msg.body == b"r"  # recall lane wins the tie
    assert second.msg.body == b"n"


def test_fifo_within_equal_priority():
    world, _ = _world()
    proc = world.processes["A#0"]
    for body in (b"1", b"2", b"3"):
        world.post_mailbox("A#0", ActorMessage("LOW", body, 5))
    drained = [heapq.heappop(proc.mailbox).msg.body for _ in range(3)]
    assert drained == [b"1", b"2", b"3"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=25))
def test_mailbox_drains_by_priority_then_recall_lane_then_arrival(posts):
    world, _ = _world()
    proc = world.processes["A#0"]
    for i, (priority, recalled) in enumerate(posts):
        world.post_mailbox("A#0", ActorMessage("LOW", str(i).encode(), priority), recalled=recalled)
    drained = []
    while proc.mailbox:
        drained.append(int(heapq.heappop(proc.mailbox).msg.body))
    expected = sorted(range(len(posts)), key=lambda i: (-posts[i][0], not posts[i][1], i))
    assert drained == expected


def test_signal_deferred_by_a_later_machine_is_deferred_then_recalled():
    gate = MachineBuilder()
    gate.state("Top", initial="Wait")
    gate.state("Wait", parent="Top", defer=("X",))
    gate.state("Open", parent="Top")
    gate.transition("Wait", "GO", "Open")
    gate.transition("Open", "X", "Open", actions=[Action("take")])
    model = parse_model(ASYNC_MODEL)
    plan = build_plan(model, MappingPolicy(Objective.FAULT_TOLERANCE))
    channels = assign_ipc(dependency_graph(plan, model))
    behaviors = {
        "A#0": {"U": _producer_machine()},
        "B#0": {"V": _consumer_machine(), "W": gate.build()},  # only W defers X
    }
    world = instantiate(plan, channels, behaviors)
    trace, metrics = world.run(
        parse_scenario(
            "stimulus B#0 X at 100 every 0 priority 5 size 1\n"
            "stimulus B#0 GO at 200 every 0 priority 5 size 1\n"
        ),
        500,
    )
    assert [(r.time, r.detail) for r in rows_of(trace, "defer", "B#0")] == [(100, "W/X")]
    stats = metrics.processes["B#0"]
    assert (stats.deferrals, stats.discards) == (1, 0)
    # GO moves the gate out of Wait, which recalls X into the same tick
    assert [(r.time, r.detail) for r in rows_of(trace, "recall", "B#0")] == [(200, "X")]
    dispatched = [(r.time, r.detail) for r in rows_of(trace, "dispatch", "B#0")]
    assert dispatched == [(200, "W/GO d1 actions 0"), (200, "W/X d2 actions 1")]
    assert world.processes["B#0"].machines["W"].current == "Open"


def test_recall_after_a_timed_dispatch_runs_a_ms_after_its_tick():
    gate = MachineBuilder()
    gate.state("Top", initial="Wait")
    gate.state("Wait", parent="Top", defer=("X",))
    gate.state("Open", parent="Top")
    gate.transition("Wait", "GO", "Open", actions=[Action("open")])
    gate.transition("Open", "X", "Open", actions=[Action("take")])
    model = parse_model(ASYNC_MODEL)
    plan = build_plan(model, MappingPolicy(Objective.FAULT_TOLERANCE))
    channels = assign_ipc(dependency_graph(plan, model))
    world = instantiate(plan, channels, {"A#0": {"U": _producer_machine()}, "B#0": {"W": gate.build()}})
    trace, _ = world.run(
        parse_scenario(
            "stimulus B#0 X at 100 every 0 priority 5 size 1\n"
            "stimulus B#0 GO at 200 every 0 priority 5 size 1\n"
        ),
        500,
    )
    rows = [
        (r.time, r.event, r.detail)
        for r in parse_rows(trace.to_text())
        if r.process == "B#0" and r.thread == "processor"
    ]
    assert rows == [
        (100, "defer", "W/X"),
        (200, "dispatch", "W/GO d1 actions 1"),
        (200, "action", "W/GO/open d1"),
        (200, "recall", "X"),
        (200, "complete", "W/GO d1"),
        (201, "dispatch", "W/X d2 actions 1"),
        (201, "action", "W/X/take d2"),
        (201, "complete", "W/X d2"),
    ]


def test_zero_cost_outcomes_take_no_time_however_many():
    """300 one-shot stimuli that no chart handles, all due at once, are all
    discarded in the tick that takes the first."""
    _, _, world = build_world()
    flood = "stimulus Operator#0 NOT_A_SIGNAL at 100 every 0 priority 90 size 1\n" * 300
    trace, metrics = world.run(parse_scenario(flood), 300)
    assert [r.time for r in rows_of(trace, "discard")] == [100] * 300
    assert metrics.processes["Operator#0"].discards == 300


_ACTION_COUNTS = st.integers(0, 3)


@settings(max_examples=100, deadline=None)
@given(first=_ACTION_COUNTS, second=_ACTION_COUNTS)
def test_processor_rows_follow_the_action_counts(first, second):
    """Action k of a dispatch that starts at t0 runs at t0 + k and the
    dispatch completes with its last action; the next message dispatches a
    ms later, or in the same tick when the dispatch had no actions.
    `_spend_ms` spends every millisecond of a dispatch, the first included."""
    b = MachineBuilder()
    b.state("Top", initial="Idle")
    b.state("Idle", parent="Top")
    for signal, count in (("M1", first), ("M2", second)):
        b.transition("Idle", signal, "Idle", [Action(f"a{i}") for i in range(count)])
    model = parse_model(ASYNC_MODEL)
    plan = build_plan(model, MappingPolicy(Objective.FAULT_TOLERANCE))
    channels = assign_ipc(dependency_graph(plan, model))
    world = instantiate(plan, channels, {"A#0": {"U": _producer_machine()}, "B#0": {"W": b.build()}})
    spent, spend_ms = [], world._spend_ms
    world._spend_ms = lambda proc, *dispatch: (spent.append(world.now), spend_ms(proc, *dispatch))
    trace, _ = world.run(
        parse_scenario(
            "stimulus B#0 M2 at 100 every 0 priority 5 size 1\n"
            "stimulus B#0 M1 at 100 every 0 priority 9 size 1\n"
        ),
        300,
    )
    expected, later_ms = [], []
    t = 100
    for n, (signal, count) in enumerate((("M1", first), ("M2", second)), start=1):
        expected.append((t, "dispatch", f"W/{signal} d{n} actions {count}"))
        if count == 0:
            expected.append((t, "complete", f"W/{signal} d{n}"))
            continue
        expected.extend((t + k, "action", f"W/{signal}/a{k} d{n}") for k in range(count))
        expected.append((t + count - 1, "complete", f"W/{signal} d{n}"))
        later_ms.extend(range(t, t + count))
        t += count
    rows = [
        (r.time, r.event, r.detail)
        for r in parse_rows(trace.to_text())
        if r.process == "B#0" and r.thread == "processor"
    ]
    assert rows == expected
    assert spent == later_ms


def test_guards_run_once_per_fired_dispatch_and_actions_see_tick_time():
    guard_calls = []
    action_times = []

    def counting_guard(msg, variables):
        guard_calls.append(msg.signal)
        return True

    b = MachineBuilder()
    b.state("Top", initial="Idle")
    b.state("Idle", parent="Top")
    b.transition(
        "Idle", "DATA", "Idle",
        actions=[Action("clock", lambda ctx: action_times.append(ctx.now))],
        guard=counting_guard,
    )
    model = parse_model(ASYNC_MODEL)
    plan = build_plan(model, MappingPolicy(Objective.FAULT_TOLERANCE))
    channels = assign_ipc(dependency_graph(plan, model))
    world = instantiate(plan, channels, {"A#0": {"U": _producer_machine()}, "B#0": {"V": b.build()}})
    trace, metrics = world.run(parse_scenario("stimulus A#0 POKE at 10 every 100 priority 5 size 8"), 1000)
    fired = metrics.processes["B#0"].dispatches
    assert fired > 0
    assert len(guard_calls) == fired
    assert action_times == [r.time for r in rows_of(trace, "dispatch", "B#0")]


# --- channels ----------------------------------------------------------------------------


def test_message_queue_delivery_end_to_end():
    world, channels = _world()
    scenario = parse_scenario("stimulus A#0 POKE at 10 every 100 priority 5 size 16")
    trace, metrics = world.run(scenario, 1000)
    cid = "mq:A#0:B#0:U"
    assert any(c.id == cid for c in channels)
    stats = metrics.links[(cid, "A#0", "B#0")]
    assert stats.sent == stats.delivered > 0
    assert len(rows_of(trace, "recv", "B#0")) == stats.delivered
    # consumer dispatched what it received
    assert metrics.processes["B#0"].dispatches >= stats.delivered


def test_queue_blocks_writer_when_full():
    world, channels = _world()
    cid = "mq:A#0:B#0:U"
    ch = world.channels[cid]
    assert isinstance(ch, MessageQueueRt)
    ch.channel = ch.channel._replace(capacity=2)
    proc = world.processes["A#0"]
    proc.outbound = [(cid, ActorMessage("DATA", bytes([i]), 5)) for i in range(4)]
    world._transmitter_pass(proc)
    assert [m.body for _, m in proc.outbound] == [b"\x02", b"\x03"]  # head-of-line keeps order
    assert [m.body for m in ch.items] == [b"\x00", b"\x01"]
    # drain the queue, retry forwards the rest
    world._receiver_pass(world.processes["B#0"])
    world._transmitter_pass(proc)
    assert proc.outbound == []
    assert [m.body for m in ch.items] == [b"\x02", b"\x03"]


def test_a_blocked_send_records_no_link():
    """A blocked send's row counts nothing, so it adds no link either: not
    even the standby's link onto a queue it just took over while full."""
    _, _, world = build_world()
    queue = "mq:LocalHost#0:PeerCI#0:SendData"
    for k in range(64):
        assert world.channel_send(queue, ActorMessage("DATA_PKT", bytes([k]), 200))
    world.rebind_endpoints("LocalHost#0", "StandbyCI#0")
    before = {key: dataclasses.replace(s) for key, s in world.metrics.links.items()}
    assert not world.channel_send(queue, ActorMessage("DATA_PKT", b"x", 200))
    assert world.metrics.links == before


def test_a_full_queue_traces_one_blocked_row_per_channel_per_pass():
    """A send onto a full queue traces `send <ch> <sig> blocked` and records
    no link; a transmitter pass stops at a blocked channel's first message,
    so two messages held for it trace one row, not two."""
    world, _ = _world()
    cid = "mq:A#0:B#0:U"
    ch = world.channels[cid]
    assert isinstance(ch, MessageQueueRt)
    ch.channel = ch.channel._replace(capacity=1)
    assert world.channel_send(cid, ActorMessage("DATA", b"\x00", 5))
    before = {key: dataclasses.replace(s) for key, s in world.metrics.links.items()}
    world._lines.clear()
    assert not world.channel_send(cid, ActorMessage("DATA", b"\x01", 5))
    assert world._lines == [f"0\tA#0\ttransmitter\tsend\t{cid} DATA blocked\n"]
    assert world.metrics.links == before

    world._lines.clear()
    proc = world.processes["A#0"]
    proc.outbound = [(cid, ActorMessage("DATA", bytes([i]), 5)) for i in (2, 3)]
    world._transmitter_pass(proc)
    assert [m.body for _, m in proc.outbound] == [b"\x02", b"\x03"]
    assert [line.split("\t")[3:] for line in world._lines] == [["send", f"{cid} DATA blocked\n"]]
    assert world.metrics.links == before


@pytest.mark.parametrize("capacity", [None, 0])
def test_a_queue_without_room_is_refused_when_the_world_is_built(capacity):
    world, channels = _world()
    channels = [
        c._replace(capacity=capacity) if c.kind is ChannelKind.MESSAGE_QUEUE else c
        for c in channels
    ]
    behaviors = {"A#0": {"U": _producer_machine()}, "B#0": {"V": _consumer_machine()}}
    with pytest.raises(ValueError, match=f"mq:A#0:B#0:U needs a capacity of at least 1, got {capacity}$"):
        instantiate(_plan(), channels, behaviors)


def test_send_to_dead_reader_counts_sent_only():
    world, _ = _world()
    scenario = parse_scenario(
        "stimulus A#0 POKE at 10 every 100 priority 5 size 16\nfault kill B#0 at 500"
    )
    trace, metrics = world.run(scenario, 1500)
    stats = metrics.links[("mq:A#0:B#0:U", "A#0", "B#0")]
    assert stats.sent > stats.delivered > 0
    undeliverable = [r for r in rows_of(trace, "send") if "undeliverable" in r.detail]
    assert len(undeliverable) == stats.sent - stats.delivered


def test_shared_segment_keeps_only_latest_write():
    world, _ = _world(PERIODIC_MODEL, consumer_signals=("U",))
    cid = "shm:A#0:U"
    ch = world.channels[cid]
    world.channel_send(cid, ActorMessage("U", b"old", 0))
    world.channel_send(cid, ActorMessage("U", b"new", 0))
    assert ch.slot.body == b"new"
    assert ch.version == 2
    stats = world.metrics.links[(cid, "A#0", "B#0")]
    assert stats.sent == 2  # per-reader accounting on every write


def test_periodic_segment_written_by_transmitter_without_stimuli():
    world, _ = _world(PERIODIC_MODEL, consumer_signals=("U",))
    trace, metrics = world.run(Scenario(), 1000)
    sends = rows_of(trace, "send", "A#0")
    assert sends and all("shm:A#0:U" in r.detail for r in sends)
    # period 100 over 1000 ms -> about ten refreshes, one per period
    assert 9 <= len(sends) <= 11
    samples = rows_of(trace, "sample", "B#0")
    assert samples
    assert metrics.processes["B#0"].dispatches > 0


def _assert_endpoint_index_matches_channels(world):
    """Each process's write list, and its drain and beat lists, equal a
    brute-force filter in channel order: a receiver drains its queues and
    the segments the scan does not own, a transmitter beats the periodic
    segments it writes."""
    owned = world.failover.owned if world.failover is not None else frozenset()
    for pid in world.processes:
        reads = [ch for ch in world.channels.values() if pid in ch.readers]
        writes = [ch for ch in world.channels.values() if ch.writer == pid]
        drains = [
            ch for ch in reads
            if isinstance(ch, MessageQueueRt) or ch.channel.id not in owned
        ]
        beats = [
            ch for ch in writes
            if isinstance(ch, SharedSegmentRt) and ch.channel.period_ms is not None
        ]
        assert [id(ch) for ch in world.writes[pid]] == [id(ch) for ch in writes], pid
        assert [id(ch) for ch in world.drains[pid]] == [id(ch) for ch in drains], pid
        assert [id(ch) for ch in world.beats[pid]] == [id(ch) for ch in beats], pid


def test_drain_and_beat_lists_leave_out_owned_and_aperiodic_channels():
    """A receiver skips an owned segment, a transmitter an aperiodic one
    (`assign_ipc` gives an async edge with two or more consumers one)."""
    plan = build_plan(parse_model(ASYNC_MODEL), MappingPolicy(Objective.FAULT_TOLERANCE))
    segment = dict(kind=ChannelKind.SHARED_SEGMENT, writer="A#0", readers=("B#0",), source="U", message_size=8)
    channels = [
        IpcChannel("shm:A#0:U", klass=FlowClass.PERIODIC, period_ms=100, **segment),
        IpcChannel("shm:A#0:U:V", klass=FlowClass.ASYNC, **segment),
        IpcChannel("shm:A#0:U:health", klass=FlowClass.PERIODIC, period_ms=100, **segment),
        IpcChannel(
            "mq:A#0:B#0:U", ChannelKind.MESSAGE_QUEUE, "A#0", ("B#0",), FlowClass.ASYNC, "U", 8, capacity=4,
        ),
    ]
    failover = FailoverConfig(scan_period=100, scan_fn=lambda world: None, owned=frozenset({"shm:A#0:U:health"}))
    behaviors = {"A#0": {"U": _producer_machine()}, "B#0": {"V": _consumer_machine()}}
    world = instantiate(plan, channels, behaviors, failover=failover)
    _assert_endpoint_index_matches_channels(world)
    assert [ch.channel.id for ch in world.drains["B#0"]] == ["shm:A#0:U", "shm:A#0:U:V", "mq:A#0:B#0:U"]
    assert [ch.channel.id for ch in world.beats["A#0"]] == ["shm:A#0:U", "shm:A#0:U:health"]


def test_endpoint_index_follows_rebinding():
    _, _, world = build_world()
    _assert_endpoint_index_matches_channels(world)
    rebound = world.rebind_endpoints("LocalHost#0", "StandbyCI#0")
    _assert_endpoint_index_matches_channels(world)
    world.rebind_endpoints("LocalHost#1", "StandbyCI#0")
    _assert_endpoint_index_matches_channels(world)
    # the dead host keeps only its scan-only health segment
    assert not [ch for ch in world.channels.values() if "LocalHost#0" in ch.readers]
    assert [ch.channel.id for ch in world.writes["LocalHost#0"]] == ["shm:LocalHost#0:ReportHealth"]

    segment = "shm:Operator#0:ExchangeStatus"
    queue = "mq:PeerCI#0:LocalHost#0:ReceiveData"
    assert {segment, queue} <= set(rebound)
    world.channel_send(segment, ActorMessage("ExchangeStatus", b"s", 0))
    world.channel_send(queue, ActorMessage("DATA_PKT", b"q", 200))
    world._receiver_pass(world.processes["StandbyCI#0"])
    received = {
        (r.event, r.detail.split()[0])
        for r in parse_rows("".join(world._lines))
        if r.process == "StandbyCI#0" and r.thread == "receiver"
    }
    assert received == {("sample", segment), ("recv", queue)}


def _hand_built(readers, kind=ChannelKind.SHARED_SEGMENT):
    """ASYNC_MODEL's plan with one hand-built channel from A#0 to `readers`."""
    plan = build_plan(parse_model(ASYNC_MODEL), MappingPolicy(Objective.FAULT_TOLERANCE))
    channel = IpcChannel("x:A#0", kind, "A#0", tuple(readers), FlowClass.ASYNC, "U", 8, capacity=4)
    behaviors = {"A#0": {"U": _producer_machine()}, "B#0": {"V": _consumer_machine()}}
    return lambda: instantiate(plan, [channel], behaviors)


@pytest.mark.parametrize(
    "kind, readers",
    [
        (ChannelKind.MESSAGE_QUEUE, ("B#0", "B#0")),
        (ChannelKind.SHARED_SEGMENT, ("B#0", "B#0")),
        (ChannelKind.SHARED_SEGMENT, ("B#0", "A#0", "B#0")),
    ],
)
def test_a_channel_naming_a_reader_twice_is_refused_when_the_world_is_built(kind, readers):
    with pytest.raises(ValueError, match="^channel x:A#0 names 'B#0' twice$"):
        _hand_built(readers, kind)()


@pytest.mark.parametrize("readers", [(), ("B#0", "A#0")])
def test_a_queue_without_exactly_one_reader_is_refused_when_the_world_is_built(readers):
    with pytest.raises(ValueError, match=f"^message queue x:A#0 needs exactly one reader, got {len(readers)}$"):
        _hand_built(readers, ChannelKind.MESSAGE_QUEUE)()


@pytest.mark.parametrize("kind", [ChannelKind.SHARED_SEGMENT, ChannelKind.MESSAGE_QUEUE])
def test_a_channel_its_writer_reads_is_refused_when_the_world_is_built(kind):
    refusal = "^channel x:A#0 names 'A#0' as its writer and as a reader$"
    with pytest.raises(ValueError, match=refusal):
        _hand_built(("A#0",), kind)()


@pytest.mark.parametrize("sweep, interval", [(1, 100), (50, 100), (70, 140), (101, 101), (250, 250)])
def test_a_scan_faster_than_an_owned_segment_beats_is_refused_when_the_world_is_built(sweep, interval):
    """A beat leaves on the first transmitter sweep a period after the last,
    so an owned 100 ms segment beats every 100 ms rounded up to a multiple of
    the sweep; the periodic segment the scan does not own is not checked."""
    plan = build_plan(parse_model(ASYNC_MODEL), MappingPolicy(Objective.FAULT_TOLERANCE))
    segment = dict(kind=ChannelKind.SHARED_SEGMENT, writer="A#0", readers=("B#0",), source="U", message_size=8)
    channels = [
        IpcChannel("shm:A#0:U", klass=FlowClass.PERIODIC, period_ms=1000, **segment),
        IpcChannel("shm:A#0:U:health", klass=FlowClass.PERIODIC, period_ms=100, **segment),
    ]
    behaviors = {"A#0": {"U": _producer_machine()}, "B#0": {"V": _consumer_machine()}}

    def build(scan_period):
        owned = frozenset({"shm:A#0:U:health"})
        failover = FailoverConfig(scan_period=scan_period, scan_fn=lambda world: None, owned=owned)
        return instantiate(plan, channels, behaviors, SimConfig(transmitter_period=sweep), failover)

    refused = f"^scan_period {interval - 1} is below the heartbeat interval {interval} of shm:A#0:U:health$"
    with pytest.raises(ValueError, match=refused):
        build(interval - 1)
    assert build(interval).failover.scan_period == interval


def test_an_unknown_endpoint_is_reported_before_a_repeated_reader():
    with pytest.raises(ValueError, match="^channel x:A#0 names 'C#0', which is not a process of the plan$"):
        _hand_built(("B#0", "B#0", "C#0"))()
    world = _hand_built(("B#0",))()
    assert [ch.channel.id for ch in world.drains["B#0"]] == ["x:A#0"]


def test_rebinding_onto_a_standby_that_already_reads_names_it_once():
    _, _, world = build_world()
    both = [
        cid for cid, ch in world.channels.items()
        if "LocalHost#0" in ch.readers and "StandbyCI#0" in ch.readers
    ]
    assert both == ["shm:Operator#0:ExchangeStatus"]
    world.rebind_endpoints("LocalHost#0", "StandbyCI#0")
    for ch in world.channels.values():
        assert len(set(ch.readers)) == len(ch.readers), ch.channel.id
    assert world.channels[both[0]].readers.count("StandbyCI#0") == 1
    drained = [ch.channel.id for ch in world.drains["StandbyCI#0"]]
    assert drained.count(both[0]) == 1 and len(set(drained)) == len(drained)
    _assert_endpoint_index_matches_channels(world)


def test_rebinding_puts_the_standby_in_the_dead_endpoints_place():
    """For every ordered pair of distinct fixture processes, rebinding changes
    exactly the channels the scan does not own that name the dead process,
    except one that either of the pair writes and the other reads: the
    standby takes the dead writer's place and the dead reader's place in
    the reader order, a later repeat of the standby is dropped, and one
    `rebind` row per channel is traced by the standby."""
    pids = list(build_world()[2].processes)
    assert len(pids) == 11
    for dead, standby in itertools.permutations(pids, 2):
        _, _, world = build_world()
        owned = world.failover.owned
        before = {cid: (ch.writer, list(ch.readers)) for cid, ch in world.channels.items()}
        expected = [
            cid for cid, (writer, readers) in before.items()
            if cid not in owned and (writer == dead or dead in readers)
            and not (writer == dead and standby in readers or writer == standby and dead in readers)
        ]
        pair = (dead, standby)
        assert world.rebind_endpoints(dead, standby) == expected, pair
        for cid, ch in world.channels.items():
            writer, readers = before[cid]
            if cid in expected:
                assert ch.writer == (standby if writer == dead else writer), (pair, cid)
                placed = [standby if r == dead else r for r in readers]
                assert ch.readers == [r for i, r in enumerate(placed) if r not in placed[:i]], (pair, cid)
            else:
                assert (ch.writer, ch.readers) == (writer, readers), (pair, cid)
        rows = [(r.process, r.event, r.detail) for r in parse_rows("".join(world._lines))]
        assert rows == [(standby, "rebind", f"{cid} from {dead}") for cid in expected], pair
        _assert_endpoint_index_matches_channels(world)


# --- kill isolation -------------------------------------------------------------------------


def test_killed_process_goes_silent():
    world, _ = _world()
    scenario = parse_scenario(
        "stimulus A#0 POKE at 10 every 50 priority 5 size 8\nfault kill A#0 at 500"
    )
    trace, metrics = world.run(scenario, 1500)
    after = [
        r
        for r in parse_rows(trace.to_text())
        if r.process == "A#0" and r.time > 500 and r.event not in ("stimulus",)
    ]
    assert after == []
    dropped = [r for r in rows_of(trace, "stimulus", "A#0") if "dropped" in r.detail]
    assert dropped and all(r.time > 500 for r in dropped)
    assert (500, "A#0", "killed") in metrics.faults


def _boom_machine(fault):
    """A producer whose BOOM fails in the way named by `fault`."""

    def explode(ctx):
        raise RuntimeError("boom")

    def bad_guard(msg, variables):
        return variables["missing"]

    b = MachineBuilder()
    b.state("Top", initial="Idle")
    b.state("Idle", parent="Top")
    b.transition("Idle", "POKE", "Idle", actions=[Action("h")])
    if fault == "action":
        b.transition("Idle", "BOOM", "Idle", actions=[Action("ok"), Action("explode", explode)])
    elif fault == "ambiguous":
        b.transition("Idle", "BOOM", "Idle")
        b.transition("Idle", "BOOM", "Idle", guard=lambda msg, variables: True)
    else:
        b.transition("Idle", "BOOM", "Idle", guard=bad_guard)
    return b.build({"n": 1})


@pytest.mark.parametrize(
    "fault,cause",
    [
        ("action", "action-failure:U/explode"),
        ("ambiguous", "ambiguous:U/BOOM"),
        ("guard", "guard:U/BOOM"),
    ],
)
def test_a_failing_dispatch_kills_only_its_process(fault, cause):
    model = parse_model(ASYNC_MODEL)
    plan = build_plan(model, MappingPolicy(Objective.FAULT_TOLERANCE))
    channels = assign_ipc(dependency_graph(plan, model))
    machine = _boom_machine(fault)
    world = instantiate(plan, channels, {"A#0": {"U": machine}, "B#0": {"V": _consumer_machine()}})
    # POKE waits behind BOOM in A's mailbox when the fault strikes
    trace, metrics = world.run(
        parse_scenario(
            "stimulus A#0 POKE at 20 every 0 priority 5 size 4\n"
            "stimulus A#0 BOOM at 100 every 0 priority 9 size 4\n"
            "stimulus A#0 POKE at 100 every 0 priority 5 size 4\n"
            "stimulus B#0 DATA at 50 every 100 priority 5 size 4\n"
        ),
        1000,
    )
    assert metrics.faults == [(100, "A#0", cause)]
    assert [(r.time, r.detail) for r in rows_of(trace, "fault", "A#0")] == [(100, cause)]
    rows = parse_rows(trace.to_text())
    assert not [r for r in rows if r.process == "A#0" and r.thread == "processor" and r.time >= 100]
    assert metrics.processes["A#0"].dispatches == 1  # the first POKE only
    assert (machine.current, machine.variables) == ("Idle", {"n": 1})
    consumer = [r.time for r in rows_of(trace, "dispatch", "B#0")]
    assert consumer == list(range(50, 1000, 100))
    assert degradation_report(metrics, plan).verdict == "graceful"


# --- verdicts ------------------------------------------------------------------------------


def test_reader_fault_is_graceful_degradation():
    world, channels = _world()
    plan = _plan()
    scenario = parse_scenario(
        "stimulus A#0 POKE at 10 every 100 priority 5 size 16\nfault kill B#0 at 500"
    )
    _, metrics = world.run(scenario, 1500)
    report = degradation_report(metrics, plan)
    assert report.verdict == "graceful"
    assert report.failed == ("B#0",)
    assert report.lost_links == (("mq:A#0:B#0:U", "A#0", "B#0"),)
    text = report.to_text(metrics)
    assert "verdict: graceful" in text and "lost: mq:A#0:B#0:U" in text


def test_killing_every_process_is_total_loss():
    world, _ = _world()
    plan = _plan()
    scenario = parse_scenario(
        "stimulus A#0 POKE at 10 every 100 priority 5 size 16\n"
        "fault kill B#0 at 400\nfault kill A#0 at 600"
    )
    _, metrics = world.run(scenario, 1500)
    report = degradation_report(metrics, plan)
    assert report.verdict == "total"
    assert set(report.failed) == {"A#0", "B#0"}


def test_loss_not_incident_to_a_fault_is_total():
    metrics = Metrics()
    metrics.links[("mq:x", "P", "Q")] = LinkStats(sent=5, delivered=3)
    metrics.faults.append((100, "R", "killed"))
    report = degradation_report(metrics, _plan())
    assert report.verdict == "total"


def test_no_faults_no_loss_is_graceful():
    world, _ = _world()
    _, metrics = world.run(parse_scenario("stimulus A#0 POKE at 10 every 100 priority 5 size 16"), 1000)
    report = degradation_report(metrics, _plan())
    assert report.verdict == "graceful"
    assert report.failed == () and report.lost_links == ()


# --- metrics text ------------------------------------------------------------------------------


def test_metrics_to_text_sections_and_sorting():
    metrics = Metrics()
    metrics.links["mq:b", "W", "R"].sent = 2
    metrics.links["mq:a", "W", "R"].delivered = 1
    metrics.processes["P"] = ProcessStats(dispatches=3)
    metrics.faults.append((7, "P", "killed"))
    metrics.failover.append(FailoverRecord("M", "S", 100, 150))
    lines = metrics.to_text().splitlines()
    assert lines[0] == "metrics-format: 1"
    assert lines[1] == "links: 2"
    assert lines[2].startswith("link: mq:a") and lines[3].startswith("link: mq:b")
    assert "process: P dispatches 3 discards 0 deferrals 0 trips 0" in lines
    assert "fault: P at 7 cause killed" in lines
    assert "takeover: main M standby S detected 100 active 150" in lines
    assert metrics.failover == [FailoverRecord("M", "S", 100, 150)]


# --- lifecycle -----------------------------------------------------------------------------


def test_world_is_single_use():
    world, _ = _world()
    world.run(Scenario(), 100)
    with pytest.raises(RuntimeError):
        world.run(Scenario(), 100)


def test_horizon_must_be_positive():
    world, _ = _world()
    with pytest.raises(ValueError):
        world.run(Scenario(), 0)


@pytest.mark.parametrize(
    "text",
    [
        "fault kill A#0 at 10\nfault kill Nobody#0 at 20\n"
        "stimulus Ghost#1 POKE at 5 every 0 priority 5 size 1\n",
        "stimulus A#0 POKE at 5 every 0 priority 5 size 1\n"
        "stimulus Nobody#0 POKE at 5 every 100 priority 5 size 1\n",
    ],
)
def test_scenario_naming_an_unknown_process_is_refused_before_anything_runs(text):
    world, _ = _world()
    with pytest.raises(ValueError, match="'Nobody#0'"):
        world.run(parse_scenario(text), 500)
    assert not world.used and world._lines == []
    trace, _ = world.run(parse_scenario("stimulus A#0 POKE at 5 every 0 priority 5 size 1"), 500)
    assert rows_of(trace, "stimulus", "A#0")


@pytest.mark.parametrize("endpoint, ghost", [("readers", "PeerCI#9"), ("writer", "LocalHost#9")])
def test_channel_endpoint_outside_the_plan_is_refused(endpoint, ghost):
    plan, channels, _ = build_world()
    i = next(i for i, c in enumerate(channels) if c.kind is ChannelKind.MESSAGE_QUEUE)
    ch = channels[i]
    wired = list(channels)
    wired[i] = ch._replace(**{endpoint: (ghost,) if endpoint == "readers" else ghost})
    with pytest.raises(ValueError, match=re.escape(f"channel {ch.id} names '{ghost}'")):
        instantiate(plan, wired, build_behaviors(plan, wired))


@pytest.mark.parametrize(
    "writer, readers, named",
    [
        ("LocalHost#9", ("PeerCI#0", "PeerCI#9"), "LocalHost#9"),
        ("LocalHost#0", ("PeerCI#0", "PeerCI#8", "PeerCI#9"), "PeerCI#8"),
    ],
    ids=["writer-before-reader", "first-of-two-readers"],
)
def test_channel_check_names_the_first_endpoint_outside_the_plan(writer, readers, named):
    plan, channels, _ = build_world()
    i = next(i for i, c in enumerate(channels) if c.kind is ChannelKind.SHARED_SEGMENT)
    ch = channels[i]
    wired = list(channels)
    wired[i] = IpcChannel(
        ch.id, ch.kind, writer, readers, ch.klass, ch.source, ch.message_size,
        segment_size=ch.segment_size, period_ms=ch.period_ms,
    )
    with pytest.raises(ValueError, match=re.escape(f"channel {ch.id} names '{named}',")):
        instantiate(plan, wired, build_behaviors(plan, channels))


def test_missing_behavior_is_reported_with_node_id():
    model = parse_model(ASYNC_MODEL)
    plan = build_plan(model, MappingPolicy(Objective.FAULT_TOLERANCE))
    channels = assign_ipc(dependency_graph(plan, model))
    with pytest.raises(MissingBehavior) as err:
        instantiate(plan, channels, {"A#0": {"U": _producer_machine()}})
    assert err.value.node_id == "B#0"


def test_one_shot_stimulus_fires_once():
    world, _ = _world()
    trace, _ = world.run(parse_scenario("stimulus A#0 POKE at 50 every 0 priority 5 size 4"), 1000)
    assert len(rows_of(trace, "stimulus", "A#0")) == 1


def test_repeating_stimulus_fires_on_schedule():
    world, _ = _world()
    trace, _ = world.run(parse_scenario("stimulus A#0 POKE at 50 every 200 priority 5 size 4"), 1000)
    assert [r.time for r in rows_of(trace, "stimulus", "A#0")] == [50, 250, 450, 650, 850]


def test_watchdog_timeout_is_three_watchdog_periods():
    world, _ = _world(config=SimConfig(watchdog_period=50))
    trace, _ = world.run(
        parse_scenario("stimulus A#0 STALL at 100 every 0 priority 5 size 1"), 1000
    )
    trips = rows_of(trace, "trip", "A#0")
    assert [(r.time, r.detail) for r in trips] == [(250, "no progress for 150")]


def test_emission_destinations_must_name_a_use_case():
    world, channels = _world()
    proc = world.processes["A#0"]
    assert world.resolve_destination(proc, "U") == [channels[0].id]
    assert world.resolve_destination(proc, "V") == []
    assert world.resolve_destination(proc, channels[0].id) == []


def test_trace_rows_are_trace_rows():
    _, _, world = build_world()
    scenario = parse_scenario("stimulus LocalHost#0 SEND_REQ at 100 every 0 priority 180 size 64\n")
    trace, _ = world.run(scenario, 400)
    rows = parse_rows(trace.to_text())
    assert rows and all(type(r) is Row for r in rows)
    first = rows[0]
    assert first == Row(first.time, first.process, first.thread, first.event, first.detail)
    assert rows_of(trace, "stimulus") == [Row(100, "LocalHost#0", "-", "stimulus", "SEND_REQ size 64")]
    sends = [r for r in rows_of(trace, "dispatch", "LocalHost#0") if "/SEND_REQ " in r.detail]
    assert len(sends) == 1
    assert (sends[0].thread, sends[0].detail.split()[-2:]) == ("processor", ["actions", "3"])
    assert trace.to_text() == "".join("\t".join(map(str, r)) + "\n" for r in rows)
    assert "".join(line + "\n" for line in trace.rows) == trace.to_text()
