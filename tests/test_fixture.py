"""The bundled communication-interface example: model, behaviors, worlds."""

import hashlib
import tracemalloc
from collections import Counter

import pytest

from audit import rows_of
from viewcase import comm, fixture, statechart
from viewcase.comm import (
    CommConfig,
    LinkType,
    ReassemblyBuffer,
    convert_from_frame,
    parse_comm_config,
)
from viewcase.engine import Scenario, SimConfig, degradation_report, instantiate, parse_scenario
from viewcase.fixture import (
    FIXTURE_MODEL,
    HEALTH_SOURCE,
    build_behaviors,
    build_world,
    degradation_scenario,
    failover_scenario,
    scale_peers,
    standby_map,
)
from viewcase.ipc import assign_ipc, dependency_graph
from viewcase.model import Instantiation, parse_model, trigger_map, validate_model
from viewcase.partition import MappingPolicy, Objective, build_plan, render_plan
from viewcase.statechart import ActorMessage, dispatch


@pytest.fixture(scope="module")
def model():
    return parse_model(FIXTURE_MODEL)


@pytest.fixture(scope="module")
def plan(model):
    return build_plan(model, MappingPolicy())


# --- the model itself ---------------------------------------------------------


def test_fixture_model_is_clean(model):
    assert validate_model(model) == []


def test_fixture_model_census(model):
    assert [a.name for a in model.actors] == [
        "Operator", "LocalHost", "StandbyCI", "CommEquipment", "PeerCI",
    ]
    assert model.actor("LocalHost").multiplicity == 2
    assert model.actor("PeerCI").multiplicity == 6
    assert model.actor("CommEquipment").instantiation is Instantiation.SHARED
    assert len(model.use_cases) == 10
    assert len(model.flows) == 8  # status fans out to four actor kinds
    triggers = trigger_map(model)
    assert triggers["Operator"] == ["ExchangeStatus", "DisplayStatus", "ReportHealth"]
    health_owners = [a for a, ucs in triggers.items() if "ReportHealth" in ucs]
    assert health_owners == ["Operator", "LocalHost", "StandbyCI", "PeerCI"]


def test_scale_peers_rewrites_multiplicity(model):
    bigger = scale_peers(model, 9)
    assert bigger.actor("PeerCI").multiplicity == 9
    assert validate_model(bigger) == []
    # everything else untouched
    assert bigger.actor("LocalHost") == model.actor("LocalHost")
    assert bigger.use_cases == model.use_cases


def test_scale_peers_rejects_nonpositive(model):
    with pytest.raises(ValueError):
        scale_peers(model, 0)


# --- behaviors ------------------------------------------------------------------


def test_behaviors_cover_every_live_node(plan, model):
    channels = assign_ipc(dependency_graph(plan, model))
    behaviors = build_behaviors(plan, channels)
    assert set(behaviors) == {n.id for n in plan.all_nodes()}
    for node in plan.nodes:
        assert behaviors[node.id], f"{node.id} has no machines"
    for node in plan.shared_service_nodes:
        assert behaviors[node.id] == {}


# the use cases the fixture has a chart for
_CHARTED = {"SendData", "ReceiveData", "MaintainSession", "TakeOver", "ExchangeStatus", "MonitorEquipment"}
_MEM = MappingPolicy(Objective.MEMORY_BOUND, memory_budget=40000)


@pytest.mark.parametrize("policy", [MappingPolicy(), _MEM], ids=["ft", "mem"])
def test_behavior_keys_match_owned_use_cases(model, policy):
    """A node runs the charted use cases among the ones it owns, in their
    order, or a generic relay when it owns none."""
    plan = build_plan(model, policy)
    behaviors = build_behaviors(plan, assign_ipc(dependency_graph(plan, model)))
    for node in plan.nodes:
        charted = [uc for uc in node.owned_use_cases() if uc in _CHARTED]
        assert list(behaviors[node.id]) == (charted or ["relay"]), node.id


@pytest.mark.parametrize("hosts", [2, 20])
def test_host_and_peer_machines_have_disjoint_message_lanes(hosts):
    model = parse_model(FIXTURE_MODEL.replace("LocalHost multiplicity 2", f"LocalHost multiplicity {hosts}"))
    plan = build_plan(model, MappingPolicy())
    behaviors = build_behaviors(plan, assign_ipc(dependency_graph(plan, model)))
    lanes = [
        m.variables["lane"] for machines in behaviors.values() for m in machines.values()
        if "lane" in m.variables
    ]
    reused = sorted(lane for lane, n in Counter(lanes).items() if n > 1)
    assert reused == [], f"lanes {reused} reused"
    assert len(lanes) == hosts + 6  # one per host and per peer


def test_a_use_case_a_view_holds_and_includes_gets_one_machine_and_lane():
    """`A` triggers SendData and Relay, which includes SendData: `A#0` holds
    SendData once, so it runs one codec machine, on the first lane."""
    model = parse_model(
        "actor A multiplicity 1\n"
        "actor B multiplicity 1\n"
        'usecase SendData "send" codesize 100\n'
        'usecase Relay "relay" codesize 100\n'
        'usecase ReceiveData "receive" codesize 100\n'
        "trigger A -> SendData\n"
        "trigger A -> Relay\n"
        "trigger B -> ReceiveData\n"
        "relation include Relay <- SendData\n"
        "flow SendData -> B async size 64\n"
    )
    plan = build_plan(model, MappingPolicy())
    behaviors = build_behaviors(plan, assign_ipc(dependency_graph(plan, model)))
    lanes = {nid: {uc: m.variables["lane"] for uc, m in ms.items()} for nid, ms in behaviors.items()}
    assert lanes == {"A#0": {"SendData": 1}, "B#0": {"ReceiveData": 2}}


@pytest.mark.parametrize("peers", [4100, 20000])
def test_the_last_peer_encodes_at_any_peer_count(model, peers):
    """Message ids fit their 32 bits however many lanes the plan needs: the
    last peer's RX_DATA encodes and completes, and nothing faults."""
    last = f"PeerCI#{peers - 1}"
    _, _, world = build_world(scale_peers(model, peers))
    rows: list[list[str]] = []

    def keep(line: str) -> None:
        fields = line.rstrip("\n").split("\t")
        if fields[1] == last and fields[3] == "complete":
            rows.append(fields[4:])

    scenario = f"stimulus {last} RX_DATA at 50 every 0 priority 200 size 700\n"
    _, metrics = world.run(parse_scenario(scenario), 100, sink=keep)
    assert metrics.faults == []
    assert ["ReceiveData/RX_DATA d1"] in rows


def test_generic_behaviors_back_arbitrary_models():
    text = (
        "actor Gw multiplicity 1\n"
        "actor Node multiplicity 2\n"
        'usecase Route "Route traffic" codesize 700\n'
        'usecase Handle "Handle traffic" codesize 600\n'
        "trigger Gw -> Route\n"
        "trigger Node -> Handle\n"
        "flow Route -> Node async size 96\n"
    )
    plan, channels, world = build_world(parse_model(text))
    trace, metrics = world.run(
        parse_scenario("stimulus Gw#0 Route at 50 every 100 priority 120 size 48"), 2000
    )
    assert metrics.processes["Gw#0"].dispatches > 0
    for reader in ("Node#0", "Node#1"):
        assert metrics.processes[reader].dispatches > 0
    assert all(s.sent == s.delivered for s in metrics.links.values())


def test_generic_charts_are_shared_by_signal_signature():
    text = (
        "actor Gw multiplicity 1\n"
        "actor Node multiplicity 3\n"
        'usecase Route "Route traffic" codesize 700\n'
        'usecase Handle "Handle traffic" codesize 600\n'
        "trigger Gw -> Route\n"
        "trigger Node -> Handle\n"
        "flow Route -> Node async size 96\n"
    )
    model = parse_model(text)
    plan = build_plan(model, MappingPolicy())
    behaviors = build_behaviors(plan, assign_ipc(dependency_graph(plan, model)))
    relays = {node_id: machines["relay"] for node_id, machines in behaviors.items()}
    assert relays["Node#0"].chart is relays["Node#1"].chart is relays["Node#2"].chart
    assert relays["Gw#0"].chart is not relays["Node#0"].chart
    assert [t.signal for t in relays["Gw#0"].chart.transitions] == ["Route", "DATA_PKT"]
    assert [t.signal for t in relays["Node#0"].chart.transitions] == ["Handle", "DATA_PKT", "Route"]
    assert {m.name for m in relays.values()} == set(relays)


def test_generic_charts_match_a_per_node_scan_at_multiplicity_300():
    text = (
        "actor Gw multiplicity 1\n"
        "actor Node multiplicity 300\n"
        'usecase Route "Route traffic" codesize 700\n'
        'usecase Handle "Handle traffic" codesize 600\n'
        "trigger Gw -> Route\n"
        "trigger Node -> Handle\n"
        "flow Route -> Node async size 96\n"
        "flow Handle -> Gw periodic 100 size 16\n"
    )
    model = parse_model(text)
    plan = build_plan(model, MappingPolicy())
    channels = assign_ipc(dependency_graph(plan, model))
    behaviors = build_behaviors(plan, channels)
    charts = {}
    for node in plan.all_nodes():
        owned = set(node.owned_use_cases())
        inbound = {ch.source for ch in channels if node.id in ch.readers} | {"DATA_PKT"}
        key = (tuple(sorted(owned)), tuple(sorted(inbound - owned)))
        chart = behaviors[node.id]["relay"].chart
        assert [t.signal for t in chart.transitions] == [*key[0], *key[1]], node.id
        assert charts.setdefault(key, chart) is chart, node.id
    assert len(plan.all_nodes()) == 301 and len(charts) == 2


# --- scenarios -------------------------------------------------------------------


def test_degradation_scenario_parses(plan):
    s = parse_scenario(degradation_scenario())
    assert len(s.stimuli) == 8  # 2 hosts + 6 peers
    assert [f.process for f in s.faults] == ["PeerCI#3"]
    node_ids = {n.id for n in plan.all_nodes()}
    assert {spec.process for spec in s.stimuli} <= node_ids


def test_degradation_scenario_without_kill():
    s = parse_scenario(degradation_scenario(kill=None))
    assert s.faults == ()


def test_failover_scenario_kills_both_hosts():
    s = parse_scenario(failover_scenario(kill_at=777))
    assert {(f.process, f.at) for f in s.faults} == {
        ("LocalHost#0", 777), ("LocalHost#1", 777),
    }
    assert len(s.stimuli) == 6


def test_standby_map_routes_hosts_to_standby(plan):
    assert standby_map(plan) == {
        "LocalHost#0": "StandbyCI#0",
        "LocalHost#1": "StandbyCI#0",
    }


def test_standby_map_empty_without_standby_actor():
    text = (
        "actor A multiplicity 1\n"
        'usecase U "Go" codesize 10\n'
        "trigger A -> U\n"
    )
    plan = build_plan(parse_model(text), MappingPolicy())
    assert standby_map(plan) == {}


# --- assembled worlds ----------------------------------------------------------------


def test_build_world_fault_free_smoke():
    plan, channels, world = build_world()
    trace, metrics = world.run(parse_scenario(degradation_scenario(kill=None)), 2000)
    assert sum(p.dispatches for p in metrics.processes.values()) > 100
    assert sum(p.discards for p in metrics.processes.values()) == 0
    assert all(p.watchdog_trips == 0 for p in metrics.processes.values())
    assert all(s.sent == s.delivered for s in metrics.links.values())


def test_reassembly_buffers_are_resources_not_variables():
    plan, channels, world = build_world()
    world.run(parse_scenario(degradation_scenario(kill=None)), 1000)
    machines = [m for proc in world.processes.values() for m in proc.machines.values()]
    assert not any(isinstance(v, ReassemblyBuffer) for m in machines for v in m.variables.values())
    assert sum(isinstance(m.resources.get("rx"), ReassemblyBuffer) for m in machines) == 8


def test_completed_reassembly_keys_expire_after_the_timeout():
    timeout = 1000
    plan, channels, world = build_world(comm_config=CommConfig(reassembly_timeout=timeout))
    trace, _ = world.run(parse_scenario(degradation_scenario(kill=None)), 4 * timeout)
    held = completed = 0
    for pid, proc in world.processes.items():
        for key, machine in proc.machines.items():
            buf = machine.resources.get("rx")
            if buf is None:
                continue
            # actions run when their dispatch starts, so this is the last reassembly's time
            last = max(
                r.time for r in rows_of(trace, "dispatch", pid)
                if r.detail.startswith(f"{key}/DATA_PKT ")
            )
            assert all(last - done_at < timeout for done_at in buf.completed.values())
            held += len(buf.completed)
            completed += machine.variables.get("complete", 0)
    assert 0 < held < completed


def _link_a_frames(msg_id, size):
    app = comm.AppMessage(msg_id, "", "", "track_data", bytes(size))
    packets = comm.packetize(app, comm.DEFAULT_CONFIG.mtu_payload, comm.DEFAULT_CONFIG.auth_key)
    return [comm.convert_to_frame(p, LinkType.LINK_A) for p in packets]


def test_incomplete_reassembly_entries_expire_after_the_timeout():
    timeout = comm.DEFAULT_CONFIG.reassembly_timeout
    _, _, world = build_world()
    machine = world.processes["PeerCI#0"].machines["ReceiveData"]
    first, _ = _link_a_frames(1, comm.DEFAULT_CONFIG.mtu_payload + 1)  # two packets
    (only,) = _link_a_frames(2, 10)
    dispatch(machine, ActorMessage("DATA_PKT", first), now=0)
    assert list(machine.resources["rx"].entries) == [("wire", 1)]
    dispatch(machine, ActorMessage("DATA_PKT", only), now=timeout)
    assert machine.variables["complete"] == 1
    assert machine.resources["rx"].entries == {}


def _no_staged_variables(machines):
    return not any(k.startswith("_") for m in machines for k in m.variables)


def test_a_send_too_large_to_packetize_fails_the_encode_step():
    _, _, world = build_world(comm_config=CommConfig(mtu_payload=1))
    scenario = parse_scenario("stimulus LocalHost#0 SEND_REQ at 10 every 0 priority 180 size 70000")
    _, metrics = world.run(scenario, 40)
    assert metrics.faults == [(10, "LocalHost#0", "action-failure:SendData/encode")]
    machines = [m for proc in world.processes.values() for m in proc.machines.values()]
    assert _no_staged_variables(machines)


def test_a_corrupt_frame_is_counted_and_reaches_no_buffer():
    _, _, world = build_world()
    machine = world.processes["LocalHost#0"].machines["SendData"]
    result = dispatch(machine, ActorMessage("DATA_PKT", b"\x7e\x00\x7e"), now=5)
    assert result.actions_run == ("deframe", "reassemble")
    assert machine.variables["corrupt"] == 1
    assert "rx" not in machine.resources
    (frame,) = _link_a_frames(1, 10)
    dispatch(machine, ActorMessage("DATA_PKT", frame), now=6)
    assert (machine.variables["complete"], machine.variables["last_size"]) == (1, 10)
    assert _no_staged_variables([machine])


def test_the_standby_decodes_the_packets_it_deferred_once_it_takes_over():
    _, _, world = build_world()
    machine = world.processes["StandbyCI#0"].machines["TakeOver"]
    app = comm.AppMessage(1, "", "", "track_data", bytes(10))
    (packet,) = comm.packetize(app, comm.DEFAULT_CONFIG.mtu_payload, comm.DEFAULT_CONFIG.auth_key)
    pkt = ActorMessage("DATA_PKT", comm.convert_to_frame(packet, LinkType.LINK_B))
    assert dispatch(machine, pkt, now=1).deferred
    taken = dispatch(machine, ActorMessage("TAKEOVER", b"LocalHost#0"), now=2)
    assert machine.current == "Active" and taken.recalled == (pkt,)
    assert dispatch(machine, taken.recalled[0], now=3).actions_run == ("deframe", "reassemble")
    assert machine.variables["complete"] == 1
    assert _no_staged_variables([machine])


@pytest.mark.parametrize(
    "scenario",
    [degradation_scenario(kill_at=1500), failover_scenario()],
    ids=["degradation", "failover"],
)
def test_fixture_traffic_never_deep_copies_machine_variables(monkeypatch, scenario):
    """Actions keep only atoms in variables, so every rollback snapshot is a
    shallow copy; a list or object staged there would take `copy.deepcopy`."""
    calls = []
    deepcopy = statechart.copy.deepcopy

    def spy(obj, *args, **kwargs):
        calls.append(type(obj))
        return deepcopy(obj, *args, **kwargs)

    monkeypatch.setattr(statechart.copy, "deepcopy", spy)
    _, _, world = build_world()
    _, metrics = world.run(parse_scenario(scenario), 3000)
    assert sum(p.dispatches for p in metrics.processes.values()) > 500
    assert calls == []


def test_build_world_memory_bound_policy():
    plan, channels, world = build_world(
        policy=MappingPolicy(Objective.MEMORY_BOUND, memory_budget=50000),
    )
    assert plan.estimated_footprint <= 50000
    assert len(plan.shared_service_nodes) == 2
    trace, metrics = world.run(
        parse_scenario("stimulus Operator#* EQUIP_STATUS at 100 every 500 priority 140 size 64"),
        1500,
    )
    assert metrics.processes["Operator#*"].dispatches > 0
    assert all(s.sent == s.delivered for s in metrics.links.values())


def test_health_segments_are_scan_only():
    plan, channels, world = build_world()
    trace, _ = world.run(parse_scenario(degradation_scenario(kill=None)), 1500)
    health_channels = {c.id for c in channels if c.source == HEALTH_SOURCE}
    assert len(health_channels) == 10
    sampled = {r.detail.split()[0] for r in rows_of(trace, "sample")}
    assert sampled.isdisjoint(health_channels)


def test_health_queues_stay_with_their_writer_through_failover():
    model = parse_model(FIXTURE_MODEL + "flow ReportHealth -> Operator async size 64\n")
    queue = "mq:LocalHost#0:Operator#0:ReportHealth"
    _, _, world = build_world(model)
    assert world.channels[queue].writer == "LocalHost#0"
    trace, metrics = world.run(parse_scenario(failover_scenario()), 2000)
    assert metrics.failover  # the standby took over
    assert world.channels[queue].writer == "LocalHost#0"
    assert not [r for r in rows_of(trace, "rebind") if r.detail.split()[0] == queue]


def test_build_world_refuses_an_auth_key_longer_than_blake2s_takes():
    with pytest.raises(ValueError, match="auth_key"):
        build_world(comm_config=CommConfig(auth_key=b"k" * 33))


def _record_sends(monkeypatch, world):
    sent = []
    send = world.channel_send

    def recording(channel_id, msg):
        sent.append(msg)
        return send(channel_id, msg)

    monkeypatch.setattr(world, "channel_send", recording)
    return sent


def test_every_frame_is_decoded_once_for_all_its_receivers(monkeypatch):
    # receivers of one frame share its decoded packet, so on a cache that
    # holds the traffic's reuse distance the decode misses once per frame sent
    plan, channels, world = build_world()
    sent = _record_sends(monkeypatch, world)
    comm._decode.cache_clear()
    world.run(parse_scenario(degradation_scenario()), 1500)
    info = comm._decode.cache_info()
    frames = {m.body for m in sent if m.signal == "DATA_PKT"}
    assert frames
    assert info.misses == len(frames)
    assert info.hits > info.misses  # fan-out: several receivers per frame


def _frame_priority(frame):
    link = LinkType.LINK_B if frame[:1] == b"\x7e" else LinkType.LINK_A
    return convert_from_frame(frame, link).priority


def test_configured_priorities_reach_the_simulation(monkeypatch):
    scenario = parse_scenario(degradation_scenario(kill=None))
    cfg = parse_comm_config("priority.track_data = 3\npriority.status = 5\n")
    plan, channels, world = build_world(comm_config=cfg)
    sent = _record_sends(monkeypatch, world)
    trace, _ = world.run(scenario, 1500)
    data = [m for m in sent if m.signal == "DATA_PKT"]
    status = [m for m in sent if m.signal == "EQUIP_STATUS"]
    assert data and status
    assert {m.priority for m in data} == {3}
    assert {_frame_priority(m.body) for m in data} == {3}
    assert {m.priority for m in status} == {5}
    default_trace, _ = build_world()[2].run(scenario, 1500)
    assert trace.to_text() != default_trace.to_text()


def test_unlisted_data_types_take_the_configured_default_priority(monkeypatch):
    cfg = CommConfig(default_priority=7, priorities=(("status", 5),))
    plan, channels, world = build_world(comm_config=cfg)
    sent = _record_sends(monkeypatch, world)
    world.run(parse_scenario(degradation_scenario(kill=None)), 1000)
    data = [m for m in sent if m.signal == "DATA_PKT"]
    assert data
    assert {m.priority for m in data} == {7}
    assert {_frame_priority(m.body) for m in data} == {7}


# sha256 of the four simulate artifacts, recorded before the runtime kept
# per-process endpoint lists; any reordering of sends or samples shows here.
_PINNED_ARTIFACTS = {
    "degradation": {
        "trace.tsv": "9f717d38202e990f686d7f1c5ad9ead574d964f074185ac0cbb5bc92219f08b3",
        "metrics.txt": "4c2400b50758f5b6f0b4ffac78912437024d18c58fbdad65e0d8cd69f102ea3f",
        "report.txt": "f6a25c8102d3aabbdba9ee61be4b8c0fc8b5f23456bb4306142fa28c9b7411fd",
        "plan.txt": "a8277dd1319fb8e89f4dc16fa254f8306c85bebb27c5c6b3f3e80d79c557004e",
    },
    "failover": {
        "trace.tsv": "0f1517fe9888bab144f1c3fe93429c0eac2e8cf3f033675a7576757ae25e93e0",
        "metrics.txt": "5663d617c84cb75056ebb0105adf9961913bf749d0098c63ddd1df9a3658f647",
        "report.txt": "84c451d5cd632a97942d88f3a654a48e259371c7b92dba1d6e2603da24a1179c",
        "plan.txt": "a8277dd1319fb8e89f4dc16fa254f8306c85bebb27c5c6b3f3e80d79c557004e",
    },
}


def test_artifacts_match_pinned_digests():
    scenarios = {
        "degradation": (degradation_scenario(), 3000),
        "failover": (failover_scenario(), 2000),
    }
    digests = {}
    for name, (text, horizon) in scenarios.items():
        plan, channels, world = build_world()
        trace, metrics = world.run(parse_scenario(text), horizon, seed=11)
        artifacts = {
            "trace.tsv": trace.to_text(),
            "metrics.txt": metrics.to_text(),
            "report.txt": degradation_report(metrics, plan).to_text(metrics),
            "plan.txt": render_plan(plan, channels),
        }
        digests[name] = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in artifacts.items()}
    assert digests == _PINNED_ARTIFACTS


def _simulate_artifacts(model_text: str, scenario_text: str, horizon: int) -> dict[str, str]:
    plan, channels, world = build_world(parse_model(model_text))
    trace, metrics = world.run(parse_scenario(scenario_text), horizon, seed=11)
    return {
        "trace.tsv": trace.to_text(),
        "metrics.txt": metrics.to_text(),
        "report.txt": degradation_report(metrics, plan).to_text(metrics),
        "plan.txt": render_plan(plan, channels),
    }


_RENAMES = {"LocalHost": "Gateway", "PeerCI": "Remote", "StandbyCI": "Spare", "CommEquipment": "Equip"}


def _renamed(text: str) -> str:
    for old, new in _RENAMES.items():
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize(
    "scenario, horizon",
    [(degradation_scenario(), 3000), (failover_scenario(), 2000)],
    ids=["degradation", "failover"],
)
def test_artifacts_do_not_depend_on_actor_names(scenario, horizon):
    """Behaviors follow the use cases an actor triggers, not its name: the
    fixture under other actor names runs the same, row for row."""
    original = _simulate_artifacts(FIXTURE_MODEL, scenario, horizon)
    renamed = _simulate_artifacts(_renamed(FIXTURE_MODEL), _renamed(scenario), horizon)
    assert renamed["trace.tsv"] != original["trace.tsv"]
    assert renamed == {name: _renamed(text) for name, text in original.items()}


def test_dispatch_tables_stay_empty_until_the_first_dispatch(model):
    """Building a world compiles nothing, so set-up cost and memory do not
    grow with tables that a run may never use."""
    _, _, world = build_world(scale_peers(model, 500))
    machines = [m for proc in world.processes.values() for m in proc.machines.values()]
    assert len(machines) > 1000
    assert not any(m.chart._routes or m.chart._plans for m in machines)


def test_world_at_500_peers_shares_one_chart_per_machine_kind(model):
    """Host codec, peer codec, session, standby, operator and monitor: six
    charts, however many machines run them, and little memory per machine."""
    tracemalloc.start()
    try:
        _, _, world = build_world(scale_peers(model, 500))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    machines = [m for proc in world.processes.values() for m in proc.machines.values()]
    assert len(machines) == 1005
    assert len({m.chart for m in machines}) == 6
    ours = snapshot.filter_traces(
        [tracemalloc.Filter(True, statechart.__file__), tracemalloc.Filter(True, fixture.__file__)]
    )
    assert sum(s.size for s in ours.statistics("filename")) < 1024 * len(machines)


# The degradation scenario at 50 peers, horizon 3000, seed 11, as recorded
# before machines of one kind shared a chart; message-id lanes above the
# fixture's six peers reach these bytes.
_PINNED_50_PEERS = {
    "trace.tsv": "88c881b51d715eed695597e446c6ace1a7e8d54aa0afcdbdb12e648a5bf3382f",
    "metrics.txt": "b158ad474fd852fcb7c26eb45a12f82a6fc673981ea0442856a69460c137fe62",
}


def test_50_peer_artifacts_match_pinned_digests(model):
    _, _, world = build_world(scale_peers(model, 50))
    trace, metrics = world.run(parse_scenario(degradation_scenario(peers=50)), 3000, seed=11)
    artifacts = {"trace.tsv": trace.to_text(), "metrics.txt": metrics.to_text()}
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in artifacts.items()}
    assert digests == _PINNED_50_PEERS


# Two runs recorded before events were kept in a calendar keyed by time:
# failover under odd thread periods, whose activations collide with scans,
# stimuli and ticks at many times, and 500 idle peers, whose 1,515 periodic
# activations share a few times.
_PINNED_FAILOVER_ODD_PERIODS = {
    "trace.tsv": "5af56449d1a01e5bb7d0b97897d45d228f93cf9d3c3550629d46b489cb53152c",
    "metrics.txt": "f161ce2940487775e3d08a5a07946381bc43a4f144bdf464145f7216dc057cc7",
}
_PINNED_500_PEERS_IDLE = {
    "trace.tsv": "5d71e596545e634a6b120b83a1aa37436d15a75c73cf8ea6c6a0a2682959951d",
    "metrics.txt": "71e49adb3e2fc496e0c469628bfaea51f8b6b8515566a8de0fd72e666d7f9fc8",
}


def _digests(trace, metrics) -> dict[str, str]:
    artifacts = {"trace.tsv": trace.to_text(), "metrics.txt": metrics.to_text()}
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in artifacts.items()}


def test_failover_artifacts_under_odd_periods_match_pinned_digests():
    plan, channels, w0 = build_world()
    world = instantiate(plan, channels, build_behaviors(plan, channels), SimConfig(7, 13, 29), w0.failover)
    trace, metrics = world.run(parse_scenario(failover_scenario()), 4000, seed=5)
    assert len(trace.rows) == 31741
    assert _digests(trace, metrics) == _PINNED_FAILOVER_ODD_PERIODS


def test_idle_500_peer_artifacts_match_pinned_digests(model):
    _, _, world = build_world(scale_peers(model, 500))
    trace, metrics = world.run(Scenario(), 300, seed=0)
    assert len(trace.rows) == 21197
    assert _digests(trace, metrics) == _PINNED_500_PEERS_IDLE


# Two runs recorded before the periodic threads of every process shared one
# calendar event per period: degradation with no kill under a 1 ms receiver
# and watchdog, which share a sweep in which the watchdog trips processes,
# and failover with all three threads in one sweep.
_PINNED_SHARED_RECEIVER_WATCHDOG = {
    "trace.tsv": "c01e6ef3c9e11bea14ae6ea4cc35815e939ed6edc8259dea533caaec87d682bb",
    "metrics.txt": "88e89026d337456c7906d34bf4329807c38de9458fb43556e9cd631c69fdf1ee",
}
_PINNED_FAILOVER_ONE_PERIOD = {
    "trace.tsv": "e40c6d482ea61426f359d2993ebb41d8106598d28807c778a862690a5ceae80f",
    "metrics.txt": "5e3155ee8adc72f22f52085a5501339965ec86783906af601e848f2e0e9f0c6b",
}


def test_degradation_under_a_shared_receiver_and_watchdog_sweep_matches_pinned_digests():
    plan, channels, w0 = build_world()
    world = instantiate(plan, channels, build_behaviors(plan, channels), SimConfig(1, 50, 1), w0.failover)
    trace, metrics = world.run(parse_scenario(degradation_scenario(kill=None)), 2000, seed=0)
    assert (158, "LocalHost#1", "watchdog") == metrics.faults[0]
    assert len(trace.rows) == 41689
    assert _digests(trace, metrics) == _PINNED_SHARED_RECEIVER_WATCHDOG


def test_failover_under_one_sweep_for_all_threads_matches_pinned_digests():
    plan, channels, w0 = build_world()
    world = instantiate(plan, channels, build_behaviors(plan, channels), SimConfig(50, 50, 50), w0.failover)
    trace, metrics = world.run(parse_scenario(failover_scenario()), 4000, seed=0)
    assert [(f.main, f.standby) for f in metrics.failover] == [
        ("LocalHost#0", "StandbyCI#0"), ("LocalHost#1", "StandbyCI#0"),
    ]
    assert len(trace.rows) == 7659
    assert _digests(trace, metrics) == _PINNED_FAILOVER_ONE_PERIOD
