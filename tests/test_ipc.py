"""IPC channel assignment: dependency edges, rules R1-R3, DOT rendering."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewcase.fixture import FIXTURE_MODEL, scale_peers
from viewcase.ipc import (
    DEFAULT_QUEUE_CAPACITY,
    ChannelKind,
    DependencyEdge,
    IpcChannel,
    UnroutableFlow,
    assign_ipc,
    dependency_graph,
    emit_component_graph,
)
from viewcase.model import FlowClass, TrafficFlow, parse_model
from viewcase.partition import MappingPolicy, Objective, build_plan, plan_diff


@pytest.fixture(scope="module")
def model():
    return parse_model(FIXTURE_MODEL)


@pytest.fixture(scope="module")
def plan(model):
    return build_plan(model, MappingPolicy())


@pytest.fixture(scope="module")
def channels(plan, model):
    return assign_ipc(dependency_graph(plan, model))


# --- dependency edges -----------------------------------------------------------


def test_periodic_flows_merge_into_one_fan_out_edge(plan, model):
    edges = dependency_graph(plan, model)
    status = [e for e in edges if e.flow.source == "ExchangeStatus"]
    assert len(status) == 1
    assert status[0].producer == "Operator#0"
    assert len(status[0].consumers) == 10  # everyone except the producer
    assert "Operator#0" not in status[0].consumers


def test_async_flows_route_pairwise(plan, model):
    edges = dependency_graph(plan, model)
    send = [e for e in edges if e.flow.source == "SendData"]
    assert len(send) == 12  # 2 hosts x 6 peers
    assert all(len(e.consumers) == 1 for e in send)
    pairs = {(e.producer, e.consumers[0]) for e in send}
    assert ("LocalHost#0", "PeerCI#3") in pairs
    assert ("LocalHost#1", "PeerCI#5") in pairs


def test_every_health_producer_gets_its_own_edge(plan, model):
    edges = dependency_graph(plan, model)
    health = [e for e in edges if e.flow.source == "ReportHealth"]
    assert len(health) == 10
    assert all(e.consumers == ("CommEquipment#*",) for e in health)


def _reference_dependency_graph(plan, model):
    """Brute-force edge derivation: list scans over nodes for every flow."""

    def nodes_of_actor(actor):
        return [n for n in plan.nodes if n.actor == actor]

    producers = {}
    for node in plan.all_nodes():
        for uc in node.owned_use_cases():
            producers.setdefault(uc, []).append(node)
    for flow in model.flows:
        if not nodes_of_actor(flow.sink):
            raise UnroutableFlow(flow)
    edges = []
    for node in plan.all_nodes():
        periodic_by_source = {}
        for flow in model.flows:
            if node not in producers.get(flow.source, []):
                continue
            if flow.klass is FlowClass.PERIODIC:
                periodic_by_source.setdefault(flow.source, []).append(flow)
            else:
                for consumer in nodes_of_actor(flow.sink):
                    if consumer.id != node.id:
                        edges.append(DependencyEdge(node.id, (consumer.id,), flow))
        for flows in periodic_by_source.values():
            consumers = []
            for flow in flows:
                for consumer in nodes_of_actor(flow.sink):
                    if consumer.id != node.id and consumer.id not in consumers:
                        consumers.append(consumer.id)
            if consumers:
                edges.append(DependencyEdge(node.id, tuple(consumers), flows[0]))
    return edges


@pytest.mark.parametrize("peers", [1, 6, 50, 500])
@pytest.mark.parametrize(
    "policy",
    [MappingPolicy(), MappingPolicy(Objective.MEMORY_BOUND, memory_budget=10**9)],
    ids=["fault-tolerance", "memory-bound"],
)
def test_dependency_graph_matches_brute_force_reference(model, peers, policy):
    scaled = scale_peers(model, peers)
    plan = build_plan(scaled, policy)
    # frozen-dataclass equality: same order, same consumer tuples, same flows
    assert dependency_graph(plan, scaled) == _reference_dependency_graph(plan, scaled)


def test_unroutable_flow_raises(model):
    text = (
        "actor A multiplicity 1\nactor Mute multiplicity 1\n"
        'usecase U "u" codesize 10\ntrigger A -> U\n'
        "flow U -> Mute async size 16\n"
    )
    bad_model = parse_model(text)
    bad_plan = build_plan(bad_model, MappingPolicy())
    with pytest.raises(UnroutableFlow) as err:
        dependency_graph(bad_plan, bad_model)
    assert "Mute" in str(err.value)


def test_edge_validation():
    flow = TrafficFlow("U", "A", FlowClass.ASYNC, 100)
    with pytest.raises(ValueError):
        DependencyEdge("P", (), flow)
    with pytest.raises(ValueError):
        DependencyEdge("P", ("P", "Q"), flow)


# --- rules R1-R3 ------------------------------------------------------------------


def test_r1_periodic_becomes_shared_segment():
    flow = TrafficFlow("Status", "X", FlowClass.PERIODIC, 256, 200)
    (ch,) = assign_ipc([DependencyEdge("W#0", ("R#0", "R#1"), flow)])
    assert ch.kind is ChannelKind.SHARED_SEGMENT
    assert ch.id == "shm:W#0:Status"
    assert ch.segment_size == 256  # single slot, one message wide
    assert ch.period_ms == 200
    assert ch.capacity is None


def test_r2_async_fan_out_becomes_shared_segment():
    flow = TrafficFlow("Bulk", "X", FlowClass.ASYNC, 1024)
    (ch,) = assign_ipc([DependencyEdge("W#0", ("A#0", "B#0", "C#0"), flow)])
    assert ch.kind is ChannelKind.SHARED_SEGMENT
    assert ch.id == "shm:W#0:Bulk:X"
    assert ch.period_ms is None


def test_r3_async_point_to_point_becomes_queue():
    flow = TrafficFlow("Cmd", "X", FlowClass.ASYNC, 64)
    (ch,) = assign_ipc([DependencyEdge("W#0", ("R#0",), flow)])
    assert ch.kind is ChannelKind.MESSAGE_QUEUE
    assert ch.id == "mq:W#0:R#0:Cmd"
    assert ch.capacity == DEFAULT_QUEUE_CAPACITY
    assert ch.segment_size is None


def test_channel_records_are_immutable_hashable_values():
    flow = TrafficFlow("Cmd", "X", FlowClass.ASYNC, 64)
    (ch,) = assign_ipc([DependencyEdge("W#0", ("R#0",), flow)])
    with pytest.raises(AttributeError):
        ch.capacity = 2
    (twin,) = assign_ipc([DependencyEdge("W#0", ("R#0",), flow)])
    assert twin == ch and twin is not ch
    assert hash(twin) == hash(ch) and len({ch, twin}) == 1
    roomy = ch._replace(capacity=2)
    assert roomy.capacity == 2 and roomy.id == ch.id and roomy != ch
    assert ch.capacity == DEFAULT_QUEUE_CAPACITY
    assert repr(ch).startswith("IpcChannel(id=")


def test_dependency_edges_are_immutable_hashable_values():
    flow = TrafficFlow("Cmd", "X", FlowClass.ASYNC, 64)
    edge = DependencyEdge("W#0", ("R#0",), flow)
    with pytest.raises(AttributeError):
        edge.consumers = ("R#1",)
    twin = DependencyEdge("W#0", ("R#0",), flow)
    assert twin == edge and twin is not edge
    assert hash(twin) == hash(edge) and len({edge, twin}) == 1
    wider = edge._replace(consumers=("R#0", "R#1"))
    assert type(wider) is DependencyEdge
    assert wider.consumers == ("R#0", "R#1") and wider.producer == edge.producer and wider != edge
    assert edge.consumers == ("R#0",)
    with pytest.raises(ValueError, match="^W#0 cannot consume its own edge$"):
        edge._replace(consumers=("W#0",))
    assert repr(edge).startswith("DependencyEdge(producer=")


# --- fixture channel census ----------------------------------------------------------


def test_fixture_channel_census(channels):
    assert len(channels) == 36
    kinds = Counter(c.kind for c in channels)
    assert kinds[ChannelKind.SHARED_SEGMENT] == 11  # 1 status + 10 health
    assert kinds[ChannelKind.MESSAGE_QUEUE] == 25  # 12 + 12 + 1 monitor


def test_fixture_status_segment_reaches_everyone(channels):
    status = [c for c in channels if c.source == "ExchangeStatus"]
    assert len(status) == 1
    assert status[0].id == "shm:Operator#0:ExchangeStatus"
    assert len(status[0].readers) == 10


def test_fixture_data_paths_are_queues(channels):
    send = sorted(c.id for c in channels if c.source == "SendData")
    assert send[0] == "mq:LocalHost#0:PeerCI#0:SendData"
    assert len(send) == 12
    recv = [c for c in channels if c.source == "ReceiveData"]
    assert len(recv) == 12
    assert all(c.kind is ChannelKind.MESSAGE_QUEUE for c in recv)
    monitor = [c for c in channels if c.source == "MonitorEquipment"]
    assert [c.id for c in monitor] == ["mq:CommEquipment#*:Operator#0:MonitorEquipment"]


def test_channel_ids_are_stable_across_replans(plan, model, channels):
    again = assign_ipc(dependency_graph(build_plan(model, MappingPolicy()), model))
    assert [c.id for c in again] == [c.id for c in channels]


def test_scale_out_only_adds_channels(model, plan, channels):
    big_model = scale_peers(model, 7)
    big_plan = build_plan(big_model, MappingPolicy())
    big_channels = assign_ipc(dependency_graph(big_plan, big_model))
    diff = plan_diff(plan, big_plan, channels, big_channels)
    assert diff.removed_channels == ()
    assert set(diff.added_channels) == {
        "mq:LocalHost#0:PeerCI#6:SendData",
        "mq:LocalHost#1:PeerCI#6:SendData",
        "mq:PeerCI#6:LocalHost#0:ReceiveData",
        "mq:PeerCI#6:LocalHost#1:ReceiveData",
        "shm:PeerCI#6:ReportHealth",
    }
    changed = dict(diff.changed_channels)
    assert set(changed) == {"shm:Operator#0:ExchangeStatus"}  # gains one reader
    assert any("readers" in c for c in changed["shm:Operator#0:ExchangeStatus"])


# --- DOT output -------------------------------------------------------------------


def test_component_graph_shape(plan, channels):
    dot = emit_component_graph(plan, channels)
    lines = dot.splitlines()
    assert lines[0] == "digraph G {"
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    node_lines = [l for l in lines if l.endswith('";')]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 11
    assert len(edge_lines) == 45  # 10 status + 12 + 12 + 10 health + 1 monitor
    assert '  "Operator#0";' in lines
    assert '  "LocalHost#0" -> "PeerCI#0" [label="mq"];' in lines
    assert '  "Operator#0" -> "CommEquipment#*" [label="shm"];' in lines


def test_component_graph_is_deterministic(plan, channels):
    assert emit_component_graph(plan, channels) == emit_component_graph(plan, channels)


# --- properties --------------------------------------------------------------------

_ids = st.from_regex(r"[A-Z][a-z]{0,4}#[0-9]", fullmatch=True)


@st.composite
def edges(draw):
    producer = draw(_ids)
    consumers = draw(
        st.lists(_ids.filter(lambda i: i != producer), min_size=1, max_size=5, unique=True)
    )
    klass = draw(st.sampled_from(list(FlowClass)))
    flow = TrafficFlow(
        draw(st.from_regex(r"[A-Z][a-z]{1,6}", fullmatch=True)),
        "Sink",
        klass,
        draw(st.integers(1, 4096)),
        draw(st.integers(1, 1000)) if klass is FlowClass.PERIODIC else None,
    )
    return DependencyEdge(producer, tuple(consumers), flow)


@settings(max_examples=150, deadline=None)
@given(st.lists(edges(), max_size=8))
def test_assignment_is_total_and_typed(edge_list):
    channels = assign_ipc(edge_list)
    assert len(channels) == len(edge_list)
    for e, c in zip(edge_list, channels):
        assert c.writer == e.producer
        assert c.readers == e.consumers
        if e.flow.klass is FlowClass.PERIODIC:
            assert c.kind is ChannelKind.SHARED_SEGMENT  # R1
        elif len(e.consumers) >= 2:
            assert c.kind is ChannelKind.SHARED_SEGMENT  # R2
        else:
            assert c.kind is ChannelKind.MESSAGE_QUEUE  # R3
        if c.kind is ChannelKind.MESSAGE_QUEUE:
            assert len(c.readers) == 1  # queues never fan out
            assert c.capacity == DEFAULT_QUEUE_CAPACITY
        else:
            assert c.segment_size == e.flow.message_size


def _reference_assign_ipc(edges):
    """Channel assignment as three separate rule branches, before R1 and R2 shared one."""
    channels = []
    for e in edges:
        uc = e.flow.source
        if e.flow.klass is FlowClass.PERIODIC:  # R1
            channels.append(
                IpcChannel(
                    id=f"shm:{e.producer}:{uc}",
                    kind=ChannelKind.SHARED_SEGMENT,
                    writer=e.producer,
                    readers=e.consumers,
                    klass=FlowClass.PERIODIC,
                    source=uc,
                    message_size=e.flow.message_size,
                    segment_size=e.flow.message_size,
                    period_ms=e.flow.period_ms,
                )
            )
        elif len(e.consumers) >= 2:  # R2
            channels.append(
                IpcChannel(
                    id=f"shm:{e.producer}:{uc}:{e.flow.sink}",
                    kind=ChannelKind.SHARED_SEGMENT,
                    writer=e.producer,
                    readers=e.consumers,
                    klass=FlowClass.ASYNC,
                    source=uc,
                    message_size=e.flow.message_size,
                    segment_size=e.flow.message_size,
                )
            )
        else:  # R3
            channels.append(
                IpcChannel(
                    id=f"mq:{e.producer}:{e.consumers[0]}:{uc}",
                    kind=ChannelKind.MESSAGE_QUEUE,
                    writer=e.producer,
                    readers=e.consumers,
                    klass=FlowClass.ASYNC,
                    source=uc,
                    message_size=e.flow.message_size,
                    capacity=DEFAULT_QUEUE_CAPACITY,
                )
            )
    return channels


@settings(max_examples=60, deadline=None)
@given(st.lists(edges(), max_size=8))
def test_assignment_matches_three_branch_reference(edge_list):
    assert assign_ipc(edge_list) == _reference_assign_ipc(edge_list)
