"""IPC planning: dependency graph over process nodes and channel assignment.

Traffic flows route between the nodes that own their source use case and
the nodes realizing the sink actor:

* periodic flows from one producer merge into a single edge whose consumer
  set is the union over all periodic flows of that use case — the producer
  publishes one snapshot that every subscriber samples;
* asynchronous flows route pairwise, one edge per (producer, consumer),
  because each delivery targets one peer.

Channel assignment rules:

* R1 — periodic edge, any fan-out: shared segment (single slot,
  last-writer-wins snapshot; readers never block).
* R2 — fan-out of two or more: shared segment.
* R3 — otherwise (asynchronous, point-to-point): message queue
  (FIFO within priority; writer blocks while full).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import FlowClass, TrafficFlow, UseCaseModel
from .partition import ProcessPlan

DEFAULT_QUEUE_CAPACITY = 64


class ChannelKind(Enum):
    SHARED_SEGMENT = "shared-segment"
    MESSAGE_QUEUE = "message-queue"


@dataclass(frozen=True)
class DependencyEdge:
    producer: str
    consumers: tuple[str, ...]
    flow: TrafficFlow

    def __post_init__(self) -> None:
        if not self.consumers:
            raise ValueError("edge needs at least one consumer")
        if self.producer in self.consumers:
            raise ValueError(f"{self.producer} cannot consume its own edge")


@dataclass(frozen=True)
class IpcChannel:
    id: str
    kind: ChannelKind
    writer: str
    readers: tuple[str, ...]
    klass: FlowClass
    source: str  # use case the traffic originates from
    message_size: int
    capacity: int | None = None  # message queues only
    segment_size: int | None = None  # shared segments only
    period_ms: int | None = None


class UnroutableFlow(Exception):
    def __init__(self, flow: TrafficFlow):
        super().__init__(
            f"flow {flow.source} -> {flow.sink}: sink actor has no process node"
        )
        self.flow = flow


def dependency_graph(plan: ProcessPlan, model: UseCaseModel) -> list[DependencyEdge]:
    """Derive inter-process edges from the plan's nodes and the model's flows."""
    sinks: dict[str, list[str]] = {}
    for node in plan.nodes:
        sinks.setdefault(node.actor, []).append(node.id)

    for flow in model.flows:
        if flow.sink not in sinks:
            raise UnroutableFlow(flow)

    edges: list[DependencyEdge] = []
    for node in plan.all_nodes():
        owned = set(node.owned_use_cases())
        periodic_by_source: dict[str, list[TrafficFlow]] = {}
        for flow in model.flows:
            if flow.source not in owned:
                continue
            if flow.klass is FlowClass.PERIODIC:
                periodic_by_source.setdefault(flow.source, []).append(flow)
            else:
                for consumer in sinks[flow.sink]:
                    if consumer != node.id:
                        edges.append(DependencyEdge(node.id, (consumer,), flow))
        for source, flows in periodic_by_source.items():
            consumers = dict.fromkeys(
                c for flow in flows for c in sinks[flow.sink] if c != node.id
            )
            if consumers:
                edges.append(DependencyEdge(node.id, tuple(consumers), flows[0]))
    return edges


def assign_ipc(edges: list[DependencyEdge]) -> list[IpcChannel]:
    """Apply rules R1-R3; every edge gets exactly one channel."""
    channels = []
    for e in edges:
        uc = e.flow.source
        if e.flow.klass is FlowClass.PERIODIC or len(e.consumers) >= 2:  # R1, R2
            suffix = "" if e.flow.klass is FlowClass.PERIODIC else f":{e.flow.sink}"
            channels.append(
                IpcChannel(
                    id=f"shm:{e.producer}:{uc}{suffix}",
                    kind=ChannelKind.SHARED_SEGMENT,
                    writer=e.producer,
                    readers=e.consumers,
                    klass=e.flow.klass,
                    source=uc,
                    message_size=e.flow.message_size,
                    segment_size=e.flow.message_size,
                    period_ms=e.flow.period_ms,  # None for async flows
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


def emit_component_graph(plan: ProcessPlan, channels: list[IpcChannel]) -> str:
    """Render the plan and channels as a DOT digraph with canonical ordering."""
    lines = ["digraph G {"]
    for node in plan.all_nodes():
        lines.append(f'  "{node.id}";')
    for c in channels:
        label = "shm" if c.kind is ChannelKind.SHARED_SEGMENT else "mq"
        for reader in c.readers:
            lines.append(f'  "{c.writer}" -> "{reader}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
