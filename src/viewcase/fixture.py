"""Reference deployment: a communication-interface model plus behaviors.

The model describes a tactical communication interface: an operator
console, two live link hosts with one standby, a bank of monitored
communication equipment, and six peer interfaces::

    Operator ──ExchangeStatus──▶ everyone          (periodic status segment)
    LocalHost#k ──SendData──▶ PeerCI#0..5          (framed packet queues)
    PeerCI#j ──ReceiveData──▶ LocalHost#0..1       (framed packet queues)
    * ──ReportHealth──▶ CommEquipment              (heartbeat segments)
    CommEquipment ──MonitorEquipment──▶ Operator   (alert summaries)

`build_behaviors` attaches one statechart per charted use case, whatever
actor triggers it; the codec charts' actions run the real wire codecs
(packetize / frame / deframe / reassemble), so a simulation run
exercises the same code paths as the unit-level packet tests. Each codec
direction is one function on one named step, `encode` out and
`reassemble` in; `authenticate`, `transmit` and `deframe` only cost
time, so no bytes wait in machine variables between steps. A node that
owns no charted use case gets a generic relay machine, which keeps
arbitrary models simulatable from the command line. `build_world` adds
the heartbeat scan, whose takeover and status summary the standby and
operator charts handle; rebinding moves a dead host's endpoints to its
standby except on a channel one of the two writes and the other reads.
No behavior depends on an actor's name; only `scale_peers` reads one.
"""

from __future__ import annotations

from dataclasses import replace

from . import comm
from .engine import FailoverConfig, FailoverRecord, SimWorld, instantiate
from .ipc import ChannelKind, IpcChannel, assign_ipc, dependency_graph
from .model import UseCaseModel, parse_model
from .partition import MappingPolicy, ProcessPlan, build_plan
from .statechart import Action, ActionContext, ActorMessage, Chart, MachineBuilder, StateMachine

HEALTH_SOURCE = "ReportHealth"  # use case whose segments carry the heartbeats
TAKEOVER_PRIORITY = 250

FIXTURE_MODEL = """\
# Tactical communication interface deployment.
actor Operator multiplicity 1
actor LocalHost multiplicity 2
actor StandbyCI multiplicity 1
actor CommEquipment multiplicity 4 shared
actor PeerCI multiplicity 6

usecase SendData "Send outbound track data" codesize 9000
usecase ReceiveData "Receive inbound track data" codesize 9500
usecase ExchangeStatus "Exchange operational status" codesize 3000
usecase MonitorEquipment "Monitor equipment health" codesize 4000
usecase MaintainSession "Maintain peer sessions" codesize 2500
usecase TakeOver "Assume a failed interface role" codesize 5000
usecase DisplayStatus "Display interface status" codesize 2000
usecase ReportHealth "Publish liveness heartbeats" codesize 1000
usecase Authenticate "Authenticate message traffic" codesize 800
usecase LogTraffic "Log message traffic" codesize 1200

trigger Operator -> ExchangeStatus
trigger Operator -> DisplayStatus
trigger Operator -> ReportHealth
trigger LocalHost -> SendData
trigger LocalHost -> ReportHealth
trigger StandbyCI -> TakeOver
trigger StandbyCI -> ReportHealth
trigger CommEquipment -> MonitorEquipment
trigger PeerCI -> ReceiveData
trigger PeerCI -> MaintainSession
trigger PeerCI -> ReportHealth

relation include SendData <- Authenticate
relation include ReceiveData <- Authenticate
relation include ExchangeStatus <- Authenticate
relation include SendData <- LogTraffic
relation include ReceiveData <- LogTraffic

flow ExchangeStatus -> LocalHost periodic 200 size 256
flow ExchangeStatus -> StandbyCI periodic 200 size 256
flow ExchangeStatus -> CommEquipment periodic 200 size 256
flow ExchangeStatus -> PeerCI periodic 200 size 256
flow SendData -> PeerCI async size 1500
flow ReceiveData -> LocalHost async size 1500
flow ReportHealth -> CommEquipment periodic 100 size 64
flow MonitorEquipment -> Operator async size 128
"""


def scale_peers(model: UseCaseModel, count: int) -> UseCaseModel:
    """Same deployment with a different number of peer interfaces."""
    if count < 1:
        raise ValueError("peer count must be >= 1")
    actors = tuple(
        replace(a, multiplicity=count) if a.name == "PeerCI" else a for a in model.actors
    )
    return UseCaseModel(actors, model.use_cases, model.relations, model.flows)


# --- statechart actions ------------------------------------------------------


def _bump(counter: str):
    def fn(ctx: ActionContext) -> None:
        variables = ctx.vars
        variables[counter] = variables.get(counter, 0) + 1

    return fn


def _as_bytes(body: object) -> bytes:
    return bytes(body) if isinstance(body, (bytes, bytearray)) else b""


def _send_frames(
    uc: str, link: comm.LinkType, cfg: comm.CommConfig, table: dict[str, int], count_bits: int
):
    """Packetize the message body, frame every packet for the link and emit
    it on `uc`; packetize computes each packet's tag. The 32-bit message id is
    the lane `ctx.vars["lane"]` over a count of messages in its low `count_bits`."""
    priority = comm.classify_priority("track_data", table, cfg.default_priority)

    def fn(ctx: ActionContext) -> None:
        n = ctx.vars["produced"] = ctx.vars.get("produced", 0) + 1
        msg_id = (ctx.vars["lane"] << count_bits) | n % (1 << count_bits)
        app = comm.AppMessage(msg_id, "", "", "track_data", _as_bytes(ctx.msg.body))
        for pkt in comm.packetize(app, cfg.mtu_payload, cfg.auth_key, table, cfg.default_priority):
            ctx.emit(uc, ActorMessage("DATA_PKT", comm.convert_to_frame(pkt, link), priority))

    return fn


def _receive_frame(cfg: comm.CommConfig, table: dict[str, int]):
    """Decode the arriving frame, whose first byte 0x7E marks the escaped
    link, or count it `corrupt`; feed the packet to the machine's buffer, a
    resource: a failed action does not roll it back, and no dispatch copies it."""
    timeout = cfg.reassembly_timeout

    def fn(ctx: ActionContext) -> None:
        frame = _as_bytes(ctx.msg.body)
        link = comm.LinkType.LINK_B if frame[:1] == b"\x7e" else comm.LinkType.LINK_A
        try:
            pkt = comm.convert_from_frame(frame, link)
        except comm.FrameCorrupt:
            ctx.vars["corrupt"] = ctx.vars.get("corrupt", 0) + 1
            return
        buf = ctx.res.get("rx")
        if buf is None:
            buf = ctx.res["rx"] = comm.ReassemblyBuffer(owner="local")
        outcome = comm.reassemble(
            buf, pkt, now=ctx.now, timeout=timeout, key=cfg.auth_key, src="wire", table=table
        )
        comm.scan_timeouts(buf, ctx.now, timeout)
        kind = outcome.kind
        count = kind.value  # an enum property: read once
        ctx.vars[count] = ctx.vars.get(count, 0) + 1
        if kind is comm.OutcomeKind.COMPLETE:
            assert outcome.message is not None
            ctx.vars["last_size"] = len(outcome.message.payload)

    return fn


# --- machines ----------------------------------------------------------------

_NOTE_STATUS = Action("note_status", _bump("status_seen"))


def _loop_chart(leaf: str, loops: list[tuple[str, tuple[Action, ...]]]) -> Chart:
    """A root over the single leaf `leaf`, which handles each (signal,
    actions) pair of `loops` in a self-transition."""
    b = MachineBuilder().state("Top", initial=leaf).state(leaf, parent="Top")
    for signal, actions in loops:
        b.transition(leaf, signal, leaf, actions)
    return b.chart()


def _session_chart() -> Chart:
    b = MachineBuilder()
    b.state("Session", initial="Down")
    b.state("Down", parent="Session", defer=("PEER_MSG",))
    b.state("Up", parent="Session")
    b.transition("Down", "SESSION_UP", "Up", actions=(Action("open_session", _bump("opens")),))
    b.transition("Up", "SESSION_DOWN", "Down", actions=(Action("close_session", _bump("closes")),))
    b.transition("Up", "PEER_MSG", "Up", actions=(Action("relay_peer", _bump("peer_msgs")),))
    return b.chart()


def _record_alerts(ctx: ActionContext) -> None:
    ctx.vars["summaries"] = ctx.vars.get("summaries", 0) + 1
    text = _as_bytes(ctx.msg.body).decode("utf-8", "replace")
    if text:
        ctx.vars["alerts"] = ctx.vars.get("alerts", 0) + len(text.split("|"))


def _standby_chart(receive: tuple[Action, ...]) -> Chart:
    b = MachineBuilder()
    b.state("Top", initial="Standby")
    b.state("Standby", parent="Top", defer=("DATA_PKT",))
    b.state("Active", parent="Top")
    b.transition("Top", "TAKEOVER", "Active", actions=(Action("announce", _bump("takeovers")),))
    b.transition("Active", "DATA_PKT", "Active", actions=receive)
    b.transition("Standby", "ExchangeStatus", "Standby", actions=(_NOTE_STATUS,))
    b.transition("Active", "ExchangeStatus", "Active", actions=(_NOTE_STATUS,))
    return b.chart()


def _relay(uc: str):
    def fn(ctx: ActionContext) -> None:
        ctx.vars[f"relayed_{uc}"] = ctx.vars.get(f"relayed_{uc}", 0) + 1
        ctx.emit(uc, ActorMessage("DATA_PKT", _as_bytes(ctx.msg.body), ctx.msg.priority))

    return fn


def _generic_chart(owned: tuple[str, ...], inbound: tuple[str, ...]) -> Chart:
    """Fallback for models without dedicated behaviors: relay the `owned`
    use cases onto their channels, acknowledge the `inbound` signals."""
    relays = [(uc, (Action(f"relay_{uc}", _relay(uc)),)) for uc in owned]
    notes = [(sig, (Action(f"note_{sig}", _bump(f"seen_{sig}")),)) for sig in inbound]
    return _loop_chart("Idle", relays + notes)


def build_behaviors(
    plan: ProcessPlan,
    channels: list[IpcChannel],
    cfg: comm.CommConfig = comm.DEFAULT_CONFIG,
) -> dict[str, dict[str, StateMachine]]:
    """One behavior set per process node, keyed by the machine's use case.

    A node runs one machine, named after it, per charted use case among its
    `owned_use_cases()`, in that order; a node with none runs a generic
    relay, a service node nothing. A chart is built once per call and shared
    by its machines, a generic chart by the nodes with the same signals.
    Each codec machine holds its own message-id lane, counted from 1 in plan
    order, in its `lane` variable, so reassembly keys from different
    producers never collide at a shared consumer; the id's other bits count
    the machine's messages and wrap, harmlessly while 2^bits encodes of 3 ms
    or more outlast the reassembly timeout. The codec machines take MTU,
    key, reassembly timeout and priorities from cfg."""
    table = cfg.priority_table()
    receive = (Action("deframe"), Action("reassemble", _receive_frame(cfg, table)))
    codecs = {  # use case -> (leaf, trigger, link)
        "SendData": ("Idle", "SEND_REQ", comm.LinkType.LINK_A),
        "ReceiveData": ("Listening", "RX_DATA", comm.LinkType.LINK_B),
    }
    lanes = sum(uc in codecs for node in plan.nodes for uc in node.owned_use_cases())
    count_bits = 32 - lanes.bit_length()

    def codec(uc: str, leaf: str, trigger: str, link: comm.LinkType) -> Chart:
        send = _send_frames(uc, link, cfg, table, count_bits)
        encode = (Action("authenticate"), Action("encode", send), Action("transmit"))
        loops = [(trigger, encode), ("DATA_PKT", receive), ("ExchangeStatus", (_NOTE_STATUS,))]
        return _loop_chart(leaf, loops)

    record = (Action("record_alerts", _record_alerts),)
    charts = {uc: codec(uc, *spec) for uc, spec in codecs.items()}
    charts["MaintainSession"] = _session_chart()
    charts["TakeOver"] = _standby_chart(receive)
    charts["ExchangeStatus"] = _loop_chart("Watch", [("EQUIP_STATUS", record)])
    charts["MonitorEquipment"] = _loop_chart("Scanning", [("ExchangeStatus", (_NOTE_STATUS,))])
    generic: dict[tuple[tuple[str, ...], tuple[str, ...]], Chart] = {}
    reads: dict[str, set[str]] | None = None  # reader -> sources, on the first generic node
    out: dict[str, dict[str, StateMachine]] = {}
    lane = 0
    for node in plan.nodes:
        machines = out[node.id] = {}
        for uc in node.owned_use_cases():
            if uc in codecs:
                lane += 1
                machines[uc] = StateMachine(charts[uc], {"lane": lane}, node.id)
            elif uc in charts:
                machines[uc] = StateMachine(charts[uc], name=node.id)
        if machines:
            continue
        if reads is None:
            reads = {}
            for ch in channels:
                for reader in ch.readers:
                    reads.setdefault(reader, set()).add(ch.source)
        owned = set(node.owned_use_cases())
        inbound = reads.get(node.id, set()) | {"DATA_PKT"}
        key = (tuple(sorted(owned)), tuple(sorted(inbound - owned)))
        if key not in generic:
            generic[key] = _generic_chart(*key)
        machines["relay"] = StateMachine(generic[key], name=node.id)
    out.update((node.id, {}) for node in plan.shared_service_nodes)
    return out


# --- scenarios -----------------------------------------------------------------


def degradation_scenario(
    peers: int = 6, kill: str | None = "PeerCI#3", kill_at: int = 5000
) -> str:
    """Steady traffic on every link; optionally kill one peer mid-run."""
    lines = [
        "stimulus LocalHost#0 SEND_REQ at 100 every 200 priority 180 size 2500",
        "stimulus LocalHost#1 SEND_REQ at 150 every 200 priority 180 size 2500",
    ]
    for k in range(peers):
        lines.append(
            f"stimulus PeerCI#{k} RX_DATA at {120 + 10 * k} every 300 priority 200 size 700"
        )
    if kill:
        lines.append(f"fault kill {kill} at {kill_at}")
    return "\n".join(lines) + "\n"


def failover_scenario(peers: int = 6, kill_at: int = 1000) -> str:
    """Kill both live hosts at once; the standby must take their place."""
    lines = [
        f"stimulus PeerCI#{k} RX_DATA at {100 + 10 * k} every 200 priority 200 size 600"
        for k in range(peers)
    ]
    lines.append(f"fault kill LocalHost#0 at {kill_at}")
    lines.append(f"fault kill LocalHost#1 at {kill_at}")
    return "\n".join(lines) + "\n"


def standby_map(plan: ProcessPlan) -> dict[str, str]:
    """Every node that owns SendData fails over to the first node that owns
    TakeOver."""
    standby = next((n.id for n in plan.nodes if "TakeOver" in n.owned_use_cases()), None)
    if standby is None:
        return {}
    return {n.id: standby for n in plan.nodes if "SendData" in n.owned_use_cases()}


# --- world assembly --------------------------------------------------------------


def _failover(
    plan: ProcessPlan, channels: list[IpcChannel], cfg: comm.CommConfig
) -> FailoverConfig:
    """Heartbeat scan: read the HEALTH_SOURCE segments into a HealthTable,
    move each dead main of `standby_map` onto its standby (endpoints plus a
    TAKEOVER message), and send the monitor's alert queue one EQUIP_STATUS
    summary per scan whatever the alert count, so link traffic stays
    constant across runs; a summary that finds the queue full is dropped, not
    retried, and its `blocked` row records the drop. The scan owns every HEALTH_SOURCE channel."""
    standbys = standby_map(plan)
    health: list[tuple[str, str]] = []  # (segment id, writer) in channel order
    owned: list[str] = []  # every HEALTH_SOURCE channel
    queue: IpcChannel | None = None  # the first MonitorEquipment queue, written by the monitor
    for c in channels:
        if c.source == HEALTH_SOURCE:
            owned.append(c.id)
            if c.kind is ChannelKind.SHARED_SEGMENT:
                health.append((c.id, c.writer))
        elif c.source == "MonitorEquipment" and c.kind is ChannelKind.MESSAGE_QUEUE:
            queue = queue or c
    status_priority = comm.classify_priority("status", cfg.priority_table(), cfg.default_priority)
    table = comm.HealthTable()

    def scan(world: SimWorld) -> None:
        now = world.now
        world.trace("-", "-", "scan", "heartbeat")
        for channel_id, writer in health:
            table.observe(writer, world.channels[channel_id].version)
        alerts = table.scan(now, cfg.dead_threshold)
        for alert in alerts:
            main = alert.process
            world.trace(main, "-", "alert", alert.status.value)
            standby = standbys.get(main)
            if (
                alert.status is comm.HealthStatus.DEAD
                and standby in world.processes
                and world.processes[standby].alive
            ):
                world.rebind_endpoints(main, standby)
                world.post_mailbox(
                    standby, ActorMessage("TAKEOVER", main.encode(), TAKEOVER_PRIORITY)
                )
                world.trace(standby, "-", "takeover", f"from {main}")
                world.metrics.failover.append(FailoverRecord(main, standby, now, now))
        if queue and world.processes[queue.writer].alive:
            body = "|".join(f"{a.process}:{a.status.value}" for a in alerts).encode()
            world.channel_send(queue.id, ActorMessage("EQUIP_STATUS", body, status_priority))

    return FailoverConfig(scan_period=cfg.scan_period, scan_fn=scan, owned=frozenset(owned))


def build_world(
    model: UseCaseModel | None = None,
    policy: MappingPolicy | None = None,
    comm_config: comm.CommConfig | None = None,
) -> tuple[ProcessPlan, list[IpcChannel], SimWorld]:
    """Plan the model, wire channels, attach behaviors and the heartbeat
    scan, return a fresh world."""
    model = model or parse_model(FIXTURE_MODEL)
    policy = policy or MappingPolicy()
    cfg = comm_config or comm.DEFAULT_CONFIG
    plan = build_plan(model, policy)
    channels = assign_ipc(dependency_graph(plan, model))
    behaviors = build_behaviors(plan, channels, cfg)
    world = instantiate(plan, channels, behaviors, failover=_failover(plan, channels, cfg))
    return plan, channels, world
