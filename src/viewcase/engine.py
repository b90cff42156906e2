"""Deterministic discrete-event runtime for process plans.

Each process node becomes a simulated process with the four-thread
template: a watchdog, a receiver that drains channel endpoints into the
mailbox, an event-driven processor that dispatches statechart messages,
and a transmitter that writes periodic snapshots and flushes emitted
messages. Time is a virtual integer millisecond clock. Pending events sit
in a calendar: a heap of the distinct pending times, and per time a FIFO
list of the events due then. Events execute in (time, scheduling) order,
and one scheduled for the current time runs after every event already due
then, so identical inputs always produce byte-identical traces.

Scheduling model: one calendar event per thread period, not per process,
activates the threads of that period (watchdog, receiver, transmitter) for
each live process in plan order. These activations are instantaneous and
effectively preempt the processor (at equal times they sort ahead of
processor ticks because they were scheduled a full period earlier). The
processor spends one virtual millisecond per statechart action, so a long
dispatch is interleaved with other activations but its run-to-completion
semantics are untouched — emissions and recalls apply only when the
dispatch finishes. Each action starts max(1, ceil(cost of the one before))
ms after the one before it. A dispatch of one action costing at most a
millisecond completes in the tick that started it; one whose actions cost
nothing traces no action and lets the next message dispatch in the same
tick.

Scenario files are line oriented (`#` comments):

    fault kill <process> at <ms>
    stimulus <process> <signal> at <ms> every <ms> priority <int> size <bytes>

`every 0` means a one-shot stimulus; `at`, `every` and `size` must not
be negative. Stimulus payloads are seeded random bytes; the seed affects
nothing else. Inputs are checked once, before anything runs: `instantiate`
refuses a channel endpoint outside the plan, and `run` (via `check_run`) a
horizon below 1 or a scenario naming a process the plan does not have.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from .ipc import ChannelKind, IpcChannel
from .model import strip_comment
from .partition import ProcessPlan
from .statechart import (
    ActionFailure, ActorMessage, AmbiguousTransition, DispatchResult, StateMachine, dispatch,
    select_transition,
)


@dataclass(frozen=True)
class SimConfig:
    """Thread periods; the watchdog trips after 3 x watchdog_period without progress."""

    receiver_period: int = 50
    transmitter_period: int = 50
    watchdog_period: int = 100

    def __post_init__(self) -> None:
        for name in ("receiver_period", "transmitter_period", "watchdog_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class FailoverConfig:
    """A periodic scan and the channels it owns: receivers skip those
    segments and rebinding leaves every one of them with its writer."""

    scan_period: int
    scan_fn: Callable[["SimWorld", int], None]
    owned: frozenset[str] = frozenset()  # channel ids

    def __post_init__(self) -> None:
        if self.scan_period < 1:
            raise ValueError(f"scan_period must be at least 1, got {self.scan_period}")


class MissingBehavior(Exception):
    def __init__(self, node_id: str):
        super().__init__(f"no state machine supplied for process node {node_id}")
        self.node_id = node_id


# --- scenario ----------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    process: str
    at: int


@dataclass(frozen=True)
class StimulusSpec:
    process: str
    signal: str
    at: int
    every: int  # 0 = one-shot
    priority: int
    size: int


@dataclass(frozen=True)
class Scenario:
    faults: tuple[FaultSpec, ...] = ()
    stimuli: tuple[StimulusSpec, ...] = ()


class ScenarioError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _non_negative(word: str, lineno: int) -> int:
    """The value of an `at`, `every` or `size` field, which may not be negative."""
    value = int(word)
    if value < 0:
        raise ScenarioError(lineno, f"at, every and size must not be negative, got {value}")
    return value


def parse_scenario(text: str) -> Scenario:
    faults: list[FaultSpec] = []
    stimuli: list[StimulusSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "fault":
                if parts[1] != "kill" or parts[3] != "at":
                    raise ValueError
                faults.append(FaultSpec(parts[2], _non_negative(parts[4], lineno)))
            elif parts[0] == "stimulus":
                if (
                    len(parts) != 11
                    or parts[3] != "at"
                    or parts[5] != "every"
                    or parts[7] != "priority"
                    or parts[9] != "size"
                ):
                    raise ValueError
                at, every, size = (_non_negative(parts[i], lineno) for i in (4, 6, 10))
                stimuli.append(StimulusSpec(parts[1], parts[2], at, every, int(parts[8]), size))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise ScenarioError(
                lineno,
                "expected 'fault kill <process> at <ms>' or "
                "'stimulus <process> <signal> at <ms> every <ms> priority <int> size <bytes>'",
            ) from None
    return Scenario(tuple(faults), tuple(stimuli))


# --- trace and metrics --------------------------------------------------------


class TraceRow(NamedTuple):
    time: int
    process: str
    thread: str
    event: str
    detail: str


@dataclass(frozen=True)
class SimTrace:
    """A finished trace, held as its TSV text: one newline-terminated row per line."""

    text: str = ""

    def to_text(self) -> str:
        return self.text

    @cached_property
    def rows(self) -> tuple[TraceRow, ...]:
        """The rows parsed back from `text`; details may hold spaces but no tab or newline."""
        rows = []
        for line in self.text.split("\n")[:-1]:
            time, process, thread, event, detail = line.split("\t", 4)
            rows.append(TraceRow(int(time), process, thread, event, detail))
        return tuple(rows)

    def rows_of(self, event: str, process: str | None = None) -> list[TraceRow]:
        return [
            r
            for r in self.rows
            if r.event == event and (process is None or r.process == process)
        ]


@dataclass
class LinkStats:
    sent: int = 0
    delivered: int = 0


@dataclass
class ProcessStats:
    dispatches: int = 0
    discards: int = 0
    deferrals: int = 0
    watchdog_trips: int = 0


@dataclass(frozen=True)
class FailoverRecord:
    main: str
    standby: str
    detected_at: int
    active_at: int


@dataclass
class Metrics:
    links: dict[tuple[str, str, str], LinkStats] = field(default_factory=dict)
    processes: dict[str, ProcessStats] = field(default_factory=dict)
    faults: list[tuple[int, str, str]] = field(default_factory=list)
    failover: list[FailoverRecord] = field(default_factory=list)

    def link(self, channel_id: str, producer: str, consumer: str) -> LinkStats:
        key = (channel_id, producer, consumer)
        if key not in self.links:
            self.links[key] = LinkStats()
        return self.links[key]

    def to_text(self) -> str:
        lines = ["metrics-format: 1", f"links: {len(self.links)}"]
        for (ch, prod, cons) in sorted(self.links):
            s = self.links[(ch, prod, cons)]
            lines.append(f"link: {ch} {prod} {cons} sent {s.sent} delivered {s.delivered}")
        lines.append(f"processes: {len(self.processes)}")
        for pid in sorted(self.processes):
            p = self.processes[pid]
            lines.append(
                f"process: {pid} dispatches {p.dispatches} discards {p.discards} "
                f"deferrals {p.deferrals} trips {p.watchdog_trips}"
            )
        lines.append(f"faults: {len(self.faults)}")
        for t, pid, cause in self.faults:
            lines.append(f"fault: {pid} at {t} cause {cause}")
        lines.append(f"failover: {len(self.failover)}")
        for f in self.failover:
            lines.append(
                f"takeover: main {f.main} standby {f.standby} "
                f"detected {f.detected_at} active {f.active_at}"
            )
        return "\n".join(lines) + "\n"


# --- channel runtimes ---------------------------------------------------------


@dataclass(slots=True)
class MessageQueueRt:
    channel: IpcChannel
    writer: str
    readers: list[str]
    items: list[ActorMessage] = field(default_factory=list)


@dataclass(slots=True)
class SharedSegmentRt:
    channel: IpcChannel
    writer: str
    readers: list[str]
    slot: ActorMessage | None = None
    version: int = 0
    last_write: int = 0


ChannelRt = MessageQueueRt | SharedSegmentRt


# --- processes ----------------------------------------------------------------


@dataclass(slots=True)
class _ActiveDispatch:
    """A fired dispatch whose actions are still spending virtual time."""

    result: DispatchResult
    label: str  # "<machine key>/<signal>", as traced
    number: str  # "d<n>", as traced
    step: int = 0  # actions started so far
    ms_left: int | float = 0


class _MailEntry(NamedTuple):
    """Mailbox entry; the smallest entry is dispatched next."""

    rank: int  # -priority
    lane: int  # 0 = recalled, 1 = normal arrival
    seq: int  # unique, so entries never compare their messages
    msg: ActorMessage


@dataclass
class ProcessInstance:
    id: str  # the plan node's id
    machines: dict[str, StateMachine]
    stats: ProcessStats = field(init=False, default_factory=ProcessStats)  # Metrics holds it too
    alive: bool = True
    mailbox: list[_MailEntry] = field(default_factory=list)  # a heap
    outbound: list[tuple[str, ActorMessage]] = field(default_factory=list)  # resolved channel ids
    active: _ActiveDispatch | None = None
    last_progress: int = 0
    tick_scheduled: bool = False

    def has_work(self) -> bool:
        return self.active is not None or bool(self.mailbox)


# --- the world ----------------------------------------------------------------

_MAX_BATCH = 256  # zero-cost processor outcomes folded into one tick


class SimWorld:
    """A single-use simulated deployment of a plan; see `instantiate`."""

    def __init__(
        self,
        plan: ProcessPlan,
        channels: list[IpcChannel],
        processes: dict[str, ProcessInstance],
        config: SimConfig,
        failover: FailoverConfig | None,
    ):
        self.plan = plan
        self.config = config
        self.failover = failover
        self._owned = failover.owned if failover is not None else frozenset()
        self.processes = processes
        self.channels: dict[str, ChannelRt] = {}
        for c in channels:
            for pid in (c.writer, *c.readers):
                if pid not in processes:
                    raise ValueError(f"channel {c.id} names {pid!r}, which is not a process of the plan")
            if c.kind is ChannelKind.MESSAGE_QUEUE:
                self.channels[c.id] = MessageQueueRt(c, c.writer, list(c.readers))
            else:
                self.channels[c.id] = SharedSegmentRt(c, c.writer, list(c.readers))
        self._index_endpoints()
        self.metrics = Metrics(processes={pid: proc.stats for pid, proc in processes.items()})
        self._lines: list[str] = []  # trace lines not yet returned by `run`
        self._emit: Callable[[str], object] = self._lines.append
        self.used = False
        self.now = 0
        self.horizon = 0
        self.rng = random.Random(0)
        self._times: list[int] = []  # a heap of the times that have a bucket in _due
        self._due: dict[int, list[tuple[Callable[..., None], tuple]]] = {}
        self._posted = 0  # mailbox posts so far; orders equal-rank entries

    # -- plumbing --

    def _index_endpoints(self) -> None:
        """Per-process lists in channel order: the channels each process writes,
        the periodic segments it beats, and the channels its receiver drains
        (queues, and the segments the scan does not own)."""
        self.writes: dict[str, list[ChannelRt]] = {pid: [] for pid in self.processes}
        self.beats: dict[str, list[SharedSegmentRt]] = {pid: [] for pid in self.processes}
        self.drains: dict[str, list[ChannelRt]] = {pid: [] for pid in self.processes}
        for ch in self.channels.values():
            self.writes[ch.writer].append(ch)
            if isinstance(ch, SharedSegmentRt):
                if ch.channel.period_ms is not None:
                    self.beats[ch.writer].append(ch)
                if ch.channel.id in self._owned:
                    continue
            for reader in dict.fromkeys(ch.readers):
                self.drains[reader].append(ch)

    @property
    def reads(self) -> dict[str, list[ChannelRt]]:
        """Per-process lists of every channel each process reads, in channel order."""
        reads: dict[str, list[ChannelRt]] = {pid: [] for pid in self.processes}
        for ch in self.channels.values():
            for reader in dict.fromkeys(ch.readers):
                reads[reader].append(ch)
        return reads

    def _schedule(self, time: int, handler: Callable[..., None], *args) -> None:
        """Run `handler(time, *args)` at `time`, after every event already due then."""
        if time > self.horizon:
            return
        bucket = self._due.get(time)
        if bucket is None:
            self._due[time] = [(handler, args)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((handler, args))

    def trace(self, time: int, process: str, thread: str, event: str, detail: str) -> None:
        """The one place that knows the TSV layout of a trace row."""
        self._emit(f"{time}\t{process}\t{thread}\t{event}\t{detail}\n")

    @property
    def trace_rows(self) -> tuple[TraceRow, ...]:
        """Rows traced outside `run`, such as by a direct call to a handler."""
        return SimTrace("".join(self._lines)).rows

    # -- messaging --

    def post_mailbox(self, process_id: str, msg: ActorMessage, now: int, recalled: bool = False) -> None:
        # Only `_complete_dispatch` recalls, and it runs inside its own process's
        # tick, which already owns `now`: a recall wakes the processor a ms later.
        proc = self.processes[process_id]
        if not proc.alive:
            return
        had_work = proc.has_work()
        self._posted += 1
        heapq.heappush(proc.mailbox, _MailEntry(-msg.priority, 0 if recalled else 1, self._posted, msg))
        if not had_work:
            proc.last_progress = now
        self._wake_processor(proc, now + 1 if recalled else now)

    def _wake_processor(self, proc: ProcessInstance, when: int) -> None:
        if proc.alive and proc.has_work() and not proc.tick_scheduled:
            proc.tick_scheduled = True
            self._schedule(when, self._on_tick, proc)

    def channel_send(self, channel_id: str, msg: ActorMessage, now: int) -> bool:
        """Send on a channel; returns False when a full queue blocks the writer."""
        ch = self.channels[channel_id]
        if isinstance(ch, MessageQueueRt):
            reader = ch.readers[0]
            stats = self.metrics.link(channel_id, ch.writer, reader)
            if not self.processes[reader].alive:
                stats.sent += 1
                self.trace(now, ch.writer, "transmitter", "send", f"{channel_id} {msg.signal} undeliverable")
                return True
            if len(ch.items) >= (ch.channel.capacity or 0):
                return False  # writer blocks; caller retries
            ch.items.append(msg)
            stats.sent += 1
            stats.delivered += 1
            self.trace(now, ch.writer, "transmitter", "send", f"{channel_id} {msg.signal} queued")
            return True
        ch.slot = msg
        ch.version += 1
        ch.last_write = now
        for reader in ch.readers:
            stats = self.metrics.link(channel_id, ch.writer, reader)
            stats.sent += 1
            if self.processes[reader].alive:
                stats.delivered += 1
        self.trace(now, ch.writer, "transmitter", "send", f"{channel_id} {msg.signal} v{ch.version}")
        return True

    def rebind_endpoints(self, dead_id: str, standby_id: str, now: int) -> list[str]:
        """Move a failed process's channel endpoints to its standby.

        Channels the scan owns keep their endpoints, so the failed process
        stays visibly dead to the scan.
        """
        rebound = []
        for ch in self.channels.values():
            if ch.channel.id in self._owned:
                continue
            changed = False
            if ch.writer == dead_id:
                ch.writer = standby_id
                changed = True
            if dead_id in ch.readers:
                ch.readers = [
                    r for r in ch.readers if r != dead_id
                ]
                if standby_id not in ch.readers:
                    ch.readers.append(standby_id)
                changed = True
            if changed:
                rebound.append(ch.channel.id)
                self.trace(now, standby_id, "-", "rebind", f"{ch.channel.id} from {dead_id}")
        self._index_endpoints()
        return rebound

    def kill(self, process_id: str, now: int, cause: str) -> None:
        proc = self.processes[process_id]
        if not proc.alive:
            return
        proc.alive = False
        proc.active = None
        self.metrics.faults.append((now, process_id, cause))
        self.trace(now, process_id, "-", "fault", cause)

    # -- event handlers --

    def _on_fault(self, now: int, proc: ProcessInstance) -> None:
        self.kill(proc.id, now, "killed")

    def _on_stimulus(self, now: int, spec: StimulusSpec, proc: ProcessInstance) -> None:
        if proc.alive:
            body = self.rng.randbytes(spec.size)
            self.trace(now, proc.id, "-", "stimulus", f"{spec.signal} size {spec.size}")
            self.post_mailbox(proc.id, ActorMessage(spec.signal, body, spec.priority), now)
        else:
            self.trace(now, proc.id, "-", "stimulus", f"{spec.signal} dropped")
        if spec.every > 0:
            self._schedule(now + spec.every, self._on_stimulus, spec, proc)

    def _on_scan(self, now: int) -> None:
        assert self.failover is not None
        self.failover.scan_fn(self, now)
        self._schedule(now + self.failover.scan_period, self._on_scan)

    def _on_sweep(self, now: int, period: int, threads: list[tuple[str, Callable[..., None]]]) -> None:
        """Activate the threads of one period for every live process, in plan order."""
        for proc in self.processes.values():
            for role, run in threads:
                if proc.alive:  # the watchdog may have just tripped
                    self.trace(now, proc.id, role, "activate", "")
                    run(proc, now)
        self._schedule(now + period, self._on_sweep, period, threads)

    def _watchdog_pass(self, proc: ProcessInstance, now: int) -> None:
        idle = now - proc.last_progress
        if proc.has_work() and idle >= 3 * self.config.watchdog_period:
            proc.stats.watchdog_trips += 1
            self.trace(now, proc.id, "watchdog", "trip", f"no progress for {idle}")
            self.kill(proc.id, now, "watchdog")

    def _receiver_pass(self, proc: ProcessInstance, now: int) -> None:
        for ch in self.drains[proc.id]:
            if isinstance(ch, MessageQueueRt):
                if ch.items:
                    items, ch.items = ch.items, []
                    for msg in items:
                        self.trace(now, proc.id, "receiver", "recv", f"{ch.channel.id} {msg.signal}")
                        self.post_mailbox(proc.id, msg, now)
            elif ch.slot is not None:
                self.trace(now, proc.id, "receiver", "sample", f"{ch.channel.id} v{ch.version}")
                self.post_mailbox(proc.id, ch.slot, now)

    def _transmitter_pass(self, proc: ProcessInstance, now: int) -> None:
        for ch in self.beats[proc.id]:
            if now - ch.last_write >= ch.channel.period_ms or ch.version == 0:
                beat = ActorMessage(
                    ch.channel.source, f"{proc.id}:{ch.version + 1}".encode(), 0
                )
                self.channel_send(ch.channel.id, beat, now)
        if proc.outbound:
            remaining: list[tuple[str, ActorMessage]] = []
            blocked: set[str] = set()
            for channel_id, msg in proc.outbound:
                if channel_id in blocked:
                    remaining.append((channel_id, msg))
                    continue
                if not self.channel_send(channel_id, msg, now):
                    blocked.add(channel_id)
                    remaining.append((channel_id, msg))
            proc.outbound = remaining

    def resolve_destination(self, proc: ProcessInstance, token: str) -> list[str]:
        """Map an emission destination `uc:<UseCase>` to every channel the
        process currently writes for that use case."""
        if not token.startswith("uc:"):
            raise ValueError(f"emission destination {token!r} is not uc:<UseCase>")
        source = token[3:]
        return [ch.channel.id for ch in self.writes[proc.id] if ch.channel.source == source]

    def _complete_dispatch(self, proc: ProcessInstance, active: _ActiveDispatch, now: int) -> None:
        for token, msg in active.result.emitted:
            for channel_id in self.resolve_destination(proc, token):
                proc.outbound.append((channel_id, msg))
        for msg in active.result.recalled:
            self.trace(now, proc.id, "processor", "recall", msg.signal)
            self.post_mailbox(proc.id, msg, now, recalled=True)
        proc.stats.dispatches += 1
        proc.last_progress = now
        proc.active = None
        self.trace(now, proc.id, "processor", "complete", f"{active.label} {active.number}")

    def _spend_ms(self, proc: ProcessInstance, now: int) -> None:
        a = proc.active
        assert a is not None
        actions = a.result.actions_run
        if a.ms_left <= 0 and a.step < len(actions):
            a.ms_left = a.result.action_costs[a.step]
            self.trace(now, proc.id, "processor", "action", f"{a.label}/{actions[a.step]} {a.number}")
            a.step += 1
        a.ms_left -= 1
        if a.ms_left <= 0 and a.step == len(actions):
            self._complete_dispatch(proc, a, now)

    def _pick_next(self, proc: ProcessInstance) -> _MailEntry | None:
        return heapq.heappop(proc.mailbox) if proc.mailbox else None

    def _offer(self, proc: ProcessInstance, msg: ActorMessage, now: int) -> bool:
        """Dispatch one message; returns True when the tick must stop, because
        a timed dispatch started or the process was killed.

        A guard that raises, two guards that pass at one scope, or an action
        that fails kills this process alone, with its machine left as it was
        before the message.
        """
        for key, machine in proc.machines.items():
            try:
                transition = select_transition(machine, msg)
            except AmbiguousTransition:
                self.kill(proc.id, now, f"ambiguous:{key}/{msg.signal}")
                return True
            except Exception:
                self.kill(proc.id, now, f"guard:{key}/{msg.signal}")
                return True
            if transition is None:
                continue
            try:
                result = dispatch(machine, msg, transition, now=now)
            except ActionFailure as exc:
                self.kill(proc.id, now, f"action-failure:{key}/{exc.action_id}")
                return True
            # one dispatch at a time, and none after a kill: the earlier ones all completed
            active = _ActiveDispatch(result, f"{key}/{msg.signal}", f"d{proc.stats.dispatches + 1}")
            self.trace(
                now, proc.id, "processor", "dispatch",
                f"{active.label} {active.number} actions {len(result.actions_run)}",
            )
            if result.cost_ms <= 0:
                self._complete_dispatch(proc, active, now)
                return False
            proc.active = active
            return True
        for key, machine in proc.machines.items():  # no machine matched
            if dispatch(machine, msg, None, now=now).deferred:
                proc.stats.deferrals += 1
                self.trace(now, proc.id, "processor", "defer", f"{key}/{msg.signal}")
                return False
        proc.stats.discards += 1
        self.trace(now, proc.id, "processor", "discard", msg.signal)
        return False

    def _on_tick(self, now: int, proc: ProcessInstance) -> None:
        proc.tick_scheduled = False
        if not proc.alive:
            return
        if proc.active is not None:
            self._spend_ms(proc, now)
        else:
            for _ in range(_MAX_BATCH):
                entry = self._pick_next(proc)
                if entry is None:
                    break
                if self._offer(proc, entry.msg, now):
                    if proc.alive:
                        self._spend_ms(proc, now)
                    break
        self._wake_processor(proc, now + 1)

    # -- run --

    def check_run(self, scenario: Scenario, horizon: int) -> None:
        """Raise ValueError for a horizon below 1, then for the first fault or
        stimulus target that is not a process of the plan."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        for name in [f.process for f in scenario.faults] + [s.process for s in scenario.stimuli]:
            if name not in self.processes:
                raise ValueError(f"scenario names {name!r}, which is not a process of the plan")

    def run(
        self, scenario: Scenario, horizon: int, seed: int = 0,
        sink: Callable[[str], object] | None = None,
    ) -> tuple[SimTrace, Metrics]:
        """Run to `horizon` virtual ms and return the trace and the metrics.

        Each trace row is one newline-terminated TSV line. Without a `sink`
        the lines are collected and returned as `SimTrace.text`; with one,
        each line goes to `sink(line)` as it is traced, nothing is kept and
        the returned trace is empty.
        """
        if self.used:
            raise RuntimeError("SimWorld instances are single-use; instantiate a fresh one")
        self.check_run(scenario, horizon)
        self.used = True
        self.horizon = horizon
        self.rng = random.Random(seed)
        if sink is not None:
            self._emit = sink

        for f in scenario.faults:
            self._schedule(f.at, self._on_fault, self.processes[f.process])
        for s in scenario.stimuli:
            self._schedule(s.at, self._on_stimulus, s, self.processes[s.process])
        cfg = self.config
        sweeps: dict[int, list[tuple[str, Callable[..., None]]]] = {}
        for period, role, run in (
            (cfg.watchdog_period, "watchdog", self._watchdog_pass),
            (cfg.receiver_period, "receiver", self._receiver_pass),
            (cfg.transmitter_period, "transmitter", self._transmitter_pass),
        ):
            sweeps.setdefault(period, []).append((role, run))
        for period, threads in sweeps.items():
            self._schedule(period, self._on_sweep, period, threads)
        if self.failover is not None:
            # offset by one tick so scans observe the writes of the same period
            self._schedule(self.failover.scan_period + 1, self._on_scan)

        times, due = self._times, self._due
        while times:
            time = heapq.heappop(times)
            self.now = time
            for handler, args in due[time]:  # also runs the events appended during the pass
                handler(time, *args)
            del due[time]

        if sink is not None:
            return SimTrace(), self.metrics
        text = "".join(self._lines)
        self._lines.clear()
        return SimTrace(text), self.metrics


def instantiate(
    plan: ProcessPlan,
    channels: list[IpcChannel],
    behaviors: dict[str, dict[str, StateMachine]],
    config: SimConfig | None = None,
    failover: FailoverConfig | None = None,
) -> SimWorld:
    """Materialize a plan: one four-thread process per node, channels wired."""
    config = config or SimConfig()
    processes: dict[str, ProcessInstance] = {}
    for node in plan.all_nodes():
        machines = behaviors.get(node.id, {})
        if not machines and not node.service and node.view.use_cases:
            raise MissingBehavior(node.id)
        processes[node.id] = ProcessInstance(node.id, dict(machines))
    return SimWorld(plan, channels, processes, config, failover)


# --- degradation verdict --------------------------------------------------------


@dataclass(frozen=True)
class DegradationReport:
    verdict: str  # "graceful" | "total"
    failed: tuple[str, ...]
    lost_links: tuple[tuple[str, str, str], ...]
    intact_links: tuple[tuple[str, str, str], ...]

    def to_text(self, metrics: Metrics | None = None) -> str:
        lines = [
            "report-format: 1",
            f"verdict: {self.verdict}",
            f"failed: {' '.join(self.failed) if self.failed else 'none'}",
            f"lost-links: {len(self.lost_links)}",
        ]
        for key in self.lost_links:
            suffix = ""
            if metrics is not None and key in metrics.links:
                s = metrics.links[key]
                suffix = f" sent {s.sent} delivered {s.delivered}"
            lines.append(f"lost: {key[0]} {key[1]} {key[2]}{suffix}")
        lines.append(f"intact-links: {len(self.intact_links)}")
        return "\n".join(lines) + "\n"


def degradation_report(metrics: Metrics, plan: ProcessPlan) -> DegradationReport:
    """Graceful iff every lossy link touches a failed process and survivors remain."""
    failed = list(dict.fromkeys(pid for _, pid, _ in metrics.faults))
    lost = tuple(sorted(k for k, s in metrics.links.items() if s.delivered < s.sent))
    intact = tuple(sorted(k for k, s in metrics.links.items() if s.delivered == s.sent))
    node_ids = [n.id for n in plan.all_nodes()]
    survivors = [n for n in node_ids if n not in failed]
    graceful = all(k[1] in failed or k[2] in failed for k in lost)
    if failed and not survivors:
        graceful = False
    return DegradationReport(
        "graceful" if graceful else "total", tuple(failed), lost, intact
    )
