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
millisecond completes in the tick that started it. A dispatch whose
actions cost nothing (it traces no action), a deferral and a discard take
no virtual time, however many there are: the tick offers the next message.
One method, `_spend_ms`, spends each millisecond of a timed dispatch, the
first included: it starts and traces an action when the one before has no
time left, and completes the dispatch after the last.

The clock: only `run` moves it, and it formats the time column of the
trace once per calendar time. Handlers, sends and `trace` read the clock,
so no public method takes a time, and every row is stamped with it.

Scenario files are line oriented (`#` comments):

    fault kill <process> at <ms>
    stimulus <process> <signal> at <ms> every <ms> priority <int> size <bytes>

`every 0` means a one-shot stimulus; `at`, `every` and `size` must not
be negative. Stimulus payloads are seeded random bytes; the seed affects
nothing else. Inputs are checked once, before anything runs: `instantiate`
refuses, in this order, a channel endpoint outside the plan, a reader named
twice, a message queue whose capacity is missing or below 1 or without
exactly one reader, and a channel whose writer also reads it;
`run` (via `check_run`) refuses a horizon below 1 or a scenario naming a
process the plan does not have.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from dataclasses import dataclass, field
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
    """A periodic scan, run as `scan_fn(world)`, and the channels it owns:
    receivers skip those segments and rebinding leaves every one of them
    with its writer."""

    scan_period: int
    scan_fn: Callable[["SimWorld"], None]
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
                if len(parts) != 5 or parts[1] != "kill" or parts[3] != "at":
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


@dataclass(frozen=True)
class SimTrace:
    """A finished trace, held as its TSV text: one newline-terminated row per line."""

    text: str = ""

    def to_text(self) -> str:
        return self.text

    @property
    def rows(self) -> list[str]:
        """The TSV lines of `text` without their newlines; `tests/audit.py` parses their fields."""
        return self.text.split("\n")[:-1]


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
    # (channel, producer, consumer): made on the first send, its first read
    links: defaultdict[tuple[str, str, str], LinkStats] = field(
        default_factory=lambda: defaultdict(LinkStats)
    )
    processes: dict[str, ProcessStats] = field(default_factory=dict)
    faults: list[tuple[int, str, str]] = field(default_factory=list)
    failover: list[FailoverRecord] = field(default_factory=list)

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
    active: tuple[DispatchResult, str, str, int, int | float] | None = None  # see `_spend_ms`
    last_progress: int = 0
    tick_scheduled: bool = False


# --- the world ----------------------------------------------------------------

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
        rts, known, queue = self.channels, set(processes), ChannelKind.MESSAGE_QUEUE
        for c in channels:
            cid, kind, writer, readers, _, _, _, capacity, _, _ = c
            if writer not in known or not known.issuperset(readers):
                pid = next(p for p in (writer, *readers) if p not in known)
                raise ValueError(f"channel {cid} names {pid!r}, which is not a process of the plan")
            # planned readers never repeat; a hand-built channel's may
            if len(readers) > 1 and len(set(readers)) < len(readers):
                dup = next(r for i, r in enumerate(readers) if r in readers[:i])
                raise ValueError(f"channel {cid} names {dup!r} twice")
            if kind is queue:
                if capacity is None or capacity < 1:
                    raise ValueError(f"message queue {cid} needs a capacity of at least 1, got {capacity}")
                if len(readers) != 1:
                    raise ValueError(f"message queue {cid} needs exactly one reader, got {len(readers)}")
            if writer in readers:
                raise ValueError(f"channel {cid} names {writer!r} as its writer and as a reader")
            rt = MessageQueueRt if kind is queue else SharedSegmentRt
            rts[cid] = rt(c, writer, list(readers))
        self._index_endpoints()
        self.metrics = Metrics(processes={pid: proc.stats for pid, proc in processes.items()})
        self._lines: list[str] = []  # trace lines not yet returned by `run`
        self._emit: Callable[[str], object] = self._lines.append
        self.used = False
        self.now = 0  # the clock, in virtual ms: only `run` moves it
        self._stamp = "0"  # str(self.now), the time column of every trace row
        self.horizon = 0
        self._times: list[int] = []  # a heap of the times that have a bucket in _due
        self._due: dict[int, list[tuple[Callable[..., None], tuple]]] = {}
        self._posted = 0  # mailbox posts so far; orders equal-rank entries

    # -- plumbing --

    def _index_endpoints(self) -> None:
        """Per-process lists in channel order: the channels each process writes,
        the periodic segments it beats, and the channels its receiver drains
        (queues, and the segments the scan does not own)."""
        writes: dict[str, list[ChannelRt]] = {pid: [] for pid in self.processes}
        beats: dict[str, list[SharedSegmentRt]] = {pid: [] for pid in self.processes}
        drains: dict[str, list[ChannelRt]] = {pid: [] for pid in self.processes}
        owned = self._owned
        for ch in self.channels.values():
            writes[ch.writer].append(ch)
            if isinstance(ch, SharedSegmentRt):
                if ch.channel.period_ms is not None:
                    beats[ch.writer].append(ch)
                if ch.channel.id in owned:
                    continue
            for reader in ch.readers:  # each once: `__init__` and `rebind_endpoints` see to it
                drains[reader].append(ch)
        self.writes, self.beats, self.drains = writes, beats, drains

    def _schedule(self, time: int, handler: Callable[..., None], *args) -> None:
        """Run `handler(*args)` at `time`, after every event already due then."""
        if time > self.horizon:
            return
        bucket = self._due.get(time)
        if bucket is None:
            self._due[time] = [(handler, args)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((handler, args))

    def trace(self, process: str, thread: str, event: str, detail: str) -> None:
        """The one place that knows the TSV layout of a trace row, stamped with the clock."""
        self._emit(f"{self._stamp}\t{process}\t{thread}\t{event}\t{detail}\n")

    # -- messaging --

    def post_mailbox(self, process_id: str, msg: ActorMessage, recalled: bool = False) -> None:
        # Only `_complete_dispatch` recalls, and it runs inside its own process's
        # tick, which is already due now: a recall wakes the processor a ms later.
        proc = self.processes[process_id]
        if not proc.alive:
            return
        now = self.now
        had_work = proc.active is not None or bool(proc.mailbox)
        self._posted += 1
        # tuple.__new__ builds the same entry without the NamedTuple's Python-level __new__
        entry = tuple.__new__(_MailEntry, (-msg.priority, 0 if recalled else 1, self._posted, msg))
        heapq.heappush(proc.mailbox, entry)
        if not had_work:
            proc.last_progress = now
        self._wake_processor(proc, now + 1 if recalled else now)

    def _wake_processor(self, proc: ProcessInstance, when: int) -> None:
        if not proc.tick_scheduled and proc.alive and (proc.active is not None or proc.mailbox):
            proc.tick_scheduled = True
            self._schedule(when, self._on_tick, proc)

    def channel_send(self, channel_id: str, msg: ActorMessage) -> bool:
        """Send on a channel; returns False when a full queue blocks the writer."""
        ch = self.channels[channel_id]
        if isinstance(ch, MessageQueueRt):
            reader = ch.readers[0]
            if not self.processes[reader].alive:
                self.metrics.links[channel_id, ch.writer, reader].sent += 1
                self.trace(ch.writer, "transmitter", "send", f"{channel_id} {msg.signal} undeliverable")
                return True
            if len(ch.items) >= ch.channel.capacity:
                self.trace(ch.writer, "transmitter", "send", f"{channel_id} {msg.signal} blocked")
                return False  # counted nowhere; the caller keeps the message or drops it
            ch.items.append(msg)
            stats = self.metrics.links[channel_id, ch.writer, reader]
            stats.sent += 1
            stats.delivered += 1
            self.trace(ch.writer, "transmitter", "send", f"{channel_id} {msg.signal} queued")
            return True
        ch.slot = msg
        ch.version += 1
        ch.last_write = self.now
        links, writer, processes = self.metrics.links, ch.writer, self.processes
        for reader in ch.readers:
            stats = links[channel_id, writer, reader]
            stats.sent += 1
            if processes[reader].alive:
                stats.delivered += 1
        self.trace(ch.writer, "transmitter", "send", f"{channel_id} {msg.signal} v{ch.version}")
        return True

    def rebind_endpoints(self, dead_id: str, standby_id: str) -> list[str]:
        """Put the standby in the failed process's place on each channel that
        names it, and return their ids. Channels the scan owns keep their
        endpoints, so the failed process stays visibly dead to the scan, and
        so does a channel that one of the two writes and the other reads,
        where the standby would read what it writes."""
        rebound, pair = [], {dead_id, standby_id}
        for ch in self.channels.values():
            cid = ch.channel.id
            if cid in self._owned or (ch.writer != dead_id and dead_id not in ch.readers):
                continue
            if ch.writer in pair and not pair.isdisjoint(ch.readers):
                continue
            if ch.writer == dead_id:
                ch.writer = standby_id
            ch.readers = list(dict.fromkeys(standby_id if r == dead_id else r for r in ch.readers))
            rebound.append(cid)
            self.trace(standby_id, "-", "rebind", f"{cid} from {dead_id}")
        self._index_endpoints()
        return rebound

    def kill(self, process_id: str, cause: str) -> None:
        proc = self.processes[process_id]
        if not proc.alive:
            return
        proc.alive = False
        proc.active = None
        self.metrics.faults.append((self.now, process_id, cause))
        self.trace(process_id, "-", "fault", cause)

    # -- event handlers --

    def _on_stimulus(self, spec: StimulusSpec, proc: ProcessInstance) -> None:
        if proc.alive:
            body = self.rng.randbytes(spec.size)
            self.trace(proc.id, "-", "stimulus", f"{spec.signal} size {spec.size}")
            self.post_mailbox(proc.id, ActorMessage(spec.signal, body, spec.priority))
        else:
            self.trace(proc.id, "-", "stimulus", f"{spec.signal} dropped")
        if spec.every > 0:
            self._schedule(self.now + spec.every, self._on_stimulus, spec, proc)

    def _on_scan(self) -> None:
        assert self.failover is not None
        self.failover.scan_fn(self)
        self._schedule(self.now + self.failover.scan_period, self._on_scan)

    def _on_sweep(self, period: int, threads: list[tuple[str, Callable[..., None]]]) -> None:
        """Activate the threads of one period for every live process, in plan order."""
        for proc in self.processes.values():
            for role, run in threads:
                if proc.alive:  # the watchdog may have just tripped
                    self.trace(proc.id, role, "activate", "")
                    run(proc)
        self._schedule(self.now + period, self._on_sweep, period, threads)

    def _watchdog_pass(self, proc: ProcessInstance) -> None:
        idle = self.now - proc.last_progress
        if (proc.active is not None or proc.mailbox) and idle >= 3 * self.config.watchdog_period:
            proc.stats.watchdog_trips += 1
            self.trace(proc.id, "watchdog", "trip", f"no progress for {idle}")
            self.kill(proc.id, "watchdog")

    def _receiver_pass(self, proc: ProcessInstance) -> None:
        for ch in self.drains[proc.id]:
            if isinstance(ch, MessageQueueRt):
                if ch.items:
                    items, ch.items = ch.items, []
                    for msg in items:
                        self.trace(proc.id, "receiver", "recv", f"{ch.channel.id} {msg.signal}")
                        self.post_mailbox(proc.id, msg)
            elif ch.slot is not None:
                self.trace(proc.id, "receiver", "sample", f"{ch.channel.id} v{ch.version}")
                self.post_mailbox(proc.id, ch.slot)

    def _transmitter_pass(self, proc: ProcessInstance) -> None:
        now = self.now
        for ch in self.beats[proc.id]:
            if now - ch.last_write >= ch.channel.period_ms or ch.version == 0:
                beat = ActorMessage(ch.channel.source, f"{proc.id}:{ch.version + 1}".encode(), 0)
                self.channel_send(ch.channel.id, beat)
        if proc.outbound:
            remaining: list[tuple[str, ActorMessage]] = []
            blocked: set[str] = set()
            for channel_id, msg in proc.outbound:
                # a blocked channel sends nothing more this pass, so its messages keep their order
                if channel_id in blocked or not self.channel_send(channel_id, msg):
                    blocked.add(channel_id)
                    remaining.append((channel_id, msg))
            proc.outbound = remaining

    def resolve_destination(self, proc: ProcessInstance, use_case: str) -> list[str]:
        """Every channel the process currently writes for `use_case`, the
        destination its actions emit to."""
        return [ch.channel.id for ch in self.writes[proc.id] if ch.channel.source == use_case]

    def _complete_dispatch(
        self, proc: ProcessInstance, result: DispatchResult, label: str, number: str
    ) -> None:
        if result.emitted:
            for use_case, msg in result.emitted:
                for channel_id in self.resolve_destination(proc, use_case):
                    proc.outbound.append((channel_id, msg))
        for msg in result.recalled:
            self.trace(proc.id, "processor", "recall", msg.signal)
            self.post_mailbox(proc.id, msg, recalled=True)
        proc.stats.dispatches += 1
        proc.last_progress = self.now
        proc.active = None
        self.trace(proc.id, "processor", "complete", f"{label} {number}")

    def _spend_ms(
        self, proc: ProcessInstance, result: DispatchResult, label: str, number: str,
        step: int = 0, ms_left: int | float = 0,
    ) -> None:
        """Spend one millisecond of a timed dispatch, the first included: start
        the next action when the one started last (`step` so far) has no time
        left (`ms_left`), and complete after the last. While the dispatch runs
        past this millisecond, `proc.active` holds the arguments after `proc`."""
        actions = result.actions_run
        if ms_left <= 0:
            ms_left = result.action_costs[step]
            self.trace(proc.id, "processor", "action", f"{label}/{actions[step]} {number}")
            step += 1
        ms_left -= 1
        if ms_left <= 0 and step == len(actions):
            self._complete_dispatch(proc, result, label, number)
        else:
            proc.active = (result, label, number, step, ms_left)

    def _offer(self, proc: ProcessInstance, msg: ActorMessage) -> bool:
        """Dispatch one message; returns True when the tick must stop, because
        a timed dispatch spent its first millisecond or the process was killed.

        A guard that raises, two guards that pass at one scope, or an action
        that fails kills this process alone, with its machine left as it was
        before the message.
        """
        for key, machine in proc.machines.items():
            try:
                transition = select_transition(machine, msg)
            except AmbiguousTransition:
                self.kill(proc.id, f"ambiguous:{key}/{msg.signal}")
                return True
            except Exception:
                self.kill(proc.id, f"guard:{key}/{msg.signal}")
                return True
            if transition is None:
                continue
            try:
                result = dispatch(machine, msg, transition, self.now)
            except ActionFailure as exc:
                self.kill(proc.id, f"action-failure:{key}/{exc.action_id}")
                return True
            # one dispatch at a time, and none after a kill: the earlier ones all completed
            label, number = f"{key}/{msg.signal}", f"d{proc.stats.dispatches + 1}"
            actions = result.actions_run
            self.trace(proc.id, "processor", "dispatch", f"{label} {number} actions {len(actions)}")
            if result.cost_ms <= 0:
                self._complete_dispatch(proc, result, label, number)
                return False
            self._spend_ms(proc, result, label, number)
            return True
        for key, machine in proc.machines.items():  # no machine matched
            if dispatch(machine, msg, None, self.now).deferred:
                proc.stats.deferrals += 1
                self.trace(proc.id, "processor", "defer", f"{key}/{msg.signal}")
                return False
        proc.stats.discards += 1
        self.trace(proc.id, "processor", "discard", msg.signal)
        return False

    def _on_tick(self, proc: ProcessInstance) -> None:
        proc.tick_scheduled = False
        if not proc.alive:
            return
        if proc.active is not None:
            self._spend_ms(proc, *proc.active)
        else:  # this ends: each offer pops an entry, and only a recall pushes one back
            while proc.mailbox and not self._offer(proc, heapq.heappop(proc.mailbox).msg):
                pass
        self._wake_processor(proc, self.now + 1)

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
            self._schedule(f.at, self.kill, f.process, "killed")
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
            self._stamp = str(time)
            for handler, args in due[time]:  # also runs the events appended during the pass
                handler(*args)
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

    def to_text(self, metrics: Metrics) -> str:
        lines = [
            "report-format: 1",
            f"verdict: {self.verdict}",
            f"failed: {' '.join(self.failed) if self.failed else 'none'}",
            f"lost-links: {len(self.lost_links)}",
        ]
        for key in self.lost_links:
            s = metrics.links[key]
            lines.append(f"lost: {key[0]} {key[1]} {key[2]} sent {s.sent} delivered {s.delivered}")
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
    return DegradationReport("graceful" if graceful else "total", tuple(failed), lost, intact)
