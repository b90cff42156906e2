"""Rebuild a run's `metrics.txt` and `report.txt` from its `trace.tsv` and `plan.txt`.

The engine keeps two records of one run: the trace rows, and the counters
behind `metrics.txt` and `report.txt`. This auditor derives the counters a
second way, from the rows and the plan alone, and imports nothing from the
simulator, so a counter that drifts from the trace shows as a difference
(differential testing: McKeeman, *Differential Testing for Software*, 1998).

    python3 tests/audit.py DIR...

checks every artifact directory written by `viewcase simulate`, prints one
line per directory and exits 1 at the first file that differs.

While it counts, `rebuild` checks nine rules of the rows themselves,
and raises ValueError naming the first row that breaks one (the command
line prints it and exits 1):

- time never decreases: no row is earlier than the row before it;
- a dead process runs no thread: after a process's `fault` row, the only
  rows it names are on the `-` thread (a dropped stimulus, the scan's
  `alert`). The standby's `rebind` row names the dead process only in
  its detail;
- a processor runs one dispatch at a time: per process, a `dispatch` row
  opens one only when none is open, and a `complete` row closes the open
  one, with the same label and `d<n>` number. A `fault` row clears it;
- each action takes one millisecond: after a `dispatch … actions N` row
  at t0, the open dispatch's k-th `action` row (k from 0) comes at t0 + k,
  and its `complete` row comes after exactly N `action` rows, at
  t0 + N - 1, or at t0 when N is 0. A `fault` row clears the open dispatch;
- a mailbox never goes below empty: per process, a `stimulus` row that is
  not `dropped` and each `recv`, `sample`, `recall` and `takeover` row add
  a message, each `dispatch`, `defer` and `discard` row takes one, and a
  `fault` row empties the mailbox;
- a queue holds between 0 and its `capacity:` in `plan.txt` messages: a
  `queued` send adds one and a `recv` row takes one, and a `blocked` send
  comes only when the queue is full;
- only a receiver receives: each `recv` or `sample` row follows a
  `receiver` `activate` row of the same process at the same time;
- the watchdog trips a process exactly when it is due: right after the
  process's `watchdog` `activate` row, a `trip` row comes if and only if
  the process has work (its mailbox holds a message or a dispatch is
  open) and its last progress lies 3 x the watchdog period or more
  before, and the row's `no progress for N` gives that time. Its last
  progress is its latest `complete` row, or the latest message posted
  while it had no work, or 0. The period is the time of the trace's
  first `watchdog` `activate` row, since every sweep starts at one
  period;
- only a dead process is taken over: a `takeover from X` row comes only
  after a `fault` row of X.

How the rows rebuild each `metrics.txt` line:

- `link:` from `send` rows, with each channel's kind, writer and readers
  taken from the plan. A queue's `send <ch> <sig> queued|undeliverable` adds
  one to `sent` on (channel, writer, first reader), and one to `delivered`
  if it was queued. A segment's `send <ch> <sig> v<n>` adds one to `sent`
  for every current reader, and one to `delivered` unless that reader
  already has a `fault` row. A `send <ch> <sig> blocked` row, a writer
  held back by a full queue, counts nothing and is skipped.
- `rebind <ch> from <dead>`, traced by the standby: a dead writer becomes
  the standby; the dead process leaves the readers, and the standby joins
  them unless it already reads the channel.
- `process:` counts the `complete`, `discard`, `defer` and `trip` rows of
  each process; every plan node has a line.
- `fault:` lists the `fault` rows in order; `takeover:` lists the
  `takeover` rows, detected and active both at the row's time.

The report's verdict and links follow from those counts and the plan's nodes.

Rule for new counters: every counter added to `metrics.txt` is rebuilt
here, or the change that adds it says why the trace cannot carry it.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple


class Row(NamedTuple):
    time: int
    process: str
    thread: str
    event: str
    detail: str


def parse_rows(text: str) -> list[Row]:
    """The rows of a trace's TSV text, one per newline-terminated line."""
    rows = []
    for line in text.split("\n")[:-1]:
        time, process, thread, event, detail = line.split("\t", 4)
        rows.append(Row(int(time), process, thread, event, detail))
    return rows


def rows_of(trace, event: str, process: str | None = None) -> list:
    """The rows of `trace` with this event, and this process if given."""
    rows = parse_rows(trace.to_text())
    return [r for r in rows if r.event == event and (process is None or r.process == process)]


@dataclass
class _Channel:
    kind: str
    writer: str
    readers: list[str]
    capacity: int  # a queue's; 0 for a segment


def parse_plan(text: str) -> tuple[list[str], dict[str, _Channel]]:
    """The node and service ids, and each channel's kind, writer, readers and capacity."""
    nodes: list[str] = []
    fields: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key in ("node", "service"):
            nodes.append(value)
        elif key == "channel":
            current = fields[value] = {}
        elif key in ("kind", "writer", "readers", "capacity"):
            current[key] = value
    channels = {
        cid: _Channel(
            f["kind"], f["writer"], [] if f["readers"] == "none" else f["readers"].split(),
            int(f.get("capacity", 0)),
        )
        for cid, f in fields.items()
    }
    return nodes, channels


_POSTS = frozenset(("stimulus", "recv", "sample", "recall", "takeover"))  # each adds a message
_TAKES = frozenset(("dispatch", "defer", "discard"))  # each takes one


def rebuild(trace_text: str, plan_text: str) -> tuple[str, str]:
    """The `metrics.txt` and `report.txt` texts that the trace and plan imply."""
    nodes, channels = parse_plan(plan_text)
    links: dict[tuple[str, str, str], list[int]] = {}  # key -> [sent, delivered]
    counts: dict[str, Counter] = {pid: Counter() for pid in nodes}
    faults: list[tuple[int, str, str]] = []
    failed: set[str] = set()
    takeovers: list[tuple[str, str, int]] = []
    running: dict[str, list] = {}  # process -> its open dispatch's ["<label> d<n>", t0, N, actions so far]
    mailbox: Counter = Counter()  # process -> messages waiting
    depth: Counter = Counter()  # queue id -> messages held
    receiver_at: dict[str, int] = {}  # process -> time of its last receiver activation
    progress: Counter = Counter()  # process -> time of its last progress
    period = 0  # the watchdog's, once its first activation is read
    due: str | None = None  # the process the last row found due to trip
    prev: tuple = ()  # the row before this one

    def count(key: tuple[str, str, str], delivered: bool) -> None:
        stats = links.setdefault(key, [0, 0])
        stats[0] += 1
        stats[1] += delivered

    last = 0
    for n, row in enumerate(parse_rows(trace_text), start=1):
        if row.time < last:
            raise ValueError(f"row {n}: time {row.time} is below {last}, the row before it")
        last = row.time
        if row.process in failed and row.thread != "-":
            dead = f"{row.process} traces {row.event} on {row.thread}"
            raise ValueError(f"row {n}: {dead} after its fault")
        event = row.event
        if due is not None and (event, row.process) != ("trip", due):
            raise ValueError(f"row {n}: {due} has work and no progress for 3 periods, yet does not trip")
        if event in _POSTS and not (event == "stimulus" and row.detail.endswith(" dropped")):
            if not mailbox[row.process] and row.process not in running:
                progress[row.process] = row.time
            mailbox[row.process] += 1
        elif event in _TAKES:
            mailbox[row.process] -= 1
            if mailbox[row.process] < 0:
                raise ValueError(f"row {n}: {row.process} traces {event} with its mailbox empty")
        if event in ("recv", "sample") and receiver_at.get(row.process) != row.time:
            idle = f"{row.process} traces {event} with no receiver activation at {row.time}"
            raise ValueError(f"row {n}: {idle}")
        has_work = mailbox[row.process] > 0 or row.process in running
        since = row.time - progress[row.process]
        due = None
        if event == "activate" and row.thread == "receiver":
            receiver_at[row.process] = row.time
        elif event == "activate" and row.thread == "watchdog":
            period = period or row.time
            if has_work and since >= 3 * period:
                due = row.process
        elif event == "trip":
            why = None
            if prev[:4] != (row.time, row.process, "watchdog", "activate"):
                why = "other than right after its watchdog activation"
            elif not has_work:
                why = "with no work"
            elif since < 3 * period:
                why = f"{since} ms after its last progress, within 3 x the period {period}"
            elif row.detail != f"no progress for {since}":
                why = f"with {row.detail!r}, {since} ms after its last progress"
            if why is not None:
                raise ValueError(f"row {n}: {row.process} trips {why}")
            counts[row.process][event] += 1
        elif event == "send":
            words = row.detail.split()
            cid = words[0]
            ch = channels[cid]
            if words[-1] == "blocked":
                if depth[cid] != ch.capacity:
                    full = f"{cid} holds {depth[cid]} of {ch.capacity}"
                    raise ValueError(f"row {n}: {row.process} is blocked on {full}")
                continue
            if ch.kind == "message-queue":
                if words[-1] == "queued":
                    depth[cid] += 1
                    if depth[cid] > ch.capacity:
                        over = f"{cid} holds {depth[cid]}, above its capacity {ch.capacity}"
                        raise ValueError(f"row {n}: {over}")
                count((cid, ch.writer, ch.readers[0]), words[-1] == "queued")
            else:
                for reader in ch.readers:
                    count((cid, ch.writer, reader), reader not in failed)
        elif event == "rebind":
            cid, _, dead = row.detail.split()
            ch = channels[cid]
            if ch.writer == dead:
                ch.writer = row.process
            if dead in ch.readers:
                ch.readers = [r for r in ch.readers if r != dead]
                if row.process not in ch.readers:
                    ch.readers.append(row.process)
        elif event == "recv":
            cid = row.detail.split()[0]
            depth[cid] -= 1
            if depth[cid] < 0:
                raise ValueError(f"row {n}: {row.process} receives from {cid}, which is empty")
        elif event == "dispatch":
            if row.process in running:
                busy = f"{row.process} opens {row.detail} while {running[row.process][0]} is open"
                raise ValueError(f"row {n}: {busy}")
            label, _, actions = row.detail.partition(" actions ")
            running[row.process] = [label, row.time, int(actions), 0]
        elif event == "action" and row.process in running:
            opened = running[row.process]
            due_at = opened[1] + opened[3]
            if row.time != due_at:
                why = "no later than the last" if row.time < due_at else f"not at {due_at}"
                raise ValueError(f"row {n}: {row.process} starts an action at {row.time}, {why}")
            opened[3] += 1
        elif event in ("complete", "discard", "defer"):
            if event == "complete":
                label, t0, actions, k = running.pop(row.process, (None, 0, 0, 0))
                if label != row.detail:
                    raise ValueError(f"row {n}: {row.process} completes {row.detail}, which is not open")
                if k != actions:
                    raise ValueError(f"row {n}: {row.process} completes {label} after {k} of its {actions} actions")
                done = t0 + max(actions - 1, 0)
                if row.time != done:
                    raise ValueError(f"row {n}: {row.process} completes {label} at {row.time}, not at {done}")
                progress[row.process] = row.time
            counts[row.process][event] += 1
        elif event == "fault":
            faults.append((row.time, row.process, row.detail))
            failed.add(row.process)
            running.pop(row.process, None)
            mailbox[row.process] = 0
        elif event == "takeover":
            main = row.detail.split()[-1]
            if main not in failed:
                raise ValueError(f"row {n}: {row.process} takes over from {main}, which has no fault row")
            takeovers.append((main, row.process, row.time))
        prev = row
    if due is not None:
        raise ValueError(f"the trace ends before {due}, which has work and no progress, trips")

    lines = ["metrics-format: 1", f"links: {len(links)}"]
    for key in sorted(links):
        sent, delivered = links[key]
        lines.append(f"link: {' '.join(key)} sent {sent} delivered {delivered}")
    lines.append(f"processes: {len(counts)}")
    for pid in sorted(counts):
        c = counts[pid]
        lines.append(
            f"process: {pid} dispatches {c['complete']} discards {c['discard']} "
            f"deferrals {c['defer']} trips {c['trip']}"
        )
    lines.append(f"faults: {len(faults)}")
    lines += [f"fault: {pid} at {t} cause {cause}" for t, pid, cause in faults]
    lines.append(f"failover: {len(takeovers)}")
    lines += [
        f"takeover: main {main} standby {standby} detected {t} active {t}"
        for main, standby, t in takeovers
    ]
    metrics = "\n".join(lines) + "\n"

    order = list(dict.fromkeys(pid for _, pid, _ in faults))
    lost = sorted(k for k, (sent, delivered) in links.items() if delivered < sent)
    graceful = all(k[1] in failed or k[2] in failed for k in lost)
    if failed and failed.issuperset(nodes):
        graceful = False
    lines = [
        "report-format: 1",
        f"verdict: {'graceful' if graceful else 'total'}",
        f"failed: {' '.join(order) if order else 'none'}",
        f"lost-links: {len(lost)}",
    ]
    for key in lost:
        sent, delivered = links[key]
        lines.append(f"lost: {' '.join(key)} sent {sent} delivered {delivered}")
    lines.append(f"intact-links: {len(links) - len(lost)}")
    report = "\n".join(lines) + "\n"
    return metrics, report


def first_difference(expected: str, actual: str) -> str | None:
    """None when the texts are equal, else the first line that differs."""
    if expected == actual:
        return None
    want, got = expected.splitlines(), actual.splitlines()
    for n, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            return f"line {n}: rebuilt {a!r}, written {b!r}"
    return f"rebuilt {len(want)} lines, written {len(got)}"


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: audit.py DIR...", file=sys.stderr)
        return 2
    for name in argv:
        out = Path(name)
        try:
            metrics, report = rebuild(
                (out / "trace.tsv").read_text(encoding="utf-8"),
                (out / "plan.txt").read_text(encoding="utf-8"),
            )
        except ValueError as exc:
            print(f"{out / 'trace.tsv'}: {exc}")
            return 1
        for filename, rebuilt in (("metrics.txt", metrics), ("report.txt", report)):
            diff = first_difference(rebuilt, (out / filename).read_text(encoding="utf-8"))
            if diff is not None:
                print(f"{out / filename}: {diff}")
                return 1
        print(f"{out}: metrics.txt and report.txt agree with trace.tsv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
