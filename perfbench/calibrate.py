"""A fixed reference loop that measures how fast the host runs Python right now.

On a shared host the same simulation can take twice as long in one minute
as in the next, and a slow stretch can outlast a whole benchmark run. The
reference loop slows down with it: it does the same kind of work as the
simulator (dict lookups, attribute updates on small objects, a scan over
a few thousand linked objects like the engine's channel scans, a byte-wise
CRC and a `copy.deepcopy`) and none of viewcase's code, so no change to the program
can make it faster or slower. A child reports each stretch it measures in
reference seconds: host seconds times REF_UNIT_S over the loop's mean time
per unit at about the same moments.

A slow stretch of the host can begin or end in the middle of a two-second
simulation, so a loop timed only before and after it can miss the change.
`Sampler` therefore runs two units of the loop from a timer signal every
PERIOD_S while the simulation runs, and the child takes the time of those
units out of what it measured. Only the second unit of each pair is used
for the speed: the first brings the loop back into the caches, so that how
much of them the program uses does not change the loop's speed.
`unit_seconds` times the loop back to back, for stretches too short for
the timer, such as one set-up.

Garbage collection is off while the loop runs, so the size of the program's
heap around it does not change its speed. The loop keeps no object it
makes: small objects kept from the middle of the program would pin pages of
the program's heap and raise its peak resident memory.
"""

from __future__ import annotations

import copy
import gc
import signal
import statistics
import time
from array import array

# One reference unit takes this long on the reference host, by definition.
REF_UNIT_S = 1e-3
BUDGET_S = 0.25  # host time spent on the loop per calibration
PERIOD_S = 0.02  # Sampler: host time between two pairs of units


class _Record:
    __slots__ = ("key", "total", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0
        self.count = 0


class _Channel:
    __slots__ = ("key", "ready", "depth", "peer")

    def __init__(self, key: int) -> None:
        self.key = key
        self.ready = key % 3 == 0
        self.depth = key % 7
        self.peer: _Channel = self


# made once, here, so that the loop allocates little
_RECORDS = {f"r{k}": _Record(k) for k in range(53)}
_KEYS = [f"r{i % 53}" for i in range(400)]
_CHANNELS = [_Channel(k) for k in range(4000)]
for _k, _channel in enumerate(_CHANNELS):
    _channel.peer = _CHANNELS[(_k * 7919) % len(_CHANNELS)]
_STATE = {f"k{i}": [i, (i, str(i)), {"x": i}] for i in range(4)}
_DATA = bytes(range(256)) * 2


def _unit() -> int:
    acc = 0
    for i, key in enumerate(_KEYS):
        record = _RECORDS[key]
        record.total = (record.total + i) & 0xFFFF
        record.count = (record.count + 1) & 0xFF
        acc = (acc * 31 + record.count) & 0xFFFF
    for channel in _CHANNELS:
        if channel.ready and channel.peer.depth > 3:
            acc ^= channel.key
    crc = 0xFFFF
    for byte in _DATA:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return acc ^ crc ^ len(copy.deepcopy(_STATE))


def unit_seconds() -> float:
    """Mean host seconds per reference unit, over about BUDGET_S of looping."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter
        units = 0
        start = clock()
        while True:
            _unit()
            units += 1
            elapsed = clock() - start
            if elapsed >= BUDGET_S:
                return elapsed / units
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs two reference units every PERIOD_S of host time, from SIGALRM.

    Use as a context manager around the stretch to measure. For every pair
    that ran, `starts`, `both` and `warm` hold when it began, how long both
    units took and how long the second took. They are arrays, whose numbers
    are not objects on the program's heap. The handler runs between two
    bytecodes of the main thread, so the measured code is only paused.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self.both = array("d")
        self.warm = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        start = clock()
        _unit()
        warm = clock()
        _unit()
        end = clock()
        self.starts.append(start)
        self.both.append(end - start)
        self.warm.append(end - warm)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __len__(self) -> int:
        return len(self.starts)

    def spent(self, start: float, end: float) -> float:
        """Host seconds the pairs that began within [start, end) took."""
        return sum(d for t, d in zip(self.starts, self.both) if start <= t < end)

    def unit_seconds(self) -> float:
        """Mean host seconds per warm unit; needs at least one pair."""
        return statistics.mean(self.warm)
