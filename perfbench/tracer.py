"""Spans and counters around viewcase's public functions, for the traced run.

`Tracer.install` replaces each function listed in TARGETS at the name its
caller looks it up by (a module global or a class attribute) with a wrapper
that records one span per call. A span's self time is its duration minus
the time covered by the spans it encloses. Spans are aggregated in memory
per name; only `statechart.dispatch` keeps one record per call, for its
percentiles and its growth over virtual time. Nothing is written into the
program's artifacts. Only the traced child process installs the wrappers.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, class or None, attribute, span name). The module is the one whose
# global (or class) the caller resolves at call time, e.g. the engine calls
# `dispatch` through `viewcase.engine`, and `build_world` calls `build_plan`
# through `viewcase.fixture`.
TARGETS = (
    ("viewcase.model", None, "parse_model", "model.parse"),
    ("viewcase.model", None, "validate_model", "model.validate"),
    ("viewcase.fixture", None, "build_plan", "partition.build_plan"),
    ("viewcase.fixture", None, "dependency_graph", "ipc.dependency_graph"),
    ("viewcase.fixture", None, "assign_ipc", "ipc.assign_ipc"),
    ("viewcase.fixture", None, "build_behaviors", "fixture.build_behaviors"),
    ("viewcase.fixture", None, "instantiate", "engine.instantiate"),
    ("viewcase.engine", "SimWorld", "run", "engine.run"),
    ("viewcase.engine", "SimWorld", "post_mailbox", "engine.post_mailbox"),
    ("viewcase.engine", "SimWorld", "channel_send", "engine.channel_send"),
    ("viewcase.engine", "SimWorld", "resolve_destination", "engine.resolve_destination"),
    ("viewcase.engine", "SimWorld", "rebind_endpoints", "engine.rebind_endpoints"),
    ("viewcase.engine", None, "dispatch", "statechart.dispatch"),
    ("viewcase.engine", None, "select_transition", "statechart.select_transition"),
    ("viewcase.statechart", None, "select_transition", "statechart.select_transition"),
    ("viewcase.comm", None, "packetize", "comm.packetize"),
    ("viewcase.comm", None, "auth_tag", "comm.auth_tag"),
    ("viewcase.comm", None, "crc16", "comm.crc16"),
    ("viewcase.comm", None, "convert_to_frame", "comm.convert_to_frame"),
    ("viewcase.comm", None, "convert_from_frame", "comm.convert_from_frame"),
    ("viewcase.comm", None, "reassemble", "comm.reassemble"),
)

# Spans that belong to the engine's own run loop; their self times add up
# to `engine.run_self_s`, i.e. `run` minus the statechart and comm spans.
_ENGINE_RUN = (
    "engine.run",
    "engine.post_mailbox",
    "engine.channel_send",
    "engine.resolve_destination",
    "engine.rebind_endpoints",
)

_MIB = float(1 << 20)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.missing: list[str] = []
        self.world = None  # the SimWorld being run; gives dispatches their virtual time
        self.dispatches: list[tuple[int, float, float]] = []  # (virtual ms, span s, self s)
        self.mailbox_peak = 0
        self.blocked_sends = 0
        self.outcomes: dict[str, int] = {}
        self.bytes: dict[str, int] = {"comm.auth_tag": 0, "comm.crc16": 0}
        self._open: list[float] = []  # child time covered so far, per open span
        self._last = (0.0, 0.0)  # (span s, self s) of the call that just ended

    # -- wrapping --

    def install(self) -> None:
        after = {
            "engine.post_mailbox": self._after_post,
            "engine.channel_send": self._after_send,
            "statechart.dispatch": self._after_dispatch,
            "comm.reassemble": self._after_reassemble,
            "comm.auth_tag": lambda result, args: self._add_bytes("comm.auth_tag", len(args[0]) + len(args[1])),
            "comm.crc16": lambda result, args: self._add_bytes("comm.crc16", len(args[0])),
        }
        for module_name, class_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
                continue
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, after.get(name)))

    def _wrap(self, inner, name: str, after):
        clock = time.perf_counter
        open_spans = self._open
        self.calls.setdefault(name, 0)
        self.total_s.setdefault(name, 0.0)
        self.self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += own
                self._last = (duration, own)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = inner
        return wrapper

    # -- counters taken at the boundaries --

    def _after_post(self, result, args) -> None:
        world, process_id = args[0], args[1]
        mailbox = getattr(world.processes[process_id], "mailbox", ())
        self.mailbox_peak = max(self.mailbox_peak, len(mailbox))

    def _after_send(self, result, args) -> None:
        if result is False:
            self.blocked_sends += 1

    def _after_dispatch(self, result, args) -> None:
        now = self.world.now if self.world is not None else 0
        self.dispatches.append((now, *self._last))

    def _after_reassemble(self, result, args) -> None:
        kind = result.kind.value
        self.outcomes[kind] = self.outcomes.get(kind, 0) + 1

    def _add_bytes(self, name: str, n: int) -> None:
        self.bytes[name] += n

    # -- results --

    def _mean_s(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total_s[name] / calls if calls else 0.0

    def _rate(self, name: str) -> float:
        busy = self.total_s.get(name, 0.0)
        return self.bytes[name] / _MIB / busy if busy > 0 else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; set-up spans are means per call, the rest sums.

        `late_over_early` compares the first and the last tenth of the
        virtual time during which dispatches happened.
        """
        spans_us = sorted(d * 1e6 for _, d, _ in self.dispatches)
        times = [t for t, _, _ in self.dispatches]
        first, last = (min(times), max(times)) if times else (0, 0)
        tenth = (last - first) / 10
        early = [s for t, _, s in self.dispatches if t <= first + tenth]
        late = [s for t, _, s in self.dispatches if t >= last - tenth]
        dispatch_calls = self.calls.get("statechart.dispatch", 0)
        return {
            "model.parse_s": self._mean_s("model.parse"),
            "model.validate_s": self._mean_s("model.validate"),
            "partition.build_plan_s": self._mean_s("partition.build_plan"),
            "ipc.dependency_graph_s": self._mean_s("ipc.dependency_graph"),
            "ipc.assign_ipc_s": self._mean_s("ipc.assign_ipc"),
            "fixture.build_behaviors_s": self._mean_s("fixture.build_behaviors"),
            "engine.instantiate_s": self._mean_s("engine.instantiate"),
            "statechart.dispatch.calls": dispatch_calls,
            "statechart.dispatch.self_s": self.self_s.get("statechart.dispatch", 0.0),
            "statechart.dispatch.us_p50": statistics.median(spans_us) if spans_us else 0.0,
            "statechart.dispatch.us_p99": _p99(spans_us),
            "statechart.dispatch.late_over_early": (
                statistics.fmean(late) / statistics.fmean(early) if early and late else 0.0
            ),
            "statechart.select_per_dispatch": (
                self.calls.get("statechart.select_transition", 0) / dispatch_calls
                if dispatch_calls
                else 0.0
            ),
            "engine.run_self_s": sum(self.self_s.get(n, 0.0) for n in _ENGINE_RUN),
            "engine.post_mailbox.calls": self.calls.get("engine.post_mailbox", 0),
            "engine.mailbox_peak": self.mailbox_peak,
            "engine.channel_send.calls": self.calls.get("engine.channel_send", 0),
            "engine.channel_send.blocked": self.blocked_sends,
            "engine.resolve_destination_s": self.total_s.get("engine.resolve_destination", 0.0),
            "engine.rebind_endpoints.calls": self.calls.get("engine.rebind_endpoints", 0),
            "comm.packetize_s": self.self_s.get("comm.packetize", 0.0),
            "comm.auth_tag_s": self.self_s.get("comm.auth_tag", 0.0),
            "comm.auth_tag.mib_per_s": self._rate("comm.auth_tag"),
            "comm.crc16_s": self.self_s.get("comm.crc16", 0.0),
            "comm.crc16.mib_per_s": self._rate("comm.crc16"),
            "comm.convert_to_frame_s": self.self_s.get("comm.convert_to_frame", 0.0),
            "comm.convert_from_frame_s": self.self_s.get("comm.convert_from_frame", 0.0),
            "comm.reassemble_s": self.self_s.get("comm.reassemble", 0.0),
            "comm.reassemble.complete": self.outcomes.get("complete", 0),
            "comm.reassemble.duplicate": self.outcomes.get("duplicate", 0),
            "comm.reassemble.rejected": self.outcomes.get("rejected", 0),
        }


def _p99(sorted_values: list[float]) -> float:
    if len(sorted_values) < 2:
        return sorted_values[0] if sorted_values else 0.0
    return statistics.quantiles(sorted_values, n=100)[98]
