"""Hierarchical state machines with run-to-completion dispatch.

A machine is a tree of states (nested OR-states, no orthogonal regions).
Messages are (signal, body, priority) tuples. Dispatch walks the state
context from the current leaf to the root and fires the first matching
transition (innermost precedence); the exit/transition/entry action
sequence runs atomically with respect to the machine's state and
variables, but not its resources (see :func:`dispatch`). Unmatched
messages are discarded unless a state in the current context defers the
signal, in which case they wait in the deferral buffer and are recalled,
in arrival order, once a dispatch lands in a context that no longer
defers them.

A machine kind is a :class:`Chart`, the validated state tree and its
transitions; a :class:`StateMachine` is one instance of a chart and holds
only what a dispatch changes: current leaf, variables, resources and
deferral buffer. Any number of instances, such as the processes of one
actor with multiplicity N, share one chart. A chart is built from
:class:`State` and :class:`Transition` values, by the :class:`Chart`
constructor, which validates them, or step by step through
:class:`MachineBuilder`; there is no text notation.
``StateMachine(chart, variables, name)`` starts an instance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

Guard = Callable[["ActorMessage", dict], bool]

# Shared by every state that defers nothing.
_NO_DEFERRALS: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ActorMessage:
    signal: str
    body: object = b""
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.signal:
            raise ValueError("signal must be non-empty")


@dataclass(frozen=True)
class Action:
    id: str
    fn: Optional[Callable[["ActionContext"], None]] = None
    cost_ms: int | float = 1


@dataclass(frozen=True)
class State:
    id: str
    parent: str | None = None
    initial_child: str | None = None
    entry_actions: tuple[Action, ...] = ()
    exit_actions: tuple[Action, ...] = ()
    deferred_signals: frozenset[str] = _NO_DEFERRALS


@dataclass(frozen=True)
class Transition:
    scope: str
    signal: str
    target: str
    actions: tuple[Action, ...] = ()
    guard: Guard | None = None


# Where one signal can fire from one leaf: (scope, candidates) pairs, innermost
# scope first, for each scope that has candidates.
_Route = tuple[tuple[str, tuple[Transition, ...]], ...]


class AmbiguousTransition(Exception):
    def __init__(self, scope: str, signal: str):
        super().__init__(f"two transitions at scope {scope!r} match signal {signal!r}")
        self.scope = scope
        self.signal = signal


class ActionFailure(Exception):
    def __init__(self, action_id: str, cause: Exception):
        super().__init__(f"action {action_id!r} failed: {cause}")
        self.action_id = action_id
        self.cause = cause


class ActionContext:
    """What an action sees: its machine, the message and the dispatch's virtual time."""

    __slots__ = ("machine", "msg", "emitted", "now")

    def __init__(self, machine: "StateMachine", msg: ActorMessage, now: int = 0):
        self.machine = machine
        self.msg = msg
        self.emitted: list[tuple[str, ActorMessage]] = []
        self.now = now  # virtual ms of the dispatch; 0 outside a simulation

    @property
    def vars(self) -> dict:
        return self.machine.variables

    @property
    def res(self) -> dict:
        return self.machine.resources

    def emit(self, use_case: str, msg: ActorMessage) -> None:
        """Send `msg` on every channel the process writes for `use_case`."""
        self.emitted.append((use_case, msg))


class DispatchResult(NamedTuple):
    fired: bool
    deferred: bool
    emitted: tuple[tuple[str, ActorMessage], ...] = ()
    actions_run: tuple[str, ...] = ()
    recalled: tuple[ActorMessage, ...] = ()
    cost_ms: int | float = 0
    action_costs: tuple[int | float, ...] = ()  # parallel to actions_run


# What every dispatch that fires nothing returns.
_DEFERRED = DispatchResult(fired=False, deferred=True)
_UNMATCHED = DispatchResult(fired=False, deferred=False)


class _Plan(NamedTuple):
    """What firing one transition from one leaf does, action by action.

    `quiet` is the result of a firing that emits and recalls nothing, built
    once with the plan; every such firing returns this one object.
    """

    fns: tuple[Optional[Callable[[ActionContext], None]], ...]
    ids: tuple[str, ...]
    costs: tuple[int | float, ...]
    cost_ms: int | float
    new_leaf: str
    quiet: DispatchResult


class Chart:
    """The validated, shared part of a machine kind.

    The states, transitions, child lists, root and initial leaf never change
    after construction. Dispatch compiles two tables into the chart on first
    use and never invalidates them, and every instance shares them: the
    route of each (leaf, signal) pair and the action plan of each (leaf, own
    transition) pair. The chart holds its own transitions, so their ids in
    the plans' keys stay theirs.
    """

    __slots__ = ("states", "transitions", "children", "root", "initial", "_routes", "_plans")

    def __init__(
        self,
        states: list[State] | tuple[State, ...],
        transitions: list[Transition] | tuple[Transition, ...],
    ):
        self.states: dict[str, State] = {}
        for s in states:
            if s.id in self.states:
                raise ValueError(f"duplicate state {s.id!r}")
            self.states[s.id] = s
        self.transitions = tuple(transitions)
        self.children: dict[str, list[str]] = {}
        roots = []
        for s in self.states.values():
            if s.parent is None:
                roots.append(s.id)
            else:
                if s.parent not in self.states:
                    raise ValueError(f"state {s.id!r} has unknown parent {s.parent!r}")
                self.children.setdefault(s.parent, []).append(s.id)
        if len(roots) != 1:
            raise ValueError(f"machine needs exactly one root state, found {roots}")
        self.root = roots[0]
        below_root = [self.root]
        for sid in below_root:
            below_root.extend(self.children.get(sid, ()))
        if len(below_root) != len(self.states):
            stray = sorted(set(self.states) - set(below_root))
            raise ValueError(f"states {stray} are not below root {self.root!r}: parent cycle")
        for sid, s in self.states.items():
            kids = self.children.get(sid, ())
            if kids and s.initial_child is None:
                raise ValueError(f"composite state {sid!r} has no initial child")
            if s.initial_child is not None and s.initial_child not in kids:
                raise ValueError(
                    f"initial child {s.initial_child!r} is not a child of {sid!r}"
                )
        for t in self.transitions:
            for end in (t.scope, t.target):
                if end not in self.states:
                    raise ValueError(f"transition references unknown state {end!r}")
        self.initial = self.descend(self.root)[-1]
        self._routes: dict[tuple[str, str], _Route] = {}  # keyed by (leaf, signal)
        self._plans: dict[tuple[str, int], _Plan] = {}  # keyed by (leaf, id(transition))

    def descend(self, sid: str) -> list[str]:
        """Initial-child chain from sid down to a leaf, inclusive."""
        chain = [sid]
        while self.children.get(chain[-1]):
            chain.append(self.states[chain[-1]].initial_child)  # type: ignore[arg-type]
        return chain

    def ancestors(self, sid: str) -> list[str]:
        """sid and its ancestors, innermost first."""
        out = [sid]
        while self.states[out[-1]].parent is not None:
            out.append(self.states[out[-1]].parent)  # type: ignore[arg-type]
        return out


class StateMachine:
    """One instance of a chart; quiescent between dispatches.

    `variables` is the machine's extended state and is rolled back when an
    action fails. `resources` holds long-lived objects such as codec
    buffers; like OS resources, they are not rolled back. `current` is the
    active leaf and `deferral_buffer` the messages it holds back; neither
    the rollback nor any dispatch writes to the chart's states or
    transitions.

    `StateMachine(chart, variables, name)` starts an instance at the chart's
    initial leaf.
    """

    __slots__ = ("chart", "name", "current", "variables", "resources", "deferral_buffer")

    def __init__(self, chart: Chart, variables: dict | None = None, name: str = ""):
        self.chart = chart
        self.name = name
        self.current = chart.initial
        self.variables: dict = dict(variables or {})
        self.resources: dict = {}
        self.deferral_buffer: list[ActorMessage] = []


def _deferred_along(chart: Chart, leaf: str) -> frozenset[str]:
    """The signals deferred by `leaf` and its ancestors."""
    return frozenset().union(*(chart.states[s].deferred_signals for s in chart.ancestors(leaf)))


def _route(chart: Chart, key: tuple[str, str]) -> _Route:
    """Build and keep the route of a (leaf, signal) key the chart has not seen."""
    leaf, signal = key
    groups = []
    for scope in chart.ancestors(leaf):
        group = tuple(t for t in chart.transitions if t.scope == scope and t.signal == signal)
        if group:
            groups.append((scope, group))
    route = chart._routes[key] = tuple(groups)
    return route


def select_transition(machine: StateMachine, msg: ActorMessage) -> Transition | None:
    """Innermost-precedence lookup along the state context.

    Scopes are tried innermost first; at each, every candidate's guard runs
    in declaration order against the instance's variables, and two that
    pass are ambiguous.
    """
    key = (machine.current, msg.signal)
    route = machine.chart._routes.get(key)
    if route is None:  # an empty route is kept too
        route = _route(machine.chart, key)
    variables = machine.variables
    for scope, group in route:
        matches = 0
        for t in group:
            if t.guard is None or t.guard(msg, variables):
                matches += 1
                found = t
        if matches == 1:
            return found
        if matches:
            raise AmbiguousTransition(scope, msg.signal)
    return None


def _walk(machine: StateMachine, transition: Transition) -> _Plan:
    """Exit chain up to the LCA, transition actions, entry chain down to a leaf."""
    chart = machine.chart
    target_chain = set(chart.ancestors(transition.target))
    # a chart has one root, so the two chains always meet
    lca = next(sid for sid in chart.ancestors(transition.scope) if sid in target_chain)
    context = chart.ancestors(machine.current)
    exit_states = context[: context.index(lca)]

    entry_states = []
    cursor = transition.target
    while cursor != lca:
        entry_states.append(cursor)
        cursor = chart.states[cursor].parent  # type: ignore[assignment]
    entry_states.reverse()
    descent = chart.descend(transition.target)
    entry_states.extend(descent[1:])

    plan: list[Action] = []
    for sid in exit_states:
        plan.extend(chart.states[sid].exit_actions)
    plan.extend(transition.actions)
    for sid in entry_states:
        plan.extend(chart.states[sid].entry_actions)
    costs = tuple(a.cost_ms for a in plan)
    fns, ids, cost_ms = tuple(a.fn for a in plan), tuple(a.id for a in plan), sum(costs)
    quiet = DispatchResult(True, False, (), ids, (), cost_ms, costs)
    return _Plan(fns, ids, costs, cost_ms, descent[-1], quiet)


def _plan(machine: StateMachine, transition: Transition, key: tuple[str, int]) -> _Plan:
    """Walk the plan of a (leaf, id(transition)) key the chart has not kept;
    kept for the chart's own transitions, walked every time for any other."""
    plan = _walk(machine, transition)
    if any(t is transition for t in machine.chart.transitions):
        machine.chart._plans[key] = plan
    return plan


_ATOMS = frozenset({int, float, bool, str, bytes, type(None)})
_STR = frozenset({str})


def _snapshot(variables: dict) -> dict:
    """Rollback copy of `variables`: shallow when it holds only atoms."""
    if type(variables) is dict:
        copied = dict(variables)
        if _STR.issuperset(map(type, copied)) and _ATOMS.issuperset(map(type, copied.values())):
            return copied
    return copy.deepcopy(variables)


_SELECT = object()  # dispatch's default: select the transition itself


def dispatch(
    machine: StateMachine,
    msg: ActorMessage,
    transition: Transition | None | object = _SELECT,
    now: int = 0,
) -> DispatchResult:
    """Run-to-completion dispatch of one message.

    Fires at most one transition; the full exit/transition/entry action
    sequence either completes or (on ActionFailure) restores the machine's
    pre-dispatch state, variables and deferral buffer. Resources are not
    rolled back. A caller that has already run `select_transition(machine,
    msg)` passes its result (None included) as `transition`, so guards run
    once per dispatch. `now` reaches the actions as `ctx.now`.

    The rollback snapshot of the variables is a shallow `dict` copy when
    every key is a `str` and every value an int, float, bool, str, bytes or
    None; `copy.deepcopy` returns those very objects, so the copies are
    equal. Any other variables are deep-copied. The deferral buffer is
    copied only when it holds messages; a failure after an action appended
    to an empty one restores a fresh empty list.

    A firing that emits and recalls nothing returns its plan's one `quiet`
    result, the same object each time; any other firing builds its own.
    Results are tuples of tuples, so no caller can change a shared one.
    """
    if transition is _SELECT:
        transition = select_transition(machine, msg)
    if transition is None:
        if msg.signal in _deferred_along(machine.chart, machine.current):
            machine.deferral_buffer.append(msg)
            return _DEFERRED
        return _UNMATCHED

    key = (machine.current, id(transition))
    plan = machine.chart._plans.get(key)
    if plan is None:
        plan = _plan(machine, transition, key)
    saved_current = machine.current
    saved_vars = _snapshot(machine.variables)
    buffer = machine.deferral_buffer
    saved_buffer = list(buffer) if buffer else None

    ctx = ActionContext(machine, msg, now)
    try:
        for step, fn in enumerate(plan.fns):
            if fn is not None:
                fn(ctx)
    except Exception as exc:
        machine.current = saved_current
        machine.variables = saved_vars
        machine.deferral_buffer = saved_buffer or []
        raise ActionFailure(plan.ids[step], exc) from exc

    machine.current = plan.new_leaf
    recalled: tuple[ActorMessage, ...] = ()
    buffer = machine.deferral_buffer
    if buffer:
        deferred = _deferred_along(machine.chart, plan.new_leaf)
        recalled = tuple(m for m in buffer if m.signal not in deferred)
        machine.deferral_buffer = [m for m in buffer if m.signal in deferred]

    if not ctx.emitted and not recalled:
        return plan.quiet
    return DispatchResult(
        True, False, tuple(ctx.emitted), plan.ids, recalled, plan.cost_ms, plan.costs
    )


class MachineBuilder:
    """Incremental chart construction; `chart()` validates the tree and
    `build()` starts an instance of it."""

    def __init__(self, name: str = ""):
        self.name = name
        self._states: list[State] = []
        self._transitions: list[Transition] = []

    @staticmethod
    def _as_actions(actions) -> tuple[Action, ...]:
        out = []
        for a in actions:
            out.append(a if isinstance(a, Action) else Action(str(a)))
        return tuple(out)

    def state(
        self,
        sid: str,
        parent: str | None = None,
        initial: str | None = None,
        entry=(),
        exit=(),
        defer=(),
    ) -> "MachineBuilder":
        self._states.append(
            State(
                sid,
                parent,
                initial,
                self._as_actions(entry),
                self._as_actions(exit),
                frozenset(defer) or _NO_DEFERRALS,
            )
        )
        return self

    def transition(
        self, scope: str, signal: str, target: str, actions=(), guard: Guard | None = None
    ) -> "MachineBuilder":
        self._transitions.append(
            Transition(scope, signal, target, self._as_actions(actions), guard)
        )
        return self

    def chart(self) -> Chart:
        return Chart(self._states, self._transitions)

    def build(self, variables: dict | None = None) -> StateMachine:
        return StateMachine(self.chart(), variables, self.name)

