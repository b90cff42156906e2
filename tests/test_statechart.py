"""Hierarchical statechart semantics: selection, ordering, deferral, atomicity."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewcase import statechart
from viewcase.statechart import (
    Action,
    ActionContext,
    ActionFailure,
    ActorMessage,
    AmbiguousTransition,
    Chart,
    DispatchResult,
    MachineBuilder,
    State,
    StateMachine,
    Transition,
    dispatch,
    select_transition,
)


def _recorder(log, name):
    return Action(name, lambda ctx: log.append(name))


def _nested_machine(log):
    """Top -> (CompA -> LeafA initial, CompB -> LeafB) with recorded actions."""
    b = MachineBuilder()
    b.state("Top", initial="CompA")
    b.state("CompA", parent="Top", initial="LeafA", entry=[_recorder(log, "enterA")], exit=[_recorder(log, "exitA")])
    b.state("LeafA", parent="CompA", entry=[_recorder(log, "enterLeafA")], exit=[_recorder(log, "exitLeafA")])
    b.state("CompB", parent="Top", initial="LeafB", entry=[_recorder(log, "enterB")])
    b.state("LeafB", parent="CompB", entry=[_recorder(log, "enterLeafB")])
    b.transition("CompA", "GO", "CompB", actions=[_recorder(log, "tGo")])
    return b.build()


# --- context and selection -------------------------------------------------------


def test_initial_state_descends_initial_children():
    m = _nested_machine([])
    assert m.current == "LeafA"
    assert m.chart.ancestors(m.current) == ["LeafA", "CompA", "Top"]


def test_innermost_transition_wins():
    b = MachineBuilder()
    b.state("Top", initial="Comp")
    b.state("Comp", parent="Top", initial="Leaf")
    b.state("Leaf", parent="Comp")
    b.transition("Top", "X", "Top")
    b.transition("Leaf", "X", "Leaf")
    m = b.build()
    t = select_transition(m, ActorMessage("X"))
    assert t is not None and t.scope == "Leaf"


def test_guard_falls_through_to_outer_scope():
    b = MachineBuilder()
    b.state("Top", initial="Leaf")
    b.state("Leaf", parent="Top")
    b.transition("Leaf", "X", "Leaf", guard=lambda msg, vars: vars.get("armed", False))
    b.transition("Top", "X", "Top")
    m = b.build()
    assert select_transition(m, ActorMessage("X")).scope == "Top"
    m.variables["armed"] = True
    assert select_transition(m, ActorMessage("X")).scope == "Leaf"


def test_two_matches_at_same_scope_are_ambiguous():
    b = MachineBuilder()
    b.state("Top", initial="Leaf")
    b.state("Leaf", parent="Top")
    b.transition("Leaf", "X", "Leaf")
    b.transition("Leaf", "X", "Top")
    m = b.build()
    with pytest.raises(AmbiguousTransition) as err:
        select_transition(m, ActorMessage("X"))
    assert err.value.scope == "Leaf" and err.value.signal == "X"


def test_guards_disambiguate_same_scope():
    b = MachineBuilder()
    b.state("Top", initial="Leaf")
    b.state("Leaf", parent="Top")
    b.transition("Leaf", "X", "Leaf", guard=lambda m, v: v.get("n", 0) > 0)
    b.transition("Leaf", "X", "Top", guard=lambda m, v: v.get("n", 0) <= 0)
    m = b.build()
    assert select_transition(m, ActorMessage("X")).target == "Top"


# --- ordering -----------------------------------------------------------------------


def test_exit_transition_entry_order():
    log = []
    m = _nested_machine(log)
    result = dispatch(m, ActorMessage("GO"))
    assert result.fired
    assert log == ["exitLeafA", "exitA", "tGo", "enterB", "enterLeafB"]
    assert m.current == "LeafB"
    assert result.actions_run == ("exitLeafA", "exitA", "tGo", "enterB", "enterLeafB")


def test_leaf_self_transition_runs_actions_only():
    log = []
    b = MachineBuilder()
    b.state("Top", initial="Leaf")
    b.state("Leaf", parent="Top", entry=[_recorder(log, "enter")], exit=[_recorder(log, "exit")])
    b.transition("Leaf", "TICK", "Leaf", actions=[_recorder(log, "work")])
    m = b.build()
    dispatch(m, ActorMessage("TICK"))
    assert log == ["work"]  # no exit/entry on a leaf self-loop
    assert m.current == "Leaf"


def test_composite_self_transition_resets_to_initial_child():
    log = []
    b = MachineBuilder()
    b.state("Top", initial="Comp")
    b.state("Comp", parent="Top", initial="First")
    b.state("First", parent="Comp", entry=[_recorder(log, "enterFirst")], exit=[_recorder(log, "exitFirst")])
    b.state("Second", parent="Comp", exit=[_recorder(log, "exitSecond")])
    b.transition("First", "NEXT", "Second")
    b.transition("Comp", "RESET", "Comp")
    m = b.build()
    dispatch(m, ActorMessage("NEXT"))
    assert m.current == "Second"
    log.clear()
    dispatch(m, ActorMessage("RESET"))
    assert m.current == "First"
    assert log == ["exitSecond", "enterFirst"]


def test_transition_to_composite_descends_initial_chain():
    log = []
    m = _nested_machine(log)
    dispatch(m, ActorMessage("GO"))
    assert m.current == "LeafB"  # CompB's initial child, not CompB itself


# --- deferral and recall ---------------------------------------------------------------


def _deferring_machine():
    b = MachineBuilder()
    b.state("Top", initial="Down")
    b.state("Down", parent="Top", defer=("DATA",))
    b.state("Up", parent="Top")
    b.transition("Down", "OPEN", "Up")
    b.transition("Up", "DATA", "Up", actions=[Action("consume")])
    b.transition("Up", "CLOSE", "Down")
    return b.build()


def test_unmatched_deferred_signal_is_buffered():
    m = _deferring_machine()
    r = dispatch(m, ActorMessage("DATA", b"1"))
    assert not r.fired and r.deferred
    assert [d.body for d in m.deferral_buffer] == [b"1"]


def test_recall_happens_in_arrival_order_after_leaving_deferring_state():
    m = _deferring_machine()
    dispatch(m, ActorMessage("DATA", b"1"))
    dispatch(m, ActorMessage("DATA", b"2", priority=99))
    r = dispatch(m, ActorMessage("OPEN"))
    assert r.fired
    assert [d.body for d in r.recalled] == [b"1", b"2"]  # arrival order, not priority
    assert m.deferral_buffer == []


def test_still_deferred_signals_stay_buffered():
    b = MachineBuilder()
    b.state("Top", initial="Comp", defer=("DATA",))  # root defers everywhere
    b.state("Comp", parent="Top", initial="A")
    b.state("A", parent="Comp")
    b.state("B", parent="Comp")
    b.transition("A", "STEP", "B")
    m = b.build()
    dispatch(m, ActorMessage("DATA"))
    r = dispatch(m, ActorMessage("STEP"))
    assert r.recalled == ()
    assert len(m.deferral_buffer) == 1  # Top still in context, still deferring


def test_unmatched_undeferred_signal_is_discarded_without_mutation():
    m = _deferring_machine()
    before = (m.current, dict(m.variables), list(m.deferral_buffer))
    r = dispatch(m, ActorMessage("NO_SUCH"))
    assert not r.fired and not r.deferred
    assert (m.current, m.variables, m.deferral_buffer) == before


# --- atomicity ---------------------------------------------------------------------------


def _exploding(name):
    def fn(ctx):
        raise RuntimeError("boom")

    return Action(name, fn)


def test_action_failure_restores_pre_dispatch_state():
    log = []

    def first(ctx):
        log.append("first")
        ctx.vars["n"] += 10

    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top")
    b.state("B", parent="Top")
    b.transition(
        "A", "GO", "B",
        actions=[Action("first", first), _exploding("bad"), _recorder(log, "never")],
    )
    m = b.build()
    m.variables["n"] = 1
    with pytest.raises(ActionFailure) as err:
        dispatch(m, ActorMessage("GO"))
    assert err.value.action_id == "bad"
    assert m.current == "A"  # state rolled back
    assert m.variables == {"n": 1}  # variable mutation rolled back
    assert log == ["first"]  # side effects outside the machine are the caller's problem


def test_entry_action_failure_also_rolls_back():
    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top")
    b.state("B", parent="Top", entry=[_exploding("on_enter")])
    b.transition("A", "GO", "B")
    m = b.build()
    with pytest.raises(ActionFailure) as err:
        dispatch(m, ActorMessage("GO"))
    assert err.value.action_id == "on_enter"
    assert m.current == "A"


def test_action_failure_restores_deferral_buffer():
    b = MachineBuilder()
    b.state("Top", initial="A", defer=("LATER",))
    b.state("A", parent="Top")
    b.transition("A", "GO", "A", actions=[_exploding("bad")])
    m = b.build()
    dispatch(m, ActorMessage("LATER"))
    with pytest.raises(ActionFailure):
        dispatch(m, ActorMessage("GO"))
    assert len(m.deferral_buffer) == 1


def test_action_failure_keeps_resource_mutations():
    def touch(ctx):
        ctx.vars["n"] += 1
        ctx.res["log"].append(ctx.msg.signal)

    b = MachineBuilder()
    b.state("Top", initial="A", defer=("LATER",))
    b.state("A", parent="Top")
    b.state("B", parent="Top")
    b.transition("A", "GO", "B", actions=[Action("touch", touch), _exploding("bad")])
    m = b.build({"n": 1})
    m.resources["log"] = []
    dispatch(m, ActorMessage("LATER"))
    with pytest.raises(ActionFailure):
        dispatch(m, ActorMessage("GO"))
    assert m.current == "A"
    assert m.variables == {"n": 1}  # variables rolled back
    assert m.deferral_buffer == [ActorMessage("LATER")]
    assert m.resources == {"log": ["GO"]}  # resources are not


def test_actions_see_the_dispatch_time():
    seen = []
    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top")
    b.transition("A", "GO", "A", actions=[Action("clock", lambda ctx: seen.append(ctx.now))])
    m = b.build()
    dispatch(m, ActorMessage("GO"))
    dispatch(m, ActorMessage("GO"), now=1234)
    assert seen == [0, 1234]


def test_preselected_transition_skips_selection():
    calls = []

    def guard(msg, variables):
        calls.append(msg.signal)
        return True

    b = MachineBuilder()
    b.state("Top", initial="A", defer=("GO",))
    b.state("A", parent="Top")
    b.state("B", parent="Top")
    b.transition("A", "GO", "B", guard=guard)
    m = b.build()
    transition = select_transition(m, ActorMessage("GO"))
    assert calls == ["GO"]
    r = dispatch(m, ActorMessage("GO"), transition)
    assert r.fired and m.current == "B"
    assert calls == ["GO"]  # the guard ran once, for the selection
    r = dispatch(m, ActorMessage("GO"), None)  # selected elsewhere: nothing fires
    assert r.deferred and calls == ["GO"]


# --- emissions ----------------------------------------------------------------------------


def test_actions_can_emit_messages():
    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top")
    b.transition(
        "A", "GO", "A",
        actions=[Action("say", lambda ctx: ctx.emit("Send", ActorMessage("OUT", ctx.msg.body)))],
    )
    m = b.build()
    r = dispatch(m, ActorMessage("GO", b"payload"))
    assert r.emitted == (("Send", ActorMessage("OUT", b"payload")),)


def test_empty_signal_is_rejected():
    with pytest.raises(ValueError):
        ActorMessage("")


# --- machine validation ----------------------------------------------------------------


@pytest.mark.parametrize(
    "states,transitions,fragment",
    [
        ([], [], "root"),
        ([State("A"), State("B")], [], "root"),
        ([State("A"), State("B", parent="A")], [], "initial child"),
        ([State("A", initial_child="C"), State("B", parent="A")], [], "initial child"),
        ([State("A"), State("B", parent="Ghost")], [], "unknown parent"),
        ([State("A")], [Transition("A", "X", "Ghost")], "unknown state"),
        ([State("A"), State("A")], [], "duplicate"),
        (
            [State("R"), State("A", "B", "B"), State("B", "A", "A")],
            [Transition("R", "X", "A")],
            "parent cycle",
        ),
        ([State("Top", None, "Idle"), State("Idle", "Top", "Ghost")], [], "child of 'Idle'"),
    ],
)
def test_malformed_machines_are_rejected(states, transitions, fragment):
    with pytest.raises(ValueError) as err:
        StateMachine(Chart(states, transitions))
    assert fragment in str(err.value)


# --- properties ------------------------------------------------------------------------------


@st.composite
def chain_machines(draw):
    """A linear Top > S1 > ... > Sn machine with transitions for signal X
    attached to a random subset of scopes."""
    depth = draw(st.integers(min_value=1, max_value=5))
    states = [State("S0", None, "S1" if depth >= 1 else None)]
    for i in range(1, depth + 1):
        initial = f"S{i + 1}" if i < depth else None
        states.append(State(f"S{i}", f"S{i - 1}", initial))
    scopes = draw(st.lists(st.integers(0, depth), min_size=0, max_size=depth + 1, unique=True))
    transitions = [Transition(f"S{i}", "X", f"S{i}") for i in scopes]
    return StateMachine(Chart(states, transitions)), scopes, depth


@settings(max_examples=120, deadline=None)
@given(chain_machines())
def test_selection_picks_innermost_matching_scope(built):
    machine, scopes, depth = built
    picked = select_transition(machine, ActorMessage("X"))
    if not scopes:
        assert picked is None
    else:
        assert picked is not None
        assert picked.scope == f"S{max(scopes)}"  # deepest matching ancestor


@settings(max_examples=120, deadline=None)
@given(chain_machines(), st.text(alphabet="ABC", min_size=1, max_size=3))
def test_discard_never_mutates(built, signal):
    machine, scopes, _ = built
    before = (machine.current, dict(machine.variables), list(machine.deferral_buffer))
    result = dispatch(machine, ActorMessage(signal))  # signal != "X", never matches
    assert not result.fired
    assert (machine.current, machine.variables, machine.deferral_buffer) == before


def _reference_transition_plan(machine, transition):
    """Action ids and new leaf as `dispatch` computed them before the single LCA walk."""
    a_chain = machine.chart.ancestors(transition.scope)
    b_set = set(machine.chart.ancestors(transition.target))
    lca = next(sid for sid in a_chain if sid in b_set)
    exit_states = []
    for sid in machine.chart.ancestors(machine.current):
        if sid == lca:
            break
        exit_states.append(sid)
    entry_states = []
    cursor = transition.target
    while cursor != lca:
        entry_states.append(cursor)
        cursor = machine.chart.states[cursor].parent
        if cursor is None:
            raise ValueError("target is not below the transition LCA")
    entry_states.reverse()
    entry_states.extend(machine.chart.descend(transition.target)[1:])
    target_is_leaf = not machine.chart.children.get(transition.target)
    new_leaf = entry_states[-1] if entry_states else (
        transition.target if target_is_leaf else machine.current
    )
    ids = [a.id for sid in exit_states for a in machine.chart.states[sid].exit_actions]
    ids += [a.id for a in transition.actions]
    ids += [a.id for sid in entry_states for a in machine.chart.states[sid].entry_actions]
    return tuple(ids), new_leaf


@st.composite
def tree_transitions(draw):
    """A random state tree with named entry/exit actions, a random current
    leaf, and one transition from a state in that leaf's context to any state."""
    n = draw(st.integers(1, 9))
    parents = [None] + [f"S{draw(st.integers(0, i - 1))}" for i in range(1, n)]
    children = {}
    for i, parent in enumerate(parents):
        if parent is not None:
            children.setdefault(parent, []).append(f"S{i}")
    states = [
        State(
            f"S{i}",
            parent,
            draw(st.sampled_from(children[f"S{i}"])) if f"S{i}" in children else None,
            (Action(f"enter S{i}"),),
            (Action(f"exit S{i}"),),
        )
        for i, parent in enumerate(parents)
    ]
    leaf = draw(st.sampled_from([f"S{i}" for i in range(n) if f"S{i}" not in children]))
    probe = Chart(states, [])
    scope = draw(st.sampled_from(probe.ancestors(leaf)))
    target = f"S{draw(st.integers(0, n - 1))}"
    machine = StateMachine(Chart(states, [Transition(scope, "GO", target, (Action("t"),))]))
    machine.current = leaf
    return machine


@settings(max_examples=400, deadline=None)
@given(tree_transitions())
def test_transition_chains_match_reference_walk(machine):
    expected_ids, expected_leaf = _reference_transition_plan(machine, machine.chart.transitions[0])
    result = dispatch(machine, ActorMessage("GO"))
    assert result.fired
    assert result.actions_run == expected_ids
    assert machine.current == expected_leaf


# --- compiled dispatch tables ------------------------------------------------------------


def test_states_that_defer_nothing_share_one_empty_set():
    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top")
    b.state("B", parent="Top", defer=("X",))
    built = b.build()
    shared = built.chart.states["Top"].deferred_signals
    assert shared == frozenset()
    assert built.chart.states["A"].deferred_signals is shared
    assert built.chart.states["B"].deferred_signals == frozenset({"X"})


def _oracle_select(machine, msg):
    """`select_transition` as it was before the per-signal candidate table."""
    for sid in machine.chart.ancestors(machine.current):
        matches = [
            t
            for t in machine.chart.transitions
            if t.scope == sid
            and t.signal == msg.signal
            and (t.guard is None or t.guard(msg, machine.variables))
        ]
        if len(matches) > 1:
            raise AmbiguousTransition(sid, msg.signal)
        if matches:
            return matches[0]
    return None


def _oracle_dispatch(machine, msg):
    """`dispatch` as it was before plans, contexts and snapshots were cached."""

    def defers(context, signal):
        return any(signal in machine.chart.states[s].deferred_signals for s in context)

    transition = _oracle_select(machine, msg)
    if transition is None:
        if defers(machine.chart.ancestors(machine.current), msg.signal):
            machine.deferral_buffer.append(msg)
            return DispatchResult(fired=False, deferred=True)
        return DispatchResult(fired=False, deferred=False)

    b_set = set(machine.chart.ancestors(transition.target))
    lca = next(sid for sid in machine.chart.ancestors(transition.scope) if sid in b_set)
    context = machine.chart.ancestors(machine.current)
    exit_states = context[: context.index(lca)]
    entry_states = []
    cursor = transition.target
    while cursor != lca:
        entry_states.append(cursor)
        cursor = machine.chart.states[cursor].parent
    entry_states.reverse()
    descent = machine.chart.descend(transition.target)
    entry_states.extend(descent[1:])
    plan = [a for sid in exit_states for a in machine.chart.states[sid].exit_actions]
    plan.extend(transition.actions)
    plan.extend(a for sid in entry_states for a in machine.chart.states[sid].entry_actions)

    saved = (machine.current, copy.deepcopy(machine.variables), list(machine.deferral_buffer))
    ctx = ActionContext(machine, msg)
    ran = []
    try:
        for action in plan:
            if action.fn is not None:
                action.fn(ctx)
            ran.append(action.id)
    except Exception as exc:
        machine.current, machine.variables, machine.deferral_buffer = saved
        raise ActionFailure(plan[len(ran)].id, exc) from exc
    machine.current = descent[-1]
    new_context = machine.chart.ancestors(machine.current)
    recalled = tuple(m for m in machine.deferral_buffer if not defers(new_context, m.signal))
    machine.deferral_buffer = [m for m in machine.deferral_buffer if defers(new_context, m.signal)]
    return DispatchResult(
        fired=True,
        deferred=False,
        emitted=tuple(ctx.emitted),
        actions_run=tuple(ran),
        recalled=recalled,
    )


_SIGNALS = ("A", "B", "C", "D")


@st.composite
def machine_specs(draw):
    """Plain data for a random state tree with deferrals, entry/exit actions
    and guarded transitions, plus a message sequence and whether each
    message is selected before its dispatch."""
    n = draw(st.integers(2, 8))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    children = {}
    for i, parent in enumerate(parents):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    states = [
        (
            parent,
            draw(st.sampled_from(children[i])) if i in children else None,
            # a deferring root would hold its signals forever
            frozenset() if parent is None else draw(st.frozensets(st.sampled_from(_SIGNALS), max_size=2)),
        )
        for i, parent in enumerate(parents)
    ]
    transitions = [
        (scope, *rest)
        for scope in range(n)  # every state gets a few, so no leaf is a dead end
        for rest in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(_SIGNALS[:-1]),  # "D" is only ever deferred
                    st.integers(0, n - 1),  # target
                    st.sampled_from([None, 0, 1, 2]),  # guard
                    st.booleans(),  # has an action that sometimes fails
                ),
                min_size=1,
                max_size=3,  # three, so one scope can hold a match, a second and a guard after it
            )
        )
    ]
    messages = draw(st.lists(st.tuples(st.sampled_from(_SIGNALS), st.booleans()), min_size=1, max_size=30))
    return states, transitions, messages, draw(st.booleans())


def _build_from_spec(states, transitions, with_list, log):
    """A machine whose guards and actions log to `log`; `with_list` adds a
    list variable, so the rollback snapshot takes the deepcopy path."""

    def guard(k, tid):
        def fn(msg, variables):
            log.append(("guard", tid, msg.signal))
            return (variables["n"] + k) % 3 != 0

        return fn

    def step(name, fails):
        def fn(ctx):
            log.append(("action", name))
            ctx.vars["n"] += 1
            if with_list:
                ctx.vars["trail"].append(name)
            if fails and ctx.vars["n"] % 4 == 3:
                raise RuntimeError(name)

        return fn

    built = [
        State(
            f"S{i}",
            None if parent is None else f"S{parent}",
            None if initial is None else f"S{initial}",
            (Action(f"enter S{i}", step(f"enter S{i}", False)),),
            (Action(f"exit S{i}", step(f"exit S{i}", False)),),
            frozenset(defer),
        )
        for i, (parent, initial, defer) in enumerate(states)
    ]
    trans = [
        Transition(
            f"S{scope}",
            signal,
            f"S{target}",
            (Action(f"t{tid}", step(f"t{tid}", fails)),),
            None if k is None else guard(k, tid),
        )
        for tid, (scope, signal, target, k, fails) in enumerate(transitions)
    ]
    variables = {"n": 0, "trail": []} if with_list else {"n": 0}
    return StateMachine(Chart(built, trans), variables)


def _step(fn):
    try:
        return fn(), None
    except (AmbiguousTransition, ActionFailure) as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(machine_specs())
def test_compiled_dispatch_matches_uncompiled_reference(spec):
    states, transitions, messages, with_list = spec
    compiled_log, oracle_log = [], []
    compiled = _build_from_spec(states, transitions, with_list, compiled_log)
    oracle = _build_from_spec(states, transitions, with_list, oracle_log)
    for signal, preselect in messages:
        msg = ActorMessage(signal)
        if preselect:  # the engine's path: select, then pass the result on
            got, got_error = _step(lambda: dispatch(compiled, msg, select_transition(compiled, msg)))
        else:
            got, got_error = _step(lambda: dispatch(compiled, msg))
        want, want_error = _step(lambda: _oracle_dispatch(oracle, msg))
        assert compiled_log == oracle_log
        assert got_error == want_error
        assert compiled.current == oracle.current
        assert compiled.variables == oracle.variables
        assert compiled.deferral_buffer == oracle.deferral_buffer
        if got_error is not None and got_error[0] is AmbiguousTransition:
            continue
        if got is not None:
            assert (got.fired, got.deferred, got.recalled) == (want.fired, want.deferred, want.recalled)
            assert got.actions_run == want.actions_run
            assert compiled.chart.ancestors(compiled.current) == oracle.chart.ancestors(oracle.current)


@st.composite
def shared_chart_streams(draw):
    """A machine spec, 2-3 instances of its chart and an interleaved stream
    of (instance, signal, preselect) messages."""
    states, transitions, _, with_list = draw(machine_specs())
    count = draw(st.integers(2, 3))
    stream = draw(
        st.lists(
            st.tuples(st.integers(0, count - 1), st.sampled_from(_SIGNALS), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    return states, transitions, with_list, count, stream


@settings(max_examples=200, deadline=None)
@given(shared_chart_streams())
def test_instances_of_one_chart_stay_isolated(spec):
    states, transitions, with_list, count, stream = spec
    log = []
    first = _build_from_spec(states, transitions, with_list, log)
    chart = first.chart
    chart_states, chart_transitions = dict(chart.states), chart.transitions
    instances = [first] + [
        StateMachine(chart, {"n": 0, "trail": []} if with_list else {"n": 0})
        for _ in range(count - 1)
    ]
    oracle_logs = [[] for _ in range(count)]
    oracles = [_build_from_spec(states, transitions, with_list, log_k) for log_k in oracle_logs]
    for k in range(count):  # different variables, so the same guard can go either way
        instances[k].variables["n"] = oracles[k].variables["n"] = k
    for k, signal, preselect in stream:
        machine, oracle, msg = instances[k], oracles[k], ActorMessage(signal)
        seen, oracle_seen = len(log), len(oracle_logs[k])
        if preselect:
            got, got_error = _step(lambda: dispatch(machine, msg, select_transition(machine, msg)))
        else:
            got, got_error = _step(lambda: dispatch(machine, msg))
        want, want_error = _step(lambda: _oracle_dispatch(oracle, msg))
        assert log[seen:] == oracle_logs[k][oracle_seen:]
        assert got_error == want_error
        assert got == want
        for m, o in zip(instances, oracles):
            assert m.current == o.current
            assert (m.variables, m.deferral_buffer) == (o.variables, o.deferral_buffer)
    assert all(m.chart is chart for m in instances)
    assert all(m.chart._routes is chart._routes and m.chart._plans is chart._plans for m in instances)
    assert chart.states == chart_states and chart.transitions is chart_transitions


def test_failed_action_restores_its_instance_and_leaves_the_chart_alone():
    def touch(ctx):
        ctx.vars["n"] += 1
        ctx.machine.deferral_buffer.clear()

    b = MachineBuilder()
    b.state("Top", initial="A", defer=("LATER",))
    b.state("A", parent="Top")
    b.state("B", parent="Top")
    b.transition("A", "GO", "B", actions=[Action("touch", touch), _exploding("bad")])
    chart = b.chart()
    states, transitions = dict(chart.states), chart.transitions
    m, other = StateMachine(chart, {"n": 1}), StateMachine(chart, {"n": 5})
    for machine in (m, other):
        dispatch(machine, ActorMessage("LATER", machine.variables["n"]))
    with pytest.raises(ActionFailure):
        dispatch(m, ActorMessage("GO"))
    assert (m.current, m.variables, m.deferral_buffer) == ("A", {"n": 1}, [ActorMessage("LATER", 1)])
    assert (other.current, other.variables) == ("A", {"n": 5})
    assert other.deferral_buffer == [ActorMessage("LATER", 5)]
    assert chart.states == states and chart.transitions is transitions


def _failing_machine(touch, variables):
    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top")
    b.state("B", parent="Top")
    b.transition("A", "GO", "B", actions=[Action("touch", touch), _exploding("bad")])
    return b.build(variables)


def test_failed_action_restores_mutated_list_and_nested_dict():
    def touch(ctx):
        ctx.vars["log"].append("x")
        ctx.vars["nested"]["inner"]["k"] = 99
        ctx.vars["nested"]["extra"] = [1]

    m = _failing_machine(touch, {"n": 1, "log": ["a"], "nested": {"inner": {"k": 1}}})
    with pytest.raises(ActionFailure):
        dispatch(m, ActorMessage("GO"))
    assert m.current == "A"
    assert m.variables == {"n": 1, "log": ["a"], "nested": {"inner": {"k": 1}}}


def test_failed_action_restores_atom_only_variables_exactly():
    def touch(ctx):
        ctx.vars["n"] = 2
        del ctx.vars["gone"]
        ctx.vars["new"] = b"staged"

    before = {"n": 1, "gone": "s", "x": 1.5, "flag": True, "raw": b"\x00", "none": None}
    m = _failing_machine(touch, before)
    with pytest.raises(ActionFailure):
        dispatch(m, ActorMessage("GO"))
    assert m.variables == before
    assert list(m.variables) == list(before)  # key order kept too


def test_failed_action_restores_dict_with_non_str_key():
    def touch(ctx):
        ctx.vars[7] = "changed"
        ctx.vars["n"] += 1

    m = _failing_machine(touch, {7: "seven", "n": 1})
    with pytest.raises(ActionFailure):
        dispatch(m, ActorMessage("GO"))
    assert m.variables == {7: "seven", "n": 1}


# --- route and plan tables ---------------------------------------------------------------


def test_equal_transition_that_is_not_the_machines_own_is_walked(monkeypatch):
    m = _nested_machine([])
    own = m.chart.transitions[0]
    twin = Transition(own.scope, own.signal, own.target, own.actions, own.guard)
    assert twin == own and twin is not own
    walked = []
    walk = statechart._walk
    monkeypatch.setattr(statechart, "_walk", lambda machine, t: walked.append(t) or walk(machine, t))
    for transition in (own, twin, twin, own):
        m.current = "LeafA"
        result = dispatch(m, ActorMessage("GO"), transition)
        assert result.actions_run == ("exitLeafA", "exitA", "tGo", "enterB", "enterLeafB")
    # own is walked once and then served from its plan; its twin every time
    assert [t is own for t in walked] == [True, False, False]


def _scoped_machine(log):
    """Top -> Mid -> Leaf, with logging guards on X at the leaf and the root."""

    def guard(name, passes):
        def fn(msg, variables):
            log.append(name)
            return passes

        return fn

    b = MachineBuilder()
    b.state("Top", initial="Mid")
    b.state("Mid", parent="Top", initial="Leaf")
    b.state("Leaf", parent="Mid")
    b.transition("Top", "X", "Leaf", guard=guard("top1", True))
    b.transition("Leaf", "X", "Leaf", guard=guard("leaf1", False))
    b.transition("Top", "Y", "Leaf", guard=guard("other", True))
    b.transition("Top", "X", "Leaf")
    b.transition("Leaf", "X", "Leaf", guard=guard("leaf2", False))
    b.transition("Top", "X", "Mid", guard=guard("top2", False))  # runs after the second match
    return b.build()


def test_outer_ambiguity_after_inner_guards_reject():
    log, oracle_log = [], []
    with pytest.raises(AmbiguousTransition) as err:
        select_transition(_scoped_machine(log), ActorMessage("X"))
    with pytest.raises(AmbiguousTransition) as oracle_err:
        _oracle_select(_scoped_machine(oracle_log), ActorMessage("X"))
    assert (err.value.scope, err.value.signal) == ("Top", "X")
    assert str(err.value) == str(oracle_err.value)
    assert log == oracle_log == ["leaf1", "leaf2", "top1", "top2"]


def test_unfired_dispatches_share_immutable_results():
    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top", defer=("LATER",))
    b.transition("A", "GO", "A")
    m, other = b.build(), b.build()
    deferred = dispatch(m, ActorMessage("LATER"))
    unmatched = dispatch(m, ActorMessage("NOPE"))
    assert deferred == DispatchResult(fired=False, deferred=True)
    assert unmatched == DispatchResult(fired=False, deferred=False)
    assert dispatch(other, ActorMessage("LATER"), None) is deferred
    assert dispatch(other, ActorMessage("NOPE"), None) is unmatched
    for result in (deferred, unmatched):
        with pytest.raises(AttributeError):
            result.fired = True
        assert (result.emitted, result.actions_run, result.recalled) == ((), (), ())
    assert len(m.deferral_buffer) == len(other.deferral_buffer) == 1


def test_failure_after_an_action_filled_an_empty_buffer_restores_it_empty():
    def stash(ctx):
        ctx.machine.deferral_buffer.append(ActorMessage("LATER"))

    m = _failing_machine(stash, {})
    assert m.deferral_buffer == []
    with pytest.raises(ActionFailure):
        dispatch(m, ActorMessage("GO"))
    assert (m.current, m.deferral_buffer) == ("A", [])


def test_quiet_firings_of_one_plan_return_one_result():
    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top")
    b.transition("A", "GO", "A", actions=[Action("tick"), Action("tock")])
    chart = b.chart()
    m, other = StateMachine(chart), StateMachine(chart)
    first, second = dispatch(m, ActorMessage("GO")), dispatch(m, ActorMessage("GO"))
    assert first is second is dispatch(other, ActorMessage("GO"))
    assert first == DispatchResult(True, False, (), ("tick", "tock"), ())
    with pytest.raises(AttributeError):
        first.emitted = (("UC", ActorMessage("OUT")),)


def test_a_firing_that_emits_or_recalls_gets_its_own_result():
    def maybe_emit(ctx):
        if ctx.msg.body:
            ctx.emit("UC", ActorMessage("OUT", ctx.msg.body))

    b = MachineBuilder()
    b.state("Top", initial="A")
    b.state("A", parent="Top", defer=("LATER",))
    b.state("B", parent="Top")
    b.transition("A", "GO", "A", actions=[Action("maybe_emit", maybe_emit)])
    b.transition("A", "LEAVE", "B", actions=[Action("leave")])
    b.transition("B", "BACK", "A")
    m = b.build()

    quiet = dispatch(m, ActorMessage("GO"))
    loud = dispatch(m, ActorMessage("GO", b"x"))
    assert loud is not quiet
    assert loud.emitted == (("UC", ActorMessage("OUT", b"x")),)
    assert quiet.emitted == () and dispatch(m, ActorMessage("GO")) is quiet

    left = dispatch(m, ActorMessage("LEAVE"))
    assert left.recalled == ()
    dispatch(m, ActorMessage("BACK"))
    dispatch(m, ActorMessage("LATER"))
    recalling = dispatch(m, ActorMessage("LEAVE"))
    assert recalling is not left
    assert recalling == DispatchResult(True, False, (), ("leave",), (ActorMessage("LATER"),))
    assert left.recalled == ()
    dispatch(m, ActorMessage("BACK"))
    assert dispatch(m, ActorMessage("LEAVE")) is left
