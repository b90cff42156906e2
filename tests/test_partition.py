"""Process planning: view partitioning, instance resolution, common-use-case placement."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewcase.fixture import FIXTURE_MODEL, scale_peers
from viewcase.ipc import ChannelKind, assign_ipc, dependency_graph
from viewcase.model import (
    Actor,
    FlowClass,
    Instantiation,
    RelationKind,
    TrafficFlow,
    UseCase,
    UseCaseModel,
    UseCaseRelation,
    parse_model,
)
from viewcase.partition import (
    SPOF_WARNING,
    BudgetExceeded,
    MappingPolicy,
    Objective,
    PlanDecision,
    ProcessNode,
    ProcessPlan,
    ViewCase,
    _common_use_cases_in_order,
    build_plan,
    partition_views,
    plan_diff,
    render_plan,
)


@pytest.fixture(scope="module")
def model():
    return parse_model(FIXTURE_MODEL)


@pytest.fixture(scope="module")
def ft_plan(model):
    return build_plan(model, MappingPolicy())


@pytest.fixture(scope="module")
def mb_plan(model):
    return build_plan(model, MappingPolicy(Objective.MEMORY_BOUND, memory_budget=38000))


def _node(plan, node_id):
    return next(n for n in plan.all_nodes() if n.id == node_id)


# --- view partitioning -------------------------------------------------------


def test_views_one_per_triggering_actor(model):
    views = partition_views(model)
    assert [v.actor for v in views] == [
        "Operator", "LocalHost", "StandbyCI", "CommEquipment", "PeerCI",
    ]
    by_actor = {v.actor: v.use_cases for v in views}
    assert by_actor["Operator"] == ("ExchangeStatus", "DisplayStatus", "ReportHealth")
    assert by_actor["LocalHost"] == ("SendData", "ReportHealth")
    assert by_actor["PeerCI"] == ("ReceiveData", "MaintainSession", "ReportHealth")
    # included-only use cases belong to no view
    for ucs in by_actor.values():
        assert "Authenticate" not in ucs
        assert "LogTraffic" not in ucs


def test_resolve_instances_fault_tolerance(model):
    nodes = build_plan(model, MappingPolicy()).nodes
    ids = [n.id for n in nodes]
    assert ids.count("LocalHost#0") == 1 and "LocalHost#1" in ids
    assert "PeerCI#5" in ids and "PeerCI#6" not in ids
    # shared instantiation collapses even under fault tolerance
    assert "CommEquipment#*" in ids
    assert all(not n.refs for n in nodes)


# --- fault-tolerance plan -----------------------------------------------------


def test_ft_plan_node_census(ft_plan):
    assert len(ft_plan.nodes) == 11
    assert len(ft_plan.shared_service_nodes) == 0
    per_actor = {}
    for n in ft_plan.nodes:
        per_actor[n.actor] = per_actor.get(n.actor, 0) + 1
    assert per_actor == {
        "Operator": 1, "LocalHost": 2, "StandbyCI": 1, "CommEquipment": 1, "PeerCI": 6,
    }


def test_ft_plan_inlines_common_use_cases(ft_plan):
    auth_hosts = {n.id for n in ft_plan.all_nodes() if "Authenticate" in n.inlined}
    assert auth_hosts == {
        "Operator#0", "LocalHost#0", "LocalHost#1",
        "PeerCI#0", "PeerCI#1", "PeerCI#2", "PeerCI#3", "PeerCI#4", "PeerCI#5",
    }
    log_hosts = {n.id for n in ft_plan.all_nodes() if "LogTraffic" in n.inlined}
    assert log_hosts == auth_hosts - {"Operator#0"}


def test_ft_footprint_sums_every_resident_copy(ft_plan):
    # 114000 in view copies + 9 x 800 inlined + 8 x 1200 inlined
    assert ft_plan.estimated_footprint == 130800


def test_ft_decisions_cover_all_three_cases(ft_plan):
    by_case = {}
    for d in ft_plan.decisions:
        by_case.setdefault(d.case, []).append(d)
    assert {d.subject for d in by_case[1]} == {"ReportHealth"}
    assert by_case[1][0].choice == "duplicate"
    assert {d.subject for d in by_case[2]} == {"LocalHost", "CommEquipment", "PeerCI"}
    assert {d.subject: d.choice for d in by_case[3]} == {
        "Authenticate": "inline", "LogTraffic": "inline",
    }


def test_ft_nodes_carry_no_spof_warning(ft_plan):
    assert all(SPOF_WARNING not in n.warnings for n in ft_plan.nodes)


def test_low_inline_threshold_extracts_service(model):
    plan = build_plan(model, MappingPolicy(inline_threshold=799))
    svc = {n.id for n in plan.shared_service_nodes}
    assert svc == {"Authenticate#svc", "LogTraffic#svc"}
    for n in plan.shared_service_nodes:
        assert SPOF_WARNING in n.warnings
        assert n.service
    assert all("Authenticate" not in n.inlined for n in plan.nodes)


def test_threshold_boundary_is_inclusive(model):
    # Authenticate is exactly 800 bytes of code
    plan = build_plan(model, MappingPolicy(inline_threshold=800))
    assert "Authenticate#svc" not in {n.id for n in plan.all_nodes()}
    assert "LogTraffic#svc" in {n.id for n in plan.all_nodes()}


def test_use_case_inlined_into_a_service_stays_in_the_plan():
    model_ = parse_model(
        "actor A multiplicity 2\n"
        'usecase U0 "u0" codesize 100\n'
        'usecase U1 "u1" codesize 9000\n'
        'usecase U2 "u2" codesize 100\n'
        "trigger A -> U0\n"
        "relation include U0 <- U1\n"
        "relation include U1 <- U2\n"
    )
    plan = build_plan(model_, MappingPolicy())
    assert _node(plan, "U1#svc").inlined == ("U2",)
    assert plan.estimated_footprint == 9300  # 2 x U0 + U1 + U2
    assert "carries: U1 U2" in render_plan(plan)


@pytest.mark.parametrize(
    "policy",
    [
        MappingPolicy(),
        MappingPolicy(inline_threshold=100),
        MappingPolicy(Objective.MEMORY_BOUND, memory_budget=10000),
    ],
    ids=["ft", "ft-threshold-100", "mem"],
)
def test_a_use_case_a_view_already_holds_is_not_inlined_again(policy):
    """`A` triggers U1 and U0, which includes U1: `A`'s process holds U1
    once, under either objective and at any threshold, with no service copy.
    Under ft, where `B` triggers U0 alone, U1 is inlined into `B#0` only."""
    text = (
        "actor A multiplicity 1\n"
        'usecase U0 "u0" codesize 100\n'
        'usecase U1 "u1" codesize 200\n'
        "trigger A -> U0\n"
        "trigger A -> U1\n"
        "relation include U0 <- U1\n"
    )
    plan = build_plan(parse_model(text), policy)
    (node,) = plan.nodes
    assert node.owned_use_cases() == ("U0", "U1")
    assert plan.shared_service_nodes == ()
    assert plan.estimated_footprint == 300
    doc = render_plan(plan).splitlines()
    assert {"inlined: none", "footprint: 300", "service-nodes: 0"} <= set(doc)
    assert str(plan.decisions[-1]) == f"case-3 U1: resident | already resident in {node.id}"
    if policy != MappingPolicy():
        return
    # `B` triggers U0 alone, so U1 is inlined into `B#0` only
    plan = build_plan(parse_model(text + "actor B multiplicity 1\ntrigger B -> U0\n"), policy)
    assert [n.owned_use_cases() for n in plan.nodes] == [("U0", "U1"), ("U0", "U1")]
    assert [n.inlined for n in plan.nodes] == [(), ("U1",)]
    assert plan.estimated_footprint == 600
    assert str(plan.decisions[-1]).endswith("; duplicated into B#0")


def test_nested_includes_are_placed_in_topological_order():
    """X includes into U, Y into X, Z into V: X and Z have no included base,
    so both come before Y, which waits for X."""
    plan = build_plan(
        parse_model(
            "actor A multiplicity 1\n"
            "actor B multiplicity 1\n"
            + "".join(f'usecase {u} "{u}" codesize 100\n' for u in "UVXYZ")
            + "trigger A -> U\ntrigger B -> V\n"
            "relation include U <- X\n"
            "relation include X <- Y\n"
            "relation include V <- Z\n"
        ),
        MappingPolicy(),
    )
    assert [d.subject for d in plan.decisions if d.case == 3] == ["X", "Z", "Y"]
    assert [n.inlined for n in plan.nodes] == [("X", "Y"), ("Z",)]


# --- memory-bound plan ---------------------------------------------------------


def test_mb_plan_collapses_and_extracts(mb_plan):
    assert [n.id for n in mb_plan.nodes] == [
        "Operator#*", "LocalHost#*", "StandbyCI#*", "CommEquipment#*", "PeerCI#*",
    ]
    assert [n.id for n in mb_plan.shared_service_nodes] == [
        "Authenticate#svc", "LogTraffic#svc",
    ]
    assert all(n.instance_index is None for n in mb_plan.all_nodes())


def test_mb_single_owner_for_multi_triggered(mb_plan):
    owner = _node(mb_plan, "Operator#*")
    assert "ReportHealth" in owner.owned_use_cases()
    for nid in ("LocalHost#*", "StandbyCI#*", "PeerCI#*"):
        node = _node(mb_plan, nid)
        assert "ReportHealth" in node.refs
        assert "ReportHealth" not in node.owned_use_cases()
        assert "ReportHealth" in node.view.use_cases  # still in the view


def test_mb_footprint_counts_each_use_case_once(mb_plan):
    assert mb_plan.estimated_footprint == 38000


def test_mb_budget_is_enforced(model):
    with pytest.raises(BudgetExceeded) as err:
        build_plan(model, MappingPolicy(Objective.MEMORY_BOUND, memory_budget=37999))
    assert err.value.footprint == 38000
    assert err.value.budget == 37999
    assert "exceeds" in str(err.value)


def test_mb_requires_budget():
    with pytest.raises(ValueError):
        MappingPolicy(Objective.MEMORY_BOUND)


def test_objective_given_by_value_plans_that_objective(model, mb_plan):
    with pytest.raises(ValueError):
        MappingPolicy("memory-bound")  # still needs its budget
    policy = MappingPolicy("memory-bound", memory_budget=38000)
    assert policy.objective is Objective.MEMORY_BOUND
    assert build_plan(model, policy) == mb_plan
    assert MappingPolicy("fault-tolerance").objective is Objective.FAULT_TOLERANCE


@pytest.mark.parametrize("objective", ["mem", "ft", "MEMORY_BOUND", None, 1])
def test_unknown_objective_is_rejected(objective):
    with pytest.raises(ValueError):
        MappingPolicy(objective, memory_budget=38000)


def test_mb_service_nodes_carry_spof_warning(mb_plan):
    decisions = [d for d in mb_plan.decisions if d.case == 3]
    assert {d.choice for d in decisions} == {"shared-service"}
    assert all(SPOF_WARNING in d.reason for d in decisions)


# --- diffing --------------------------------------------------------------------


def test_plan_diff_of_identical_plans_is_empty(model, ft_plan):
    again = build_plan(model, MappingPolicy())
    assert plan_diff(ft_plan, again).empty


def test_plan_diff_scale_out_adds_only_new_peer(model, ft_plan):
    bigger = build_plan(scale_peers(model, 7), MappingPolicy())
    diff = plan_diff(ft_plan, bigger)
    assert diff.added_nodes == ("PeerCI#6",)
    assert diff.removed_nodes == ()
    assert diff.changed_nodes == ()


def test_plan_diff_notices_field_changes(model, ft_plan):
    other = build_plan(model, MappingPolicy(inline_threshold=799))
    diff = plan_diff(ft_plan, other)
    assert "Authenticate#svc" in diff.added_nodes
    changed = dict(diff.changed_nodes)
    assert "PeerCI#0" in changed  # lost its inlined copies
    assert any("inlined" in c for c in changed["PeerCI#0"])


# --- canonical plan document ------------------------------------------------------


def test_render_plan_is_canonical(ft_plan):
    doc = render_plan(ft_plan)
    assert doc.startswith("plan-format: 1\n")
    assert "objective: fault-tolerance" in doc
    assert "footprint: 130800" in doc
    assert "nodes: 11" in doc
    assert doc == render_plan(ft_plan)  # stable bytes
    lines = doc.splitlines()
    node_keys = [l.split(":")[0] for l in lines if l and ":" in l]
    # node blocks keep a fixed key order
    first = node_keys.index("node")
    assert node_keys[first : first + 7] == [
        "node", "actor", "instance", "view", "inlined", "refs", "warnings",
    ]


def test_render_plan_marks_collapsed_instances(mb_plan):
    doc = render_plan(mb_plan)
    assert "instance: *" in doc
    assert "service: Authenticate#svc" in doc
    assert f"warnings: {SPOF_WARNING}" in doc


# --- properties over random models -------------------------------------------------

_actor_names = st.from_regex(r"[A-Z][a-z]{0,5}", fullmatch=True)


@st.composite
def planning_models(draw):
    names = draw(st.lists(_actor_names, min_size=1, max_size=4, unique=True))
    actors = tuple(
        Actor(
            n,
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.sampled_from(list(Instantiation))),
        )
        for n in names
    )
    n_ucs = draw(st.integers(min_value=1, max_value=6))
    use_cases = []
    for i in range(n_ucs):
        triggers = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)))
        use_cases.append(UseCase(f"Uc{i}", f"uc {i}", triggers, draw(st.integers(0, 9000))))
    relations = []
    if n_ucs >= 2:
        for _ in range(draw(st.integers(0, 3))):
            b = draw(st.integers(0, n_ucs - 2))
            o = draw(st.integers(b + 1, n_ucs - 1))  # acyclic by construction
            rel = UseCaseRelation(draw(st.sampled_from(list(RelationKind))), f"Uc{b}", f"Uc{o}")
            if rel not in relations:
                relations.append(rel)
    return UseCaseModel(actors, tuple(use_cases), tuple(relations), ())


@settings(max_examples=120, deadline=None)
@given(planning_models(), st.sampled_from(list(Objective)))
def test_every_triggered_use_case_is_resident_somewhere(model_, objective):
    policy = (
        MappingPolicy()
        if objective is Objective.FAULT_TOLERANCE
        else MappingPolicy(objective, memory_budget=10**9)
    )
    plan = build_plan(model_, policy)
    resident = {u for n in plan.all_nodes() for u in n.owned_use_cases()}
    for uc in model_.use_cases:
        if uc.triggers:
            assert uc.id in resident


@settings(max_examples=120, deadline=None)
@given(planning_models())
def test_common_use_cases_inline_or_extract_never_both(model_):
    plan = build_plan(model_, MappingPolicy(inline_threshold=4000))
    targets = {r.other for r in model_.relations}
    service = {n.view.use_cases[0] for n in plan.shared_service_nodes}
    inlined = {u for n in plan.nodes for u in n.inlined}
    held = {u for n in plan.nodes for u in n.view.use_cases}  # a view that holds it places it
    assert service | inlined | held >= targets
    assert not (service & inlined)
    # exactly one case-3 decision per target
    case3 = [d for d in plan.decisions if d.case == 3]
    assert sorted(d.subject for d in case3) == sorted(targets)


@settings(max_examples=80, deadline=None)
@given(planning_models())
def test_planning_is_deterministic(model_):
    assert build_plan(model_, MappingPolicy()) == build_plan(model_, MappingPolicy())


@settings(max_examples=80, deadline=None)
@given(planning_models())
def test_mb_one_node_per_triggering_actor(model_):
    plan = build_plan(model_, MappingPolicy(Objective.MEMORY_BOUND, memory_budget=10**9))
    triggering = {a for u in model_.use_cases for a in u.triggers}
    assert len(plan.nodes) == len(triggering)
    assert all(n.id.endswith("#*") for n in plan.nodes)


@settings(max_examples=80, deadline=None)
@given(planning_models())
def test_ft_node_count_matches_multiplicities(model_):
    plan = build_plan(model_, MappingPolicy())
    triggering = {a for u in model_.use_cases for a in u.triggers}
    expected = 0
    for a in model_.actors:
        if a.name in triggering:
            expected += 1 if a.instantiation is Instantiation.SHARED else a.multiplicity
    assert len(plan.nodes) == expected


@settings(max_examples=60, deadline=None)
@given(planning_models())
def test_footprint_equals_sum_of_owned_sizes(model_):
    plan = build_plan(model_, MappingPolicy())
    size = {u.id: u.code_size for u in model_.use_cases}
    assert plan.estimated_footprint == sum(
        size[u] for n in plan.all_nodes() for u in n.owned_use_cases()
    )


# --- equivalence with the staged planner ------------------------------------------
#
# A staged planner: it decides cases 1 and 2 twice (once for the decision
# records, once for the nodes) and rebuilds nodes with `replace` for case 3,
# taking the service nodes from its final node list. The one-pass
# `build_plan` must give the same plan, or raise the same exception.


def _ref_first_trigger(model_, uc_id):
    triggers = set(model_.use_case(uc_id).triggers)
    for a in model_.actors:
        if a.name in triggers:
            return a.name
    return model_.use_case(uc_id).triggers[0]


def _ref_resolve_instances(views, model_, policy):
    collapse_all = policy.objective is Objective.MEMORY_BOUND
    owners = {}
    if collapse_all:
        for uc in model_.use_cases:
            if len(uc.triggers) >= 2:
                owners[uc.id] = _ref_first_trigger(model_, uc.id)
    nodes = []
    for view in views:
        actor = model_.actor(view.actor)
        refs = tuple(u for u in view.use_cases if owners.get(u, view.actor) != view.actor)
        if collapse_all or actor.instantiation is Instantiation.SHARED:
            nodes.append(ProcessNode(f"{actor.name}#*", view, None, refs=refs))
        else:
            for k in range(actor.multiplicity):
                nodes.append(ProcessNode(f"{actor.name}#{k}", view, k, refs=refs))
    return nodes


def _ref_place_common(model_, nodes, policy):
    nodes = list(nodes)
    decisions = []
    residence = {}
    for i, n in enumerate(nodes):
        for u in n.owned_use_cases():
            residence.setdefault(u, []).append(i)
    for uc_id in _common_use_cases_in_order(model_):
        uc = model_.use_case(uc_id)
        base_ids = [r.base for r in model_.relations if r.other == uc_id]
        host_ids = sorted({i for b in base_ids for i in residence.get(b, [])})
        lacking = [i for i in host_ids if uc_id not in nodes[i].owned_use_cases()]
        inline_ok = (
            policy.objective is Objective.FAULT_TOLERANCE
            and uc.code_size <= policy.inline_threshold
            and host_ids
        )
        if host_ids and not lacking:
            names = ", ".join(nodes[i].id for i in host_ids)
            decisions.append(PlanDecision(3, uc_id, "resident", f"already resident in {names}"))
        elif inline_ok:
            for i in lacking:
                nodes[i] = replace(nodes[i], inlined=nodes[i].inlined + (uc_id,))
                residence.setdefault(uc_id, []).append(i)
            names = ", ".join(nodes[i].id for i in lacking)
            decisions.append(
                PlanDecision(
                    3,
                    uc_id,
                    "inline",
                    f"code size {uc.code_size} <= inline threshold "
                    f"{policy.inline_threshold}; duplicated into {names}",
                )
            )
        else:
            svc = ProcessNode(
                f"{uc_id}#svc", ViewCase("", (uc_id,)), None,
                warnings=(SPOF_WARNING,), service=True,
            )
            nodes.append(svc)
            residence.setdefault(uc_id, []).append(len(nodes) - 1)
            if policy.objective is Objective.MEMORY_BOUND:
                why = "memory bound keeps one shared copy"
            else:
                why = f"code size {uc.code_size} > inline threshold {policy.inline_threshold}"
            decisions.append(PlanDecision(3, uc_id, "shared-service", f"{why}; {SPOF_WARNING}"))
    regular = [n for n in nodes if not n.service]
    services = [n for n in nodes if n.service]
    return regular, services, decisions


def _ref_build_plan(model_, policy):
    views = partition_views(model_)
    decisions = []
    for uc in model_.use_cases:
        if len(uc.triggers) < 2:
            continue
        k = len(uc.triggers)
        if policy.objective is Objective.FAULT_TOLERANCE:
            decisions.append(
                PlanDecision(1, uc.id, "duplicate", f"triggered by {k} actors; each view keeps a copy")
            )
        else:
            owner = _ref_first_trigger(model_, uc.id)
            decisions.append(
                PlanDecision(
                    1, uc.id, f"single-owner {owner}",
                    f"triggered by {k} actors; memory bound keeps one copy, others reference it",
                )
            )
    with_views = {v.actor for v in views}
    for actor in model_.actors:
        if actor.name not in with_views or actor.multiplicity < 2:
            continue
        if policy.objective is Objective.MEMORY_BOUND:
            decisions.append(
                PlanDecision(2, actor.name, "collapse", "memory bound: one process for all instances")
            )
        elif actor.instantiation is Instantiation.SHARED:
            decisions.append(
                PlanDecision(
                    2, actor.name, "collapse", "shared instantiation: one process for all instances"
                )
            )
        else:
            decisions.append(
                PlanDecision(
                    2, actor.name, f"instantiate x{actor.multiplicity}",
                    "fault tolerance: one process per actor instance",
                )
            )
    nodes = _ref_resolve_instances(views, model_, policy)
    nodes, service_nodes, case3 = _ref_place_common(model_, nodes, policy)
    decisions.extend(case3)
    size = {u.id: u.code_size for u in model_.use_cases}
    footprint = sum(size[u] for n in nodes + service_nodes for u in n.owned_use_cases())
    if policy.objective is Objective.MEMORY_BOUND and footprint > policy.memory_budget:
        raise BudgetExceeded(footprint, policy.memory_budget)
    return ProcessPlan(tuple(nodes), tuple(service_nodes), tuple(decisions), footprint, policy)


@st.composite
def wide_planning_models(draw):
    """Models beyond `planning_models`: use cases nobody triggers, relations in
    both directions (cycles included), shared actors, unique actor names."""
    names = draw(st.lists(_actor_names, min_size=1, max_size=4, unique=True))
    actors = tuple(
        Actor(n, draw(st.integers(1, 4)), draw(st.sampled_from(list(Instantiation))))
        for n in names
    )
    n_ucs = draw(st.integers(1, 7))
    use_cases = tuple(
        UseCase(
            f"Uc{i}",
            f"uc {i}",
            tuple(draw(st.lists(st.sampled_from(names), max_size=3, unique=True))),
            draw(st.sampled_from([0, 100, 799, 800, 801, 4096, 4097, 9000])),
        )
        for i in range(n_ucs)
    )
    pairs = st.tuples(st.integers(0, n_ucs - 1), st.integers(0, n_ucs - 1))
    relations = tuple(
        dict.fromkeys(
            UseCaseRelation(kind, f"Uc{b}", f"Uc{o}")
            for (b, o), kind in draw(
                st.lists(st.tuples(pairs, st.sampled_from(list(RelationKind))), max_size=6)
            )
            if b != o
        )
    )
    return UseCaseModel(actors, use_cases, relations, ())


@st.composite
def policies(draw):
    threshold = draw(st.sampled_from([0, 799, 800, 4096]))
    if draw(st.booleans()):
        return MappingPolicy(inline_threshold=threshold)
    budget = draw(st.sampled_from([1, 5000, 20000, 10**9]))
    return MappingPolicy(Objective.MEMORY_BOUND, memory_budget=budget, inline_threshold=threshold)


def _outcome(plan_fn, model_, policy):
    try:
        return plan_fn(model_, policy)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return (type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(wide_planning_models() | planning_models(), policies())
def test_one_pass_plan_equals_staged_reference(model_, policy):
    got = _outcome(build_plan, model_, policy)
    want = _outcome(_ref_build_plan, model_, policy)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, ProcessPlan)
    assert render_plan(got) == render_plan(want)
    assert got.all_nodes() == want.all_nodes()  # every field of every node
    assert got == want


def _resident(node):
    return tuple(u for u in node.view.use_cases if u not in node.refs) + node.inlined


@settings(max_examples=200, deadline=None)
@given(
    wide_planning_models() | planning_models(),
    st.sampled_from([MappingPolicy(), MappingPolicy(Objective.MEMORY_BOUND, memory_budget=10**12)]),
)
def test_resident_set_is_kept_out_of_identity(model_, policy):
    """A node works out its resident use cases once, and the memo is part of
    neither its identity nor of a copy made with `replace`."""
    plan = build_plan(model_, policy)
    for node in plan.all_nodes():
        twin = replace(node)  # equal fields, memo not yet filled
        assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
        assert node.owned_use_cases() == _resident(node)  # filled by build_plan or here
        assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
        assert twin.owned_use_cases() == _resident(node)
        assert twin == node and hash(twin) == hash(node)
        for inlined in ((), node.inlined + ("Extra",), node.inlined[::-1]):
            other = replace(node, inlined=inlined)
            assert other.owned_use_cases() == _resident(other)
            assert (other == node) == (inlined == node.inlined)


def _reference_render_plan(plan, channels=None):
    """`render_plan` as it was before each channel block became one f-string."""
    p = plan.policy
    lines = [
        "plan-format: 1",
        f"objective: {p.objective.value}",
        f"inline-threshold: {p.inline_threshold}",
        f"memory-budget: {p.memory_budget if p.memory_budget is not None else 'none'}",
        f"footprint: {plan.estimated_footprint}",
        f"nodes: {len(plan.nodes)}",
        f"service-nodes: {len(plan.shared_service_nodes)}",
    ]

    def fmt(values):
        return " ".join(values) if values else "none"

    for n in plan.nodes:
        lines += [
            "",
            f"node: {n.id}",
            f"actor: {n.actor}",
            f"instance: {n.instance_index if n.instance_index is not None else '*'}",
            f"view: {fmt(n.view.use_cases)}",
            f"inlined: {fmt(n.inlined)}",
            f"refs: {fmt(n.refs)}",
            f"warnings: {'; '.join(n.warnings) if n.warnings else 'none'}",
        ]
    for n in plan.shared_service_nodes:
        lines += [
            "",
            f"service: {n.id}",
            f"carries: {fmt(n.owned_use_cases())}",
            f"warnings: {'; '.join(n.warnings) if n.warnings else 'none'}",
        ]
    lines += ["", "decisions:"]
    for d in plan.decisions:
        lines.append(f"- {d}")
    if channels is not None:
        lines += ["", f"channels: {len(tuple(channels))}"]
        for c in channels:
            lines += [
                "",
                f"channel: {c.id}",
                f"kind: {c.kind.value}",
                f"writer: {c.writer}",
                f"readers: {fmt(c.readers)}",
                f"class: {c.klass.value}",
            ]
            if c.kind is ChannelKind.SHARED_SEGMENT:
                lines += [
                    f"period: {c.period_ms if c.period_ms is not None else 'none'}",
                    f"segment-size: {c.segment_size}",
                ]
            else:
                lines += [f"capacity: {c.capacity}", f"message-size: {c.message_size}"]
    return "\n".join(lines) + "\n"


_BOTH_OBJECTIVES = [MappingPolicy(), MappingPolicy(Objective.MEMORY_BOUND, memory_budget=10**12)]


@st.composite
def _flows_of(draw, plan):
    """One to six flows from use cases resident in the plan to actors that have a
    process, periodic or async."""
    flows = []
    sources = list(dict.fromkeys(u for n in plan.all_nodes() for u in n.owned_use_cases()))
    sinks = list(dict.fromkeys(n.actor for n in plan.nodes))
    for _ in range(draw(st.integers(1, 6)) if sources and sinks else 0):
        klass = draw(st.sampled_from(list(FlowClass)))
        flows.append(
            TrafficFlow(
                draw(st.sampled_from(sources)),
                draw(st.sampled_from(sinks)),
                klass,
                draw(st.integers(1, 4096)),
                draw(st.integers(1, 1000)) if klass is FlowClass.PERIODIC else None,
            )
        )
    return tuple(flows)


@settings(max_examples=200, deadline=None)
@given(st.data(), wide_planning_models() | planning_models(), st.sampled_from(_BOTH_OBJECTIVES))
def test_render_plan_writes_the_reference_bytes(data, model_, policy):
    plan = build_plan(model_, policy)
    flows = data.draw(_flows_of(plan))
    channels = assign_ipc(dependency_graph(plan, replace(model_, flows=flows)))
    assert render_plan(plan) == _reference_render_plan(plan)
    assert render_plan(plan, channels) == _reference_render_plan(plan, channels)


@pytest.mark.parametrize("policy", _BOTH_OBJECTIVES, ids=["ft", "mem"])
def test_render_plan_writes_the_reference_bytes_at_500_peers(model, policy):
    wide = scale_peers(model, 500)
    plan = build_plan(wide, policy)
    channels = assign_ipc(dependency_graph(plan, wide))
    kinds = {c.kind for c in channels}
    assert kinds == set(ChannelKind)
    assert render_plan(plan, channels) == _reference_render_plan(plan, channels)
