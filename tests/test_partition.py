"""Process planning: view partitioning, instance resolution, common-use-case placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewcase.fixture import FIXTURE_MODEL, scale_peers
from viewcase.model import (
    Actor,
    Instantiation,
    RelationKind,
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
    build_plan,
    partition_views,
    plan_diff,
    render_plan,
    resolve_instances,
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
    nodes = resolve_instances(partition_views(model), model, MappingPolicy())
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
    owner = mb_plan.node("Operator#*")
    assert "ReportHealth" in owner.owned_use_cases()
    for nid in ("LocalHost#*", "StandbyCI#*", "PeerCI#*"):
        node = mb_plan.node(nid)
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
    assert service | inlined >= targets
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
