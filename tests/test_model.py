"""Model-file parsing, validation, and serialization."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewcase.model import (
    Actor,
    DanglingReferenceError,
    DuplicateIdentifierError,
    FlowClass,
    Instantiation,
    ModelSyntaxError,
    RelationKind,
    TrafficFlow,
    UseCase,
    UseCaseModel,
    UseCaseRelation,
    parse_model,
    render_model,
    strip_comment,
    trigger_map,
    validate_model,
)

BASIC = """\
# two actors; Remote both triggers a use case and consumes a flow
actor Operator multiplicity 1
actor Remote multiplicity 3 shared

usecase Send "Send data" codesize 4000
usecase Recv "Receive data" codesize 2500
usecase Log "Log traffic" codesize 900

trigger Operator -> Send
trigger Remote -> Recv
relation include Send <- Log
flow Send -> Remote async size 1500
flow Send -> Operator periodic 200 size 64
"""


def test_parse_basic_shape():
    m = parse_model(BASIC)
    assert [a.name for a in m.actors] == ["Operator", "Remote"]
    assert m.actor("Remote") == Actor("Remote", 3, Instantiation.SHARED)
    assert m.actor("Operator").instantiation is Instantiation.PER_INSTANCE
    assert m.use_case("Send") == UseCase("Send", "Send data", ("Operator",), 4000)
    assert m.use_case("Log").triggers == ()
    assert m.relations == (UseCaseRelation(RelationKind.INCLUDE, "Send", "Log"),)
    assert m.flows == (
        TrafficFlow("Send", "Remote", FlowClass.ASYNC, 1500, None),
        TrafficFlow("Send", "Operator", FlowClass.PERIODIC, 64, 200),
    )


def test_parse_ignores_comments_and_blanks():
    m = parse_model("\n\n# nothing\nactor A multiplicity 1  # trailing\n")
    assert m.actors == (Actor("A", 1, Instantiation.PER_INSTANCE),)


def test_titles_may_contain_spaces_and_stay_intact():
    m = parse_model('actor A multiplicity 1\nusecase U "a b  c" codesize 1\ntrigger A -> U\n')
    assert m.use_case("U").title == "a b  c"


@pytest.mark.parametrize(
    "line",
    [
        "actor multiplicity 1",
        "actor A multiplicity",
        "actor B multiplicity zero",
        "actor B multiplicity 0",
        "actor B multiplicity 1 sharedx",
        'usecase U "t" codesize',
        'usecase U t codesize 1',
        "trigger A -> ",
        "trigger A <- U",
        "relation contains A <- B",
        "relation include A -> B",
        "flow U -> A sometimes size 9",
        "flow U -> A periodic size 9",
        "flow U -> A async size -2",
        "flow U -> A periodic 0 size 9",
        "widget W",
    ],
)
def test_bad_lines_raise_syntax_error(line):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("actor A multiplicity 1\nusecase U \"t\" codesize 1\ntrigger A -> U\n" + line)
    assert err.value.line == 4


def test_duplicate_actor_rejected_with_line_number():
    with pytest.raises(DuplicateIdentifierError) as err:
        parse_model("actor A multiplicity 1\nactor A multiplicity 2\n")
    assert err.value.line == 2
    assert err.value.name == "A"


def test_duplicate_usecase_rejected():
    text = 'usecase U "x" codesize 1\nusecase U "y" codesize 2\n'
    with pytest.raises(DuplicateIdentifierError):
        parse_model(text)


def test_dangling_trigger_actor_rejected():
    with pytest.raises(DanglingReferenceError) as err:
        parse_model('usecase U "t" codesize 1\ntrigger Ghost -> U\n')
    assert err.value.name == "Ghost"
    assert err.value.line == 2


def test_dangling_flow_sink_rejected():
    text = 'actor A multiplicity 1\nusecase U "t" codesize 1\ntrigger A -> U\nflow U -> Ghost async size 5\n'
    with pytest.raises(DanglingReferenceError):
        parse_model(text)


def test_forward_references_are_fine():
    # triggers/relations may appear before their targets are declared
    text = 'trigger A -> U\nactor A multiplicity 1\nusecase U "t" codesize 1\n'
    m = parse_model(text)
    assert m.use_case("U").triggers == ("A",)


def test_trigger_map_groups_by_actor():
    text = (
        "actor A multiplicity 1\nactor B multiplicity 1\n"
        'usecase U "u" codesize 1\nusecase V "v" codesize 1\nusecase W "w" codesize 1\n'
        "trigger A -> U\ntrigger A -> V\ntrigger B -> V\ntrigger B -> W\n"
    )
    m = parse_model(text)
    assert trigger_map(m) == {"A": ["U", "V"], "B": ["V", "W"]}


def test_trigger_map_omits_idle_actors():
    m = parse_model('actor A multiplicity 1\nactor Idle multiplicity 1\nusecase U "u" codesize 1\ntrigger A -> U\n')
    assert "Idle" not in trigger_map(m)


def test_validate_clean_model_is_empty():
    assert validate_model(parse_model(BASIC)) == []


def test_validate_detects_relation_cycle():
    text = (
        "actor A multiplicity 1\n"
        'usecase X "x" codesize 1\nusecase Y "y" codesize 1\n'
        "trigger A -> X\n"
        "relation include X <- Y\nrelation include Y <- X\n"
    )
    diags = validate_model(parse_model(text))
    msgs = [d.message for d in diags if "cycle" in d.message]
    assert len(msgs) == 1
    assert msgs[0] in ("cycle: X→Y→X", "cycle: Y→X→Y")


def test_validate_detects_orphan_usecase():
    text = 'actor A multiplicity 1\nusecase U "u" codesize 1\nusecase Lost "l" codesize 1\ntrigger A -> U\n'
    diags = validate_model(parse_model(text))
    assert any("orphan" in d.message and "Lost" in d.location for d in diags)


def test_included_usecase_is_not_an_orphan():
    diags = validate_model(parse_model(BASIC))
    assert not any("orphan" in d.message for d in diags)


def test_validate_detects_unroutable_flow():
    # sink actor triggers nothing, so no process will exist to receive
    text = (
        "actor A multiplicity 1\nactor Sink multiplicity 1\n"
        'usecase U "u" codesize 1\ntrigger A -> U\n'
        "flow U -> Sink async size 10\n"
    )
    diags = validate_model(parse_model(text))
    assert any("unroutable" in d.message for d in diags)


def test_validate_flags_hand_built_badness():
    m = UseCaseModel(
        actors=(Actor("A", 0),),
        use_cases=(UseCase("U", "t", ("Nobody",), -5),),
    )
    messages = " | ".join(d.message for d in validate_model(m))
    assert "multiplicity" in messages
    assert "code size" in messages
    assert "Nobody" in messages


# --- round-trip property ---------------------------------------------------

_names = st.from_regex(r"[A-Z][a-z0-9]{0,6}", fullmatch=True)


@st.composite
def models(draw):
    actor_names = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    uc_names = draw(
        st.lists(_names.map(lambda s: "Uc" + s), min_size=1, max_size=6, unique=True)
    )
    actors = tuple(
        Actor(
            n,
            draw(st.integers(min_value=1, max_value=8)),
            draw(st.sampled_from(list(Instantiation))),
        )
        for n in actor_names
    )
    use_cases = []
    for uc in uc_names:
        trig = draw(st.lists(st.sampled_from(actor_names), max_size=2, unique=True))
        title = draw(st.text(alphabet="abcdef XYZ", min_size=1, max_size=12).filter(lambda t: t.strip() == t))
        use_cases.append(UseCase(uc, title, tuple(trig), draw(st.integers(0, 99999))))
    relations = []
    if len(uc_names) >= 2:
        for _ in range(draw(st.integers(0, 3))):
            base, other = draw(st.sampled_from([(a, b) for a in uc_names for b in uc_names if a != b]))
            rel = UseCaseRelation(draw(st.sampled_from(list(RelationKind))), base, other)
            if rel not in relations:
                relations.append(rel)
    flows = []
    for _ in range(draw(st.integers(0, 3))):
        klass = draw(st.sampled_from(list(FlowClass)))
        flows.append(
            TrafficFlow(
                draw(st.sampled_from(uc_names)),
                draw(st.sampled_from(actor_names)),
                klass,
                draw(st.integers(1, 65536)),
                draw(st.integers(1, 5000)) if klass is FlowClass.PERIODIC else None,
            )
        )
    return UseCaseModel(actors, tuple(use_cases), tuple(relations), tuple(flows))


@settings(max_examples=200, deadline=None)
@given(models())
def test_render_parse_round_trip(model):
    assert parse_model(render_model(model)) == model


@settings(max_examples=50, deadline=None)
@given(models())
def test_render_is_stable(model):
    once = render_model(model)
    assert render_model(parse_model(once)) == once


def _reference_relation_cycle(model):
    """The hand-rolled DFS that `validate_model` used before graphlib, kept as the reference."""
    adj = {}
    for r in model.relations:
        adj.setdefault(r.base, []).append(r.other)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {u.id: WHITE for u in model.use_cases}
    for r in model.relations:
        color.setdefault(r.base, WHITE)
        color.setdefault(r.other, WHITE)
    stack = []

    def visit(node):
        color[node] = GREY
        stack.append(node)
        for nxt in adj.get(node, ()):
            if color.get(nxt, WHITE) == GREY:
                return stack[stack.index(nxt):] + [nxt]
            if color.get(nxt, WHITE) == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in list(color):
        if color[node] == WHITE:
            found = visit(node)
            if found:
                return found
    return None


@st.composite
def relation_graphs(draw):
    """Random relation graphs over declared use cases plus some undeclared ids."""
    declared = [f"U{i}" for i in range(draw(st.integers(1, 6)))]
    ids = declared + [f"X{i}" for i in range(draw(st.integers(0, 3)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=10))
    return UseCaseModel(
        (Actor("A"),),
        tuple(UseCase(u, u, ("A",)) for u in declared),
        tuple(UseCaseRelation(RelationKind.INCLUDE, base, other) for base, other in pairs),
    )


@settings(max_examples=400, deadline=None)
@given(relation_graphs())
def test_reported_cycle_matches_reference_dfs(model):
    cycle = _reference_relation_cycle(model)
    expected = [] if cycle is None else ["cycle: " + "→".join(cycle)]
    reported = [d for d in validate_model(model) if d.message.startswith("cycle: ")]
    assert [d.message for d in reported] == expected
    if cycle is not None:
        assert reported[0].location == f"usecase {cycle[0]}"


# --- comments ----------------------------------------------------------------


def _old_scenario_strip_comment(raw):
    """The scenario parser's comment rule before quotes were recognised."""
    for i, c in enumerate(raw):
        if c == "#" and (i == 0 or raw[i - 1] in " \t"):
            return raw[:i]
    return raw


@pytest.mark.parametrize(
    "raw,kept",
    [
        ("# whole line", ""),
        ("actor A multiplicity 1  # trailing", "actor A multiplicity 1  "),
        ("fault kill PeerCI#3 at 5\t# why", "fault kill PeerCI#3 at 5\t"),
        ("auth_key = k#1", "auth_key = k#1"),
        ('usecase U "Send #1 data" codesize 5 # note', 'usecase U "Send #1 data" codesize 5 '),
        ('usecase U "#" codesize 5', 'usecase U "#" codesize 5'),
        ("codesize 5#x", "codesize 5#x"),
    ],
)
def test_strip_comment_cases(raw, kept):
    assert strip_comment(raw) == kept


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab#1 \t"))
def test_strip_comment_without_quotes_matches_the_old_scenario_rule(raw):
    assert strip_comment(raw) == _old_scenario_strip_comment(raw)


def test_title_with_hash_round_trips():
    model = parse_model('actor A multiplicity 1\nusecase U "Send #1 data" codesize 5\ntrigger A -> U\n')
    assert model.use_cases[0].title == "Send #1 data"
    assert parse_model(render_model(model)) == model


@settings(max_examples=100, deadline=None)
@given(models(), st.data())
def test_render_parse_round_trip_with_hash_in_titles(model, data):
    titles = st.text(alphabet="ab #1", min_size=1, max_size=12).filter(lambda t: t.strip() == t)
    model = dataclasses.replace(
        model,
        use_cases=tuple(dataclasses.replace(u, title=data.draw(titles)) for u in model.use_cases),
    )
    assert parse_model(render_model(model)) == model
