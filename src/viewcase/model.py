"""Declarative use-case model: types, parser, validator, serializer.

Model files are UTF-8, line oriented, one statement per line. A ``#`` at
the start of a word and outside double quotes starts a comment (see
``strip_comment``), so titles may hold ``#``. Statements:

    actor <Name> multiplicity <int> [shared]
    usecase <Id> "<title>" codesize <int>
    trigger <ActorName> -> <UseCaseId>
    relation include <BaseId> <- <IncludedId>
    relation extend <BaseId> <- <ExtendingId>
    flow <UseCaseId> -> <ActorName> periodic <ms> size <bytes>
    flow <UseCaseId> -> <ActorName> async size <bytes>

``parse_model`` raises on grammar violations, duplicate identifiers and
dangling references (all carry a line number). ``validate_model`` never
raises; it reports semantic problems (relation cycles, orphan use cases,
unroutable flows, bad multiplicities) as diagnostics.
"""

from __future__ import annotations

import graphlib
import re
from dataclasses import dataclass, field
from enum import Enum


class Instantiation(Enum):
    PER_INSTANCE = "per-instance"
    SHARED = "shared"


class RelationKind(Enum):
    INCLUDE = "include"
    EXTEND = "extend"


class FlowClass(Enum):
    PERIODIC = "periodic"
    ASYNC = "async"


@dataclass(frozen=True)
class Actor:
    name: str
    multiplicity: int = 1
    instantiation: Instantiation = Instantiation.PER_INSTANCE


@dataclass(frozen=True)
class UseCase:
    id: str
    title: str
    triggers: tuple[str, ...] = ()
    code_size: int = 0


@dataclass(frozen=True)
class UseCaseRelation:
    kind: RelationKind
    base: str
    other: str


@dataclass(frozen=True)
class TrafficFlow:
    source: str
    sink: str
    klass: FlowClass
    message_size: int
    period_ms: int | None = None  # set iff klass is PERIODIC


@dataclass(frozen=True)
class UseCaseModel:
    actors: tuple[Actor, ...] = ()
    use_cases: tuple[UseCase, ...] = ()
    relations: tuple[UseCaseRelation, ...] = ()
    flows: tuple[TrafficFlow, ...] = ()

    def actor(self, name: str) -> Actor:
        for a in self.actors:
            if a.name == name:
                return a
        raise KeyError(name)

    def use_case(self, uc_id: str) -> UseCase:
        for u in self.use_cases:
            if u.id == uc_id:
                return u
        raise KeyError(uc_id)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


class ModelError(Exception):
    """Base for model-file parse failures; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ModelSyntaxError(ModelError):
    pass


class DuplicateIdentifierError(ModelError):
    def __init__(self, line: int, name: str):
        super().__init__(line, f"duplicate identifier {name!r}")
        self.name = name


class DanglingReferenceError(ModelError):
    def __init__(self, line: int, name: str):
        super().__init__(line, f"dangling reference {name!r}")
        self.name = name


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_USECASE_RE = re.compile(r'^usecase\s+(\S+)\s+"([^"]*)"\s+codesize\s+(\d+)\s*$')


def _ident(tok: str, line: int) -> str:
    if not _IDENT.match(tok):
        raise ModelSyntaxError(line, f"invalid identifier {tok!r}")
    return tok


def _int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ModelSyntaxError(line, f"expected integer for {what}, got {tok!r}") from None


def strip_comment(raw: str) -> str:
    """Drop a `#` comment; model, scenario and config files share this rule.

    A `#` starts a comment only at the start of a word and outside double
    quotes, so `PeerCI#3`, `k#1` and `"Send #1 data"` keep theirs.
    """
    i = raw.find("#")
    while i >= 0:
        if (i == 0 or raw[i - 1] in " \t") and raw.count('"', 0, i) % 2 == 0:
            return raw[:i]
        i = raw.find("#", i + 1)
    return raw


def parse_model(text: str) -> UseCaseModel:
    """Parse model-file text into a UseCaseModel.

    The returned model is referentially sound: every trigger, relation and
    flow names a declared actor / use case. Semantic validation beyond
    that (cycles, orphans) is the job of :func:`validate_model`.
    """
    actors: list[Actor] = []
    use_cases: dict[str, UseCase] = {}
    relations: list[UseCaseRelation] = []
    flows: list[TrafficFlow] = []
    triggers: dict[str, list[str]] = {}
    actor_names: dict[str, int] = {}
    pending_refs: list[tuple[int, str, str]] = []  # (line, kind, name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split()
        stmt = parts[0]

        if stmt == "actor":
            # actor <Name> multiplicity <int> [shared]
            if len(parts) not in (4, 5) or parts[2] != "multiplicity":
                raise ModelSyntaxError(lineno, "expected: actor <Name> multiplicity <int> [shared]")
            name = _ident(parts[1], lineno)
            if name in actor_names:
                raise DuplicateIdentifierError(lineno, name)
            mult = _int(parts[3], lineno, "multiplicity")
            if mult < 1:
                raise ModelSyntaxError(lineno, f"multiplicity must be >= 1, got {mult}")
            inst = Instantiation.PER_INSTANCE
            if len(parts) == 5:
                if parts[4] != "shared":
                    raise ModelSyntaxError(lineno, f"unexpected token {parts[4]!r}")
                inst = Instantiation.SHARED
            actor_names[name] = lineno
            actors.append(Actor(name, mult, inst))

        elif stmt == "usecase":
            m = _USECASE_RE.match(line)
            if not m:
                raise ModelSyntaxError(lineno, 'expected: usecase <Id> "<title>" codesize <int>')
            uc_id = _ident(m.group(1), lineno)
            if uc_id in use_cases:
                raise DuplicateIdentifierError(lineno, uc_id)
            use_cases[uc_id] = UseCase(uc_id, m.group(2), (), int(m.group(3)))
            triggers.setdefault(uc_id, [])

        elif stmt == "trigger":
            # trigger <ActorName> -> <UseCaseId>
            if len(parts) != 4 or parts[2] != "->":
                raise ModelSyntaxError(lineno, "expected: trigger <ActorName> -> <UseCaseId>")
            pending_refs.append((lineno, "actor", parts[1]))
            pending_refs.append((lineno, "usecase", parts[3]))
            if parts[3] in triggers and parts[1] in triggers[parts[3]]:
                raise ModelSyntaxError(lineno, f"duplicate trigger {parts[1]} -> {parts[3]}")
            triggers.setdefault(parts[3], []).append(parts[1])

        elif stmt == "relation":
            # relation include|extend <BaseId> <- <OtherId>
            if len(parts) != 5 or parts[3] != "<-" or parts[1] not in ("include", "extend"):
                raise ModelSyntaxError(
                    lineno, "expected: relation include|extend <BaseId> <- <OtherId>"
                )
            kind = RelationKind.INCLUDE if parts[1] == "include" else RelationKind.EXTEND
            base, other = parts[2], parts[4]
            if base == other:
                raise ModelSyntaxError(lineno, f"relation relates {base!r} to itself")
            pending_refs.append((lineno, "usecase", base))
            pending_refs.append((lineno, "usecase", other))
            relations.append(UseCaseRelation(kind, base, other))

        elif stmt == "flow":
            # flow <UseCaseId> -> <ActorName> periodic <ms> size <bytes>
            # flow <UseCaseId> -> <ActorName> async size <bytes>
            if len(parts) >= 4 and parts[2] == "->":
                source, sink = parts[1], parts[3]
                rest = parts[4:]
            else:
                raise ModelSyntaxError(lineno, "expected: flow <UseCaseId> -> <ActorName> ...")
            pending_refs.append((lineno, "usecase", source))
            pending_refs.append((lineno, "actor", sink))
            if len(rest) == 4 and rest[0] == "periodic" and rest[2] == "size":
                period = _int(rest[1], lineno, "period")
                size = _int(rest[3], lineno, "size")
                if period < 1:
                    raise ModelSyntaxError(lineno, "period must be positive")
                if size < 1:
                    raise ModelSyntaxError(lineno, "message size must be positive")
                flows.append(TrafficFlow(source, sink, FlowClass.PERIODIC, size, period))
            elif len(rest) == 3 and rest[0] == "async" and rest[1] == "size":
                size = _int(rest[2], lineno, "size")
                if size < 1:
                    raise ModelSyntaxError(lineno, "message size must be positive")
                flows.append(TrafficFlow(source, sink, FlowClass.ASYNC, size, None))
            else:
                raise ModelSyntaxError(lineno, "expected 'periodic <ms> size <bytes>' or 'async size <bytes>'")

        else:
            raise ModelSyntaxError(lineno, f"unknown statement {stmt!r}")

    for lineno, kind, name in pending_refs:
        pool = actor_names if kind == "actor" else use_cases
        if name not in pool:
            raise DanglingReferenceError(lineno, name)

    finished = tuple(
        UseCase(uc.id, uc.title, tuple(triggers.get(uc.id, ())), uc.code_size)
        for uc in use_cases.values()
    )
    return UseCaseModel(tuple(actors), finished, tuple(relations), tuple(flows))


def render_model(model: UseCaseModel) -> str:
    """Serialize a model back to model-file text (inverse of parse_model)."""
    out: list[str] = []
    for a in model.actors:
        shared = " shared" if a.instantiation is Instantiation.SHARED else ""
        out.append(f"actor {a.name} multiplicity {a.multiplicity}{shared}")
    for u in model.use_cases:
        out.append(f'usecase {u.id} "{u.title}" codesize {u.code_size}')
    for u in model.use_cases:
        for actor in u.triggers:
            out.append(f"trigger {actor} -> {u.id}")
    for r in model.relations:
        out.append(f"relation {r.kind.value} {r.base} <- {r.other}")
    for f in model.flows:
        if f.klass is FlowClass.PERIODIC:
            out.append(f"flow {f.source} -> {f.sink} periodic {f.period_ms} size {f.message_size}")
        else:
            out.append(f"flow {f.source} -> {f.sink} async size {f.message_size}")
    return "\n".join(out) + ("\n" if out else "")


def trigger_map(model: UseCaseModel) -> dict[str, list[str]]:
    """Group use-case ids by the actor that triggers them.

    A use case triggered by k actors appears in k groups. Actors that
    trigger nothing are absent. Order follows model declaration order.
    """
    groups: dict[str, list[str]] = {}
    for u in model.use_cases:
        for actor in u.triggers:
            groups.setdefault(actor, []).append(u.id)
    # normalize group order to actor declaration order
    ordered = {a.name: groups[a.name] for a in model.actors if a.name in groups}
    for name in groups:  # actors referenced but undeclared (hand-built models)
        if name not in ordered:
            ordered[name] = groups[name]
    return ordered


def _relation_cycle(model: UseCaseModel) -> list[str] | None:
    """Find one directed cycle in the base->other relation graph, if any."""
    graph = graphlib.TopologicalSorter()
    for u in model.use_cases:
        graph.add(u.id)
    for r in model.relations:
        graph.add(r.base)  # the search starts from nodes in order of first mention
        graph.add(r.other, r.base)
    try:
        graph.prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def validate_model(model: UseCaseModel) -> list[Diagnostic]:
    """Check every model invariant; return diagnostics (empty iff valid)."""
    diags: list[Diagnostic] = []
    actor_names = [a.name for a in model.actors]
    uc_ids = [u.id for u in model.use_cases]

    seen: set[str] = set()
    for a in model.actors:
        if a.name in seen:
            diags.append(Diagnostic("error", f"actor {a.name}", "duplicate actor name"))
        seen.add(a.name)
        if a.multiplicity < 1:
            diags.append(
                Diagnostic("error", f"actor {a.name}", f"multiplicity must be >= 1, got {a.multiplicity}")
            )
    seen = set()
    for u in model.use_cases:
        if u.id in seen:
            diags.append(Diagnostic("error", f"usecase {u.id}", "duplicate use-case id"))
        seen.add(u.id)
        if u.code_size < 0:
            diags.append(Diagnostic("error", f"usecase {u.id}", "code size must be >= 0"))
        for t in u.triggers:
            if t not in actor_names:
                diags.append(Diagnostic("error", f"usecase {u.id}", f"unknown trigger actor {t!r}"))

    rel_targets = {r.other for r in model.relations}
    for r in model.relations:
        loc = f"relation {r.base} <- {r.other}"
        if r.base == r.other:
            diags.append(Diagnostic("error", loc, "relation relates a use case to itself"))
        for end in (r.base, r.other):
            if end not in uc_ids:
                diags.append(Diagnostic("error", loc, f"unknown use case {end!r}"))

    cycle = _relation_cycle(model)
    if cycle:
        diags.append(
            Diagnostic("error", f"usecase {cycle[0]}", "cycle: " + "→".join(cycle))
        )

    for u in model.use_cases:
        if not u.triggers and u.id not in rel_targets:
            diags.append(
                Diagnostic("error", f"usecase {u.id}", "orphan use case: no trigger and no incoming relation")
            )

    triggered_by_actor = trigger_map(model)
    for f in model.flows:
        loc = f"flow {f.source} -> {f.sink}"
        if f.source not in uc_ids:
            diags.append(Diagnostic("error", loc, f"unknown source use case {f.source!r}"))
        if f.sink not in actor_names:
            diags.append(Diagnostic("error", loc, f"unknown sink actor {f.sink!r}"))
        elif f.sink not in triggered_by_actor:
            diags.append(
                Diagnostic("error", loc, f"sink actor {f.sink!r} triggers no use case; flow is unroutable")
            )
        if f.message_size < 1:
            diags.append(Diagnostic("error", loc, "message size must be positive"))
        if f.klass is FlowClass.PERIODIC and (f.period_ms is None or f.period_ms < 1):
            diags.append(Diagnostic("error", loc, "periodic flow needs a positive period"))

    return diags
