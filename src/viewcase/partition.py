"""Actor-centric process planning.

Groups use cases into per-actor View Cases, resolves actor instances into
process nodes under a mapping policy, and places common (included or
extending) use cases either inline or into dedicated service processes.

The two policy objectives trade memory for isolation:

* fault-tolerance — one process per actor instance; shared and common use
  cases are duplicated so that no process is a single point of failure.
* memory-bound — all instances of an actor collapse into one process,
  multi-actor use cases keep a single owning copy, and every common use
  case moves to a dedicated shared-service process. The resulting
  footprint must fit the declared budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .model import Instantiation, UseCaseModel, trigger_map

DEFAULT_INLINE_THRESHOLD = 4096

SPOF_WARNING = "single point of failure"


class Objective(Enum):
    FAULT_TOLERANCE = "fault-tolerance"
    MEMORY_BOUND = "memory-bound"


@dataclass(frozen=True)
class MappingPolicy:
    objective: Objective = Objective.FAULT_TOLERANCE
    memory_budget: int | None = None  # required when memory-bound
    inline_threshold: int = DEFAULT_INLINE_THRESHOLD

    def __post_init__(self) -> None:
        if self.objective is Objective.MEMORY_BOUND and self.memory_budget is None:
            raise ValueError("memory-bound planning requires memory_budget")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        if self.inline_threshold < 0:
            raise ValueError("inline_threshold must be >= 0")


@dataclass(frozen=True)
class ViewCase:
    actor: str
    use_cases: tuple[str, ...]


@dataclass(frozen=True)
class ProcessNode:
    """One planned OS process.

    `instance_index` is set only for nodes that realize a single actor
    instance (`<Actor>#<k>`); collapsed and shared nodes use `<Actor>#*`.
    `refs` lists view use cases whose code lives in another node (the
    memory-bound single-owner rule); `inlined` lists common use cases
    statically integrated into this node.
    """

    id: str
    view: ViewCase
    instance_index: int | None = None
    inlined: tuple[str, ...] = ()
    refs: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    service: bool = False

    @property
    def actor(self) -> str:
        return self.view.actor

    def owned_use_cases(self) -> tuple[str, ...]:
        """Use cases whose code is resident in this node."""
        return tuple(u for u in self.view.use_cases if u not in self.refs) + self.inlined


@dataclass(frozen=True)
class PlanDecision:
    case: int  # 1 = shared use case, 2 = actor multiplicity, 3 = common use case
    subject: str
    choice: str
    reason: str

    def __str__(self) -> str:
        return f"case-{self.case} {self.subject}: {self.choice} | {self.reason}"


@dataclass(frozen=True)
class ProcessPlan:
    nodes: tuple[ProcessNode, ...]
    shared_service_nodes: tuple[ProcessNode, ...]
    decisions: tuple[PlanDecision, ...]
    estimated_footprint: int
    policy: MappingPolicy

    def all_nodes(self) -> tuple[ProcessNode, ...]:
        return self.nodes + self.shared_service_nodes

    def node(self, node_id: str) -> ProcessNode:
        for n in self.all_nodes():
            if n.id == node_id:
                return n
        raise KeyError(node_id)


class BudgetExceeded(Exception):
    def __init__(self, footprint: int, budget: int):
        super().__init__(f"estimated footprint {footprint} exceeds memory budget {budget}")
        self.footprint = footprint
        self.budget = budget


def partition_views(model: UseCaseModel) -> list[ViewCase]:
    """One View Case per actor that triggers at least one use case."""
    return [ViewCase(actor, tuple(ucs)) for actor, ucs in trigger_map(model).items()]


def _first_trigger(model: UseCaseModel, uc_id: str) -> str:
    """Owning actor of a multi-triggered use case: first in declaration order."""
    triggers = set(model.use_case(uc_id).triggers)
    for a in model.actors:
        if a.name in triggers:
            return a.name
    return model.use_case(uc_id).triggers[0]


def resolve_instances(
    views: list[ViewCase], model: UseCaseModel, policy: MappingPolicy
) -> list[ProcessNode]:
    """Turn View Cases into process nodes.

    Fault-tolerance: one node per instance of a per-instance actor, one
    node for a shared actor. Memory-bound: one collapsed node per actor,
    and each multi-actor use case is owned by its first triggering actor
    (other nodes hold a reference).
    """
    collapse_all = policy.objective is Objective.MEMORY_BOUND
    owners: dict[str, str] = {}
    if collapse_all:
        for uc in model.use_cases:
            if len(uc.triggers) >= 2:
                owners[uc.id] = _first_trigger(model, uc.id)

    nodes: list[ProcessNode] = []
    for view in views:
        actor = model.actor(view.actor)
        refs = tuple(u for u in view.use_cases if owners.get(u, view.actor) != view.actor)
        if collapse_all or actor.instantiation is Instantiation.SHARED:
            nodes.append(ProcessNode(f"{actor.name}#*", view, None, refs=refs))
        else:
            for k in range(actor.multiplicity):
                nodes.append(ProcessNode(f"{actor.name}#{k}", view, k, refs=refs))
    return nodes


def _common_use_cases_in_order(model: UseCaseModel) -> list[str]:
    """Relation targets ordered so that every base is placed first."""
    targets = []
    for uc in model.use_cases:
        if any(r.other == uc.id for r in model.relations):
            targets.append(uc.id)
    bases = {t: {r.base for r in model.relations if r.other == t} for t in targets}
    ordered: list[str] = []
    placed: set[str] = set()
    remaining = list(targets)
    while remaining:
        progress = False
        for t in list(remaining):
            if all(b not in targets or b in placed for b in bases[t]):
                ordered.append(t)
                placed.add(t)
                remaining.remove(t)
                progress = True
        if not progress:  # relation cycle; validate_model reports it
            ordered.extend(remaining)
            break
    return ordered


def place_common(
    model: UseCaseModel, nodes: list[ProcessNode], policy: MappingPolicy
) -> tuple[list[ProcessNode], list[ProcessNode], list[PlanDecision]]:
    """Place every included/extending use case: inline or service process."""
    nodes = list(nodes)
    service_nodes: list[ProcessNode] = []
    decisions: list[PlanDecision] = []
    # where does each use case's code live right now?
    residence: dict[str, list[int]] = {}  # uc id -> indices into nodes
    for i, n in enumerate(nodes):
        for u in n.owned_use_cases():
            residence.setdefault(u, []).append(i)

    for uc_id in _common_use_cases_in_order(model):
        uc = model.use_case(uc_id)
        base_ids = [r.base for r in model.relations if r.other == uc_id]
        host_ids = sorted({i for b in base_ids for i in residence.get(b, [])})
        inline_ok = (
            policy.objective is Objective.FAULT_TOLERANCE
            and uc.code_size <= policy.inline_threshold
            and host_ids
        )
        if inline_ok:
            for i in host_ids:
                if uc_id not in nodes[i].inlined:
                    nodes[i] = replace(nodes[i], inlined=nodes[i].inlined + (uc_id,))
                    residence.setdefault(uc_id, []).append(i)
            names = ", ".join(nodes[i].id for i in host_ids)
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
                f"{uc_id}#svc",
                ViewCase("", (uc_id,)),
                None,
                warnings=(SPOF_WARNING,),
                service=True,
            )
            service_nodes.append(svc)
            nodes.append(svc)  # so deeper includes can land on it
            residence.setdefault(uc_id, []).append(len(nodes) - 1)
            if policy.objective is Objective.MEMORY_BOUND:
                why = "memory bound keeps one shared copy"
            else:
                why = (
                    f"code size {uc.code_size} > inline threshold "
                    f"{policy.inline_threshold}"
                )
            decisions.append(
                PlanDecision(3, uc_id, "shared-service", f"{why}; {SPOF_WARNING}")
            )

    regular = [n for n in nodes if not n.service]
    return regular, service_nodes, decisions


def _footprint(model: UseCaseModel, nodes: list[ProcessNode]) -> int:
    size = {u.id: u.code_size for u in model.use_cases}
    return sum(size[u] for n in nodes for u in n.owned_use_cases())


def build_plan(model: UseCaseModel, policy: MappingPolicy) -> ProcessPlan:
    """partition_views -> resolve_instances -> place_common -> footprint check."""
    views = partition_views(model)
    decisions: list[PlanDecision] = []

    for uc in model.use_cases:
        if len(uc.triggers) < 2:
            continue
        k = len(uc.triggers)
        if policy.objective is Objective.FAULT_TOLERANCE:
            decisions.append(
                PlanDecision(
                    1, uc.id, "duplicate", f"triggered by {k} actors; each view keeps a copy"
                )
            )
        else:
            owner = _first_trigger(model, uc.id)
            decisions.append(
                PlanDecision(
                    1,
                    uc.id,
                    f"single-owner {owner}",
                    f"triggered by {k} actors; memory bound keeps one copy, others reference it",
                )
            )

    with_views = {v.actor for v in views}
    for actor in model.actors:
        if actor.name not in with_views or actor.multiplicity < 2:
            continue
        if policy.objective is Objective.MEMORY_BOUND:
            decisions.append(
                PlanDecision(
                    2, actor.name, "collapse", "memory bound: one process for all instances"
                )
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
                    2,
                    actor.name,
                    f"instantiate x{actor.multiplicity}",
                    "fault tolerance: one process per actor instance",
                )
            )

    nodes = resolve_instances(views, model, policy)
    nodes, service_nodes, case3 = place_common(model, nodes, policy)
    decisions.extend(case3)

    footprint = _footprint(model, nodes + service_nodes)
    if policy.objective is Objective.MEMORY_BOUND:
        assert policy.memory_budget is not None
        if footprint > policy.memory_budget:
            raise BudgetExceeded(footprint, policy.memory_budget)

    return ProcessPlan(tuple(nodes), tuple(service_nodes), tuple(decisions), footprint, policy)


# --- diffing ----------------------------------------------------------------


@dataclass(frozen=True)
class PlanDiff:
    added_nodes: tuple[str, ...]
    removed_nodes: tuple[str, ...]
    changed_nodes: tuple[tuple[str, tuple[str, ...]], ...]
    added_channels: tuple[str, ...] = ()
    removed_channels: tuple[str, ...] = ()
    changed_channels: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.added_nodes
            or self.removed_nodes
            or self.changed_nodes
            or self.added_channels
            or self.removed_channels
            or self.changed_channels
        )


_NODE_FIELDS = ("view", "instance_index", "inlined", "refs", "warnings", "service")
_CHANNEL_FIELDS = (
    "kind",
    "writer",
    "readers",
    "klass",
    "capacity",
    "segment_size",
    "message_size",
    "period_ms",
    "source",
)


def _field_changes(old: object, new: object, fields: tuple[str, ...]) -> tuple[str, ...]:
    out = []
    for f in fields:
        a, b = getattr(old, f, None), getattr(new, f, None)
        if a != b:
            out.append(f"{f}: {a!r} -> {b!r}")
    return tuple(out)


def plan_diff(
    old: ProcessPlan,
    new: ProcessPlan,
    old_channels: object = (),
    new_channels: object = (),
) -> PlanDiff:
    """Structural diff of two plans (and, optionally, their channel tables)."""
    old_nodes = {n.id: n for n in old.all_nodes()}
    new_nodes = {n.id: n for n in new.all_nodes()}
    added = tuple(i for i in new_nodes if i not in old_nodes)
    removed = tuple(i for i in old_nodes if i not in new_nodes)
    changed = []
    for i in new_nodes:
        if i in old_nodes:
            delta = _field_changes(old_nodes[i], new_nodes[i], _NODE_FIELDS)
            if delta:
                changed.append((i, delta))

    old_ch = {c.id: c for c in old_channels}  # type: ignore[union-attr]
    new_ch = {c.id: c for c in new_channels}  # type: ignore[union-attr]
    ch_added = tuple(i for i in new_ch if i not in old_ch)
    ch_removed = tuple(i for i in old_ch if i not in new_ch)
    ch_changed = []
    for i in new_ch:
        if i in old_ch:
            delta = _field_changes(old_ch[i], new_ch[i], _CHANNEL_FIELDS)
            if delta:
                ch_changed.append((i, delta))

    return PlanDiff(added, removed, tuple(changed), ch_added, ch_removed, tuple(ch_changed))


# --- canonical plan document -------------------------------------------------


def _fmt(values: tuple[str, ...]) -> str:
    return " ".join(values) if values else "none"


def render_plan(plan: ProcessPlan, channels: object = None) -> str:
    """Serialize a plan (and optional channel table) to canonical text.

    Key order is fixed and empty fields render as `none`, so identical
    plans always serialize to identical bytes.
    """
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
    for n in plan.nodes:
        lines += [
            "",
            f"node: {n.id}",
            f"actor: {n.actor}",
            f"instance: {n.instance_index if n.instance_index is not None else '*'}",
            f"view: {_fmt(n.view.use_cases)}",
            f"inlined: {_fmt(n.inlined)}",
            f"refs: {_fmt(n.refs)}",
            f"warnings: {'; '.join(n.warnings) if n.warnings else 'none'}",
        ]
    for n in plan.shared_service_nodes:
        lines += [
            "",
            f"service: {n.id}",
            f"carries: {_fmt(n.view.use_cases)}",
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
                f"readers: {_fmt(c.readers)}",
                f"class: {c.klass.value}",
            ]
            if c.kind.value == "shared-segment":
                lines += [
                    f"period: {c.period_ms if c.period_ms is not None else 'none'}",
                    f"segment-size: {c.segment_size}",
                ]
            else:
                lines += [f"capacity: {c.capacity}", f"message-size: {c.message_size}"]
    return "\n".join(lines) + "\n"
