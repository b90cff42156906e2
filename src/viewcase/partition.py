"""Actor-centric process planning.

Groups use cases into per-actor View Cases and maps them onto process
nodes. `build_plan` decides each of the paper's three mapping cases once,
where it lays out the nodes that follow from it, and records the decision:

1. a use case triggered by several actors is duplicated into every view
   (fault tolerance) or owned by its first triggering actor in declaration
   order, the other views holding a reference (memory bound);
2. an actor with multiplicity k becomes k processes `<Actor>#0..k-1`, or
   one collapsed process `<Actor>#*` when it is shared or memory is bound;
3. an included or extending use case is inlined into every process that
   holds one of its bases, or moved into a `<name>#svc` service process,
   which may in turn carry smaller use cases it includes.

The two policy objectives trade memory for isolation:

* fault-tolerance — one process per actor instance; shared and common use
  cases are duplicated so that no process is a single point of failure.
* memory-bound — all instances of an actor collapse into one process,
  multi-actor use cases keep a single owning copy, and every common use
  case moves to a dedicated shared-service process. The resulting
  footprint must fit the declared budget.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        # takes the value form too ("memory-bound"); any other value raises ValueError
        object.__setattr__(self, "objective", Objective(self.objective))
        if self.objective is Objective.MEMORY_BOUND and self.memory_budget is None:
            raise ValueError("memory-bound planning requires memory_budget")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        if self.inline_threshold < 0:
            raise ValueError("inline_threshold must be >= 0")


@dataclass(frozen=True, slots=True)
class ViewCase:
    actor: str
    use_cases: tuple[str, ...]


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def build_plan(model: UseCaseModel, policy: MappingPolicy) -> ProcessPlan:
    """Decide the three mapping cases, build each node once, check the footprint."""
    memory_bound = policy.objective is Objective.MEMORY_BOUND
    views = partition_views(model)
    owner: dict[str, str] = {}  # use case -> first triggering actor in declaration order
    for view in views:
        for u in view.use_cases:
            owner.setdefault(u, view.actor)
    decisions: list[PlanDecision] = []

    # case 1: a use case triggered by several actors
    for uc in model.use_cases:
        if len(uc.triggers) < 2:
            continue
        if memory_bound:
            choice = f"single-owner {owner[uc.id]}"
            why = "memory bound keeps one copy, others reference it"
        else:
            choice, why = "duplicate", "each view keeps a copy"
        decisions.append(
            PlanDecision(1, uc.id, choice, f"triggered by {len(uc.triggers)} actors; {why}")
        )

    # case 2: actor multiplicity; each layout entry is a ProcessNode's fields but `inlined`
    layout: list[dict] = []
    for view in views:
        actor = model.actor(view.actor)
        collapse = memory_bound or actor.instantiation is Instantiation.SHARED
        refs = tuple(u for u in view.use_cases if owner[u] != actor.name) if memory_bound else ()
        if collapse:
            layout.append({"id": f"{actor.name}#*", "view": view, "refs": refs})
        else:
            layout += [
                {"id": f"{actor.name}#{k}", "view": view, "instance_index": k, "refs": refs}
                for k in range(actor.multiplicity)
            ]
        if actor.multiplicity < 2:
            continue
        if memory_bound:
            choice, why = "collapse", "memory bound: one process for all instances"
        elif collapse:
            choice, why = "collapse", "shared instantiation: one process for all instances"
        else:
            choice = f"instantiate x{actor.multiplicity}"
            why = "fault tolerance: one process per actor instance"
        decisions.append(PlanDecision(2, actor.name, choice, why))

    # case 3: each included or extending use case goes inline or into a service
    inlined: list[list[str]] = [[] for _ in layout]
    residence: dict[str, list[int]] = {}  # uc id -> layout indices holding its code
    for i, entry in enumerate(layout):
        for u in entry["view"].use_cases:
            if u not in entry["refs"]:
                residence.setdefault(u, []).append(i)
    for uc_id in _common_use_cases_in_order(model):
        uc = model.use_case(uc_id)
        base_ids = [r.base for r in model.relations if r.other == uc_id]
        host_ids = sorted({i for b in base_ids for i in residence.get(b, [])})
        if not memory_bound and uc.code_size <= policy.inline_threshold and host_ids:
            for i in host_ids:
                inlined[i].append(uc_id)
                residence.setdefault(uc_id, []).append(i)
            names = ", ".join(layout[i]["id"] for i in host_ids)
            choice = "inline"
            why = (
                f"code size {uc.code_size} <= inline threshold "
                f"{policy.inline_threshold}; duplicated into {names}"
            )
        else:
            layout.append(
                {
                    "id": f"{uc_id}#svc",
                    "view": ViewCase("", (uc_id,)),
                    "warnings": (SPOF_WARNING,),
                    "service": True,
                }
            )
            inlined.append([])  # deeper includes can land on the service
            residence.setdefault(uc_id, []).append(len(layout) - 1)
            if memory_bound:
                why = "memory bound keeps one shared copy"
            else:
                why = f"code size {uc.code_size} > inline threshold {policy.inline_threshold}"
            choice, why = "shared-service", f"{why}; {SPOF_WARNING}"
        decisions.append(PlanDecision(3, uc_id, choice, why))

    nodes = [ProcessNode(**entry, inlined=tuple(inl)) for entry, inl in zip(layout, inlined)]
    size = {u.id: u.code_size for u in model.use_cases}
    footprint = sum(size[u] for n in nodes for u in n.owned_use_cases())
    if memory_bound:
        assert policy.memory_budget is not None
        if footprint > policy.memory_budget:
            raise BudgetExceeded(footprint, policy.memory_budget)
    services = tuple(n for n in nodes if n.service)
    regular = tuple(n for n in nodes if not n.service)
    return ProcessPlan(regular, services, tuple(decisions), footprint, policy)


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


def _diff_by_id(old: object, new: object, fields: tuple[str, ...]) -> tuple[tuple, tuple, tuple]:
    """Added ids, removed ids and (id, field changes) pairs of two id-keyed collections."""
    before = {x.id: x for x in old}  # type: ignore[attr-defined]
    after = {x.id: x for x in new}  # type: ignore[attr-defined]
    changed = []
    for i, x in after.items():
        if i in before:
            pairs = ((f, getattr(before[i], f, None), getattr(x, f, None)) for f in fields)
            delta = tuple(f"{f}: {a!r} -> {b!r}" for f, a, b in pairs if a != b)
            if delta:
                changed.append((i, delta))
    added = tuple(i for i in after if i not in before)
    removed = tuple(i for i in before if i not in after)
    return added, removed, tuple(changed)


def plan_diff(
    old: ProcessPlan,
    new: ProcessPlan,
    old_channels: object = (),
    new_channels: object = (),
) -> PlanDiff:
    """Structural diff of two plans (and, optionally, their channel tables)."""
    nodes = _diff_by_id(old.all_nodes(), new.all_nodes(), _NODE_FIELDS)
    return PlanDiff(*nodes, *_diff_by_id(old_channels, new_channels, _CHANNEL_FIELDS))


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
            f"carries: {_fmt(n.owned_use_cases())}",
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
