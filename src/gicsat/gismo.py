"""Greedy group elimination: compute a set-minimal grouped independent support.

Starting from all groups, each node's group is taken out of the support
with `ctx.drop(v)` and its two variables are queried on `ctx.support`: the
groups not yet processed plus the groups kept.  `ctx.keep(v)` puts the
group back as soon as one of its variables is not provably defined -- a
satisfiable query or an exhausted conflict budget both keep the group, so
budget exhaustion errs on the safe side and the output is a grouped
independent support regardless.  The kept nodes are exactly the sensor
placement.  x is probed before y at every k, which visits fewer
graph-search pairs on the benchmark graphs; the probe order changes how
many queries run, never which groups are kept.

A group kept on a SAT answer logs its witness, two failure sets whose
signatures agree on the support minus the group; the support only shrinks,
so they also collide on the final sensor set minus that node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import oracle
from .definability import DefinabilityContext, QueryAnswer
from .encoder import EncodedInstance
from .satcore import SolveStatus

ORDER_KEYWORDS = ("input", "deg-desc", "deg-asc", "random")


@dataclass(frozen=True)
class GismoConfig:
    """Knobs of one run.

    order is one of ORDER_KEYWORDS or an explicit node-index permutation;
    seed is required by order="random", so that the config fixes the run,
    and ignored otherwise.  budget is the conflict allowance of each query
    that the graph search leaves to the engine.  The engine is chosen by
    the DefinabilityContext passed to run_gismo.
    """

    budget: int = 5000
    order: str | tuple[int, ...] = "input"
    seed: int | None = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if isinstance(self.order, str):
            if self.order not in ORDER_KEYWORDS:
                raise ValueError(f"order must be one of {ORDER_KEYWORDS} "
                                 f"or an explicit node sequence")
            if self.order == "random" and self.seed is None:
                raise ValueError("order 'random' needs a seed")
        else:
            object.__setattr__(self, "order", tuple(self.order))


@dataclass(frozen=True)
class GroupLog:
    node: int
    tested: tuple[QueryAnswer, ...]
    kept: bool


@dataclass(frozen=True)
class GisResult:
    sensor_set: frozenset[int]
    per_group_log: tuple[GroupLog, ...]
    budget_exhaustions: int
    total_queries: int
    total_conflicts: int
    total_search_nodes: int


def group_order(inst: EncodedInstance, cfg: GismoConfig) -> list[int]:
    """Node processing order under the config; explicit orders are validated."""
    n = inst.graph.n
    if not isinstance(cfg.order, str):
        if sorted(cfg.order) != list(range(n)):
            raise ValueError("explicit order must be a permutation of all nodes")
        return list(cfg.order)
    if cfg.order == "input":
        return list(range(n))
    if cfg.order == "deg-desc":
        return sorted(range(n), key=lambda v: (-inst.graph.degree(v), v))
    if cfg.order == "deg-asc":
        return sorted(range(n), key=lambda v: (inst.graph.degree(v), v))
    nodes = list(range(n))
    random.Random(cfg.seed).shuffle(nodes)
    return nodes


def run_gismo(inst: EncodedInstance, cfg: GismoConfig | None = None,
              ctx: DefinabilityContext | None = None) -> GisResult:
    """Iterate over groups and keep those with a not-provably-defined variable."""
    if cfg is None:
        cfg = GismoConfig()
    if ctx is None:
        ctx = DefinabilityContext(inst)
    elif ctx.inst is not inst:
        raise ValueError("the context was built on another instance")
    elif len(ctx.support) != 2 * inst.graph.n:
        raise ValueError("the context's support is not full; pass a new context")
    log: list[GroupLog] = []
    for v in group_order(inst, cfg):
        ctx.drop(v)
        tested: list[QueryAnswer] = []
        for z in inst.group_of(v):
            tested.append(ctx.query(ctx.support, z, cfg.budget))
            if tested[-1].status is not SolveStatus.UNSAT:
                break  # not provably defined: the whole group stays
        kept = tested[-1].status is not SolveStatus.UNSAT
        if kept:
            ctx.keep(v)
        log.append(GroupLog(node=v, tested=tuple(tested), kept=kept))
    answers = [a for e in log for a in e.tested]
    return GisResult(
        sensor_set=frozenset(e.node for e in log if e.kept),
        per_group_log=tuple(log),
        budget_exhaustions=sum(a.status is SolveStatus.BUDGET_EXHAUSTED
                               for a in answers),
        total_queries=len(answers),
        total_conflicts=sum(a.conflicts_used for a in answers),
        total_search_nodes=sum(a.search_nodes for a in answers))


@dataclass(frozen=True)
class VerifyReport:
    is_gis: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    removable_groups: tuple[int, ...]
    model_count: int

    @property
    def minimal(self) -> bool:
        return self.is_gis and not self.removable_groups


def verify_result(inst: EncodedInstance, res: GisResult) -> VerifyReport:
    """Desk-scale check of a run's output against enumerated projected models.

    Confirms the selected groups form a grouped independent support and
    reports every single group whose removal would preserve that property
    (none expected when no query exhausted its budget).
    """
    models = oracle.projected_models(inst)
    witness = oracle.find_gis_collision(inst, res.sensor_set, models)
    removable = [v for v in sorted(res.sensor_set)
                 if oracle.find_gis_collision(
                     inst, res.sensor_set - {v}, models) is None]
    return VerifyReport(is_gis=witness is None, witness=witness,
                        removable_groups=tuple(removable),
                        model_count=len(models))
