"""Greedy group elimination: compute a set-minimal grouped independent support.

Starting from all groups, each node's group is tentatively removed; its two
variables are tested for definability from the remaining candidate set (not
yet processed groups plus groups already kept).  A group stays selected as
soon as one of its variables is not provably defined -- a satisfiable query
or an exhausted conflict budget both keep the group, so budget exhaustion
errs on the safe side and the output is a grouped independent support
regardless.  The selected nodes are exactly the sensor placement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import oracle
from .definability import DefinabilityContext
from .encoder import EncodedInstance
from .satcore import SolveStatus

ORDER_KEYWORDS = ("input", "deg-desc", "deg-asc", "random")
INNER_ORDERS = ("y-first", "x-first")


@dataclass(frozen=True)
class GismoConfig:
    """Knobs of one run.

    order is one of ORDER_KEYWORDS or an explicit node-index permutation;
    seed only matters for order="random".  budget is the per-query conflict
    allowance.  The engine is chosen by the DefinabilityContext passed to
    run_gismo.
    """

    budget: int = 5000
    order: str | tuple[int, ...] = "input"
    seed: int | None = None
    inner_order: str = "y-first"

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if isinstance(self.order, str):
            if self.order not in ORDER_KEYWORDS:
                raise ValueError(f"order must be one of {ORDER_KEYWORDS} "
                                 f"or an explicit node sequence")
        else:
            object.__setattr__(self, "order", tuple(self.order))
        if self.inner_order not in INNER_ORDERS:
            raise ValueError(f"inner_order must be one of {INNER_ORDERS}")


@dataclass(frozen=True)
class QueryRecord:
    var: int
    status: SolveStatus
    conflicts: int


@dataclass(frozen=True)
class GroupLog:
    node: int
    tested: tuple[QueryRecord, ...]
    kept: bool


@dataclass(frozen=True)
class GisResult:
    sensor_set: frozenset[int]
    per_group_log: tuple[GroupLog, ...]
    budget_exhaustions: int
    total_queries: int
    total_conflicts: int


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
    candidates = set(inst.z_vars)
    selected: set[int] = set()
    selected_support: set[int] = set()
    log: list[GroupLog] = []
    exhaustions = 0
    queries = 0
    conflicts = 0
    for v in group_order(inst, cfg):
        group = inst.group_of(v)
        x_var, y_var = group
        candidates.difference_update(group)
        defining = candidates | selected_support
        inner = (y_var, x_var) if cfg.inner_order == "y-first" else (x_var, y_var)
        tested: list[QueryRecord] = []
        kept = False
        for z in inner:
            outcome = ctx.query(defining, z, cfg.budget)
            queries += 1
            conflicts += outcome.conflicts_used
            tested.append(QueryRecord(z, outcome.status, outcome.conflicts_used))
            if outcome.status is SolveStatus.BUDGET_EXHAUSTED:
                exhaustions += 1
            if outcome.status is not SolveStatus.UNSAT:
                # not provably defined: the whole group stays
                selected.add(v)
                selected_support.update(group)
                kept = True
                break
        log.append(GroupLog(node=v, tested=tuple(tested), kept=kept))
    return GisResult(sensor_set=frozenset(selected),
                     per_group_log=tuple(log), budget_exhaustions=exhaustions,
                     total_queries=queries, total_conflicts=conflicts)


@dataclass(frozen=True)
class VerifyReport:
    is_gis: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    removable_groups: tuple[int, ...]
    model_count: int

    @property
    def minimal(self) -> bool:
        return self.is_gis and not self.removable_groups


def verify_result(inst: EncodedInstance, res: GisResult,
                  cap: int = 1 << 20) -> VerifyReport:
    """Desk-scale check of a run's output against enumerated projected models.

    Confirms the selected groups form a grouped independent support and
    reports every single group whose removal would preserve that property
    (none expected when no query exhausted its budget).
    """
    models = oracle.projected_models(inst, cap=cap)
    witness = oracle.find_gis_collision(inst, res.sensor_set, models)
    removable = [v for v in sorted(res.sensor_set)
                 if oracle.find_gis_collision(
                     inst, res.sensor_set - {v}, models) is None]
    return VerifyReport(is_gis=witness is None, witness=witness,
                        removable_groups=tuple(removable),
                        model_count=len(models))
