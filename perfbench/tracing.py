"""Spans and counts recorded around the calls into each gicsat layer.

Everything here wraps the library from outside: a `DefinabilityContext`
subclass that `run_gismo` receives as its context, and a `CdclSolver`
subclass registered in `satcore.ENGINES` and selected through `engine=`.
The benchmark's own code opens the spans around the `graph`, `encoder`,
`gismo` and `oracle` calls.  Spans stay in memory until the run writes them
out at the end.

`NullTracer` is the untraced path: the plain context, the plain `bundled`
engine, and spans that record nothing.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

from gicsat import satcore
from gicsat.definability import DefinabilityContext
from gicsat.oracle import failure_set_count

TRACED_ENGINE = "perfbench-traced"


class Span:
    """One timed call at a layer boundary; `attrs` may be filled after exit."""

    __slots__ = ("tracer", "name", "attrs", "id", "parent", "op", "start", "end")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.attrs: dict = {}

    def __enter__(self) -> "Span":
        t = self.tracer
        self.id = len(t.spans)
        t.spans.append(self)
        self.parent, t.current = t.current, self.id
        self.op = t.op
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter()
        self.tracer.current = self.parent
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start": self.start, "end": self.end,
                **self.attrs}


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class NullTracer:
    """Untraced runs: plain library objects, spans that record nothing."""

    engine = "bundled"

    def __init__(self):
        self._span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def context(self, inst) -> DefinabilityContext:
        return DefinabilityContext(inst, engine=self.engine)


class Tracer:
    """Traced runs: every span of the run, and every engine it created."""

    engine = TRACED_ENGINE

    def __init__(self):
        self.spans: list[Span] = []
        self.engines: list[TracedSolver] = []
        self.current: int | None = None
        self.op: str | None = None
        satcore.ENGINES[TRACED_ENGINE] = lambda formula: TracedSolver(formula, self)

    def span(self, name: str) -> Span:
        return Span(self, name)

    def context(self, inst) -> "TracedContext":
        return TracedContext(inst, self)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for sp in self.spans:
                fp.write(json.dumps(sp.to_json()) + "\n")


class TracedSolver(satcore.CdclSolver):
    """The bundled engine with a span around construction and each solve."""

    def __init__(self, formula, tracer: Tracer):
        self.tracer = tracer
        with tracer.span("satcore.load"):
            super().__init__(formula)
        tracer.engines.append(self)

    def solve(self, assumptions=(), budget=None):
        with self.tracer.span("satcore.solve") as sp:
            out = super().solve(assumptions, budget)
        sp.attrs["status"] = out.status.value
        sp.attrs["conflicts"] = out.conflicts_used
        return out


class TracedContext(DefinabilityContext):
    """The two-copy context with spans around the base build and each query."""

    def __init__(self, inst, tracer: Tracer):
        self.tracer = tracer
        with tracer.span("definability.build") as sp:
            super().__init__(inst, engine=tracer.engine)
        sp.attrs["clauses"] = len(self.base.clauses)

    def query(self, defining, target, budget=None):
        with self.tracer.span("definability.query") as sp:
            out = super().query(defining, target, budget)
        # run_gismo passes a set that never holds the target: |defining| + 2
        sp.attrs["assumptions"] = len(defining) + 2
        sp.attrs["status"] = out.status.value
        return out


def scanned_failure_sets(n: int, k: int, collision) -> int:
    """Failure sets `find_signature_collision` visited before it returned.

    It walks sets by size, then in lexicographic order, and stops at the
    second set of the first colliding pair; with no collision it visits all.
    """
    if collision is None:
        return failure_set_count(n, k)
    last = sorted(collision[1])
    size = len(last)
    rank = failure_set_count(n, size - 1)
    prev = -1
    for i, v in enumerate(last):
        for u in range(prev + 1, v):
            rank += math.comb(n - 1 - u, size - 1 - i)
        prev = v
    return rank + 1


COUNT_KEYS = (
    "graph.parse_s", "encoder.encode_s", "encoder.clauses",
    "definability.build_s", "definability.base_clauses",
    "definability.queries_sat", "definability.queries_unsat",
    "definability.query_s", "definability.assumption_lits",
    "definability.solve_in_query_s",
    "gismo.loop_s", "gismo.groups", "gismo.exhaustions",
    "satcore.load_s", "satcore.solve_calls", "satcore.solve_s",
    "satcore.sat_s", "satcore.unsat_s", "satcore.conflicts",
    "satcore.enum_models", "satcore.enum_s",
    "oracle.signature_s", "oracle.failure_sets", "oracle.truth_table_s",
    "satcore.clause_db", "satcore.learned_live",
)
# inputs of derived metrics, not reported themselves
_INTERNAL_KEYS = ("definability.assumption_lits", "definability.solve_in_query_s",
                  "gismo.groups")


def op_counts(spans: list[Span], engines: list[TracedSolver]) -> dict[str, float]:
    """Additive per-layer quantities of one traced operation."""
    c = dict.fromkeys(COUNT_KEYS, 0)
    by_id = {sp.id: sp for sp in spans}
    for sp in spans:
        name, a, s = sp.name, sp.attrs, sp.seconds
        if name == "graph.parse":
            c["graph.parse_s"] += s
        elif name == "encoder.encode":
            c["encoder.encode_s"] += s
            c["encoder.clauses"] += a["clauses"]
        elif name == "definability.build":
            c["definability.build_s"] += s
            c["definability.base_clauses"] += a["clauses"]
        elif name == "definability.query":
            c["definability.query_s"] += s
            c["definability.assumption_lits"] += a["assumptions"]
            if a["status"] == "sat":
                c["definability.queries_sat"] += 1
            elif a["status"] == "unsat":
                c["definability.queries_unsat"] += 1
        elif name == "gismo.loop":
            c["gismo.loop_s"] += s
            c["gismo.groups"] += a["groups"]
            c["gismo.exhaustions"] += a["exhaustions"]
        elif name == "satcore.load":
            c["satcore.load_s"] += s
        elif name == "satcore.solve":
            c["satcore.solve_calls"] += 1
            c["satcore.solve_s"] += s
            c["satcore.conflicts"] += a["conflicts"]
            if a["status"] == "sat":
                c["satcore.sat_s"] += s
            elif a["status"] == "unsat":
                c["satcore.unsat_s"] += s
            parent = by_id.get(sp.parent)
            if parent is not None and parent.name == "definability.query":
                c["definability.solve_in_query_s"] += s
        elif name == "satcore.enum":
            c["satcore.enum_s"] += s
            c["satcore.enum_models"] += a["models"]
        elif name == "oracle.signature":
            c["oracle.signature_s"] += s
            c["oracle.failure_sets"] += a["failure_sets"]
        elif name == "oracle.truth_table":
            c["oracle.truth_table_s"] += s
    c["satcore.clause_db"] = sum(len(e.clauses) for e in engines)
    c["satcore.learned_live"] = sum(len(e.learned_ids) for e in engines)
    return c


TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[math.ceil(len(ordered) * pct / 100.0) - 1]
    return 50.0, statistics.median(ordered)


def layer_metrics(per_graph: list[list[dict]], query_seconds: list[float],
                  traced_cpu: float, untraced_cpu: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    per_graph holds, for each input graph, the op_counts of its traced
    operations; each quantity is the median over a graph's operations,
    summed over graphs.  Ratios and self times are derived from those sums.
    """
    t = {key: sum(_median([op[key] for op in ops]) for ops in per_graph if ops)
         for key in COUNT_KEYS}
    queries = t["definability.queries_sat"] + t["definability.queries_unsat"]
    pct, tail_s = tail(query_seconds)
    m = {key: t[key] for key in COUNT_KEYS if key not in _INTERNAL_KEYS}
    m.update({
        "definability.query_p50_ms": (statistics.median(query_seconds) * 1e3
                                      if query_seconds else 0.0),
        "definability.query_tail_ms": tail_s * 1e3,
        "definability.query_tail_pct": pct,
        "definability.query_samples": len(query_seconds),
        "definability.self_s": (t["definability.query_s"]
                                - t["definability.solve_in_query_s"]),
        "definability.assumptions_per_query": _ratio(
            t["definability.assumption_lits"], queries),
        "gismo.self_s": t["gismo.loop_s"] - t["definability.query_s"],
        "gismo.queries_per_group": _ratio(queries, t["gismo.groups"]),
        "satcore.conflicts_per_call": _ratio(t["satcore.conflicts"],
                                             t["satcore.solve_calls"]),
        "satcore.us_per_conflict": _ratio(t["satcore.solve_s"] * 1e6,
                                          t["satcore.conflicts"]),
        "oracle.scan_s": t["oracle.truth_table_s"] - t["satcore.enum_s"],
        "trace.overhead_s": traced_cpu - untraced_cpu,
        "trace.overhead_pct": _ratio(100.0 * (traced_cpu - untraced_cpu),
                                     untraced_cpu),
    })
    return m


def _median(values: list) -> float:
    """Median; a count stays an int (counts repeat exactly between operations)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
