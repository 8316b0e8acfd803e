"""Workloads, operations, measurement loop and correctness gate.

Imported by run.py after it has put this checkout's src/ on the path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from gicsat import oracle
from gicsat.encoder import encode_instance
from gicsat.gismo import GismoConfig, run_gismo
from gicsat.graph import parse_graph_file
from gicsat.satcore import SolveStatus, enumerate_models_projected

from tracing import NullTracer, Tracer, layer_metrics, op_counts, scanned_failure_sets

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

BUDGET = 5000           # conflicts per definability query, the CLI default
SETUP_REPS = 5          # set-up-only repetitions before each untraced operation
# `gicsat verify` cross-checks the CNF truth table up to this many failure sets
TRUTH_TABLE_LIMIT = 4096


@dataclass(frozen=True)
class Graphs:
    count: int  # graphs per run
    n: int      # nodes per G(n, 2n) graph
    k: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str   # "solve" or "verify"
    parts: tuple[Graphs, ...]

    @property
    def graphs(self) -> int:
        return sum(p.count for p in self.parts)

    def describe(self) -> str:
        return " + ".join(f"{p.count} x G({p.n}, {2 * p.n}) k={p.k}" for p in self.parts)


# Why each workload exists is written down in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("solve-mix", "solve", (Graphs(16, n=120, k=1), Graphs(40, n=40, k=4))),
    Workload("verify-tt", "verify", (Graphs(5, n=50, k=2),)),
)}


# ---- inputs ----------------------------------------------------------------


def gnm_edgelist(n: int, m: int, rng: random.Random) -> str:
    """A G(n, m) random graph as edge-list text; isolated nodes as `v v`."""
    edges: dict[tuple[int, int], None] = {}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.setdefault((min(u, v), max(u, v)))
    touched = {x for e in edges for x in e}
    lines = [f"# G(n={n}, m={m})"]
    lines += [f"{u} {v}" for u, v in edges]
    lines += [f"{v} {v}" for v in range(n) if v not in touched]
    return "\n".join(lines) + "\n"


def make_inputs(wl: Workload, seed: int, directory: Path) -> tuple[list["Item"], str]:
    """Write the run's graphs; returns (one Item per graph, sha256 of the bytes).

    The parts of a workload are interleaved evenly, so that a slow spell of
    the machine falls on each part alike.  Each graph also gets one random
    draw that picks the sensor `verify-tt` removes from its placement.
    """
    order = sorted(((j + 0.5) / p.count, i) for i, p in enumerate(wl.parts)
                   for j in range(p.count))
    rng = random.Random(f"{wl.name}/{seed}")
    digest = hashlib.sha256()
    items = []
    for i, (_, part) in enumerate(order):
        n, k = wl.parts[part].n, wl.parts[part].k
        data = gnm_edgelist(n, 2 * n, rng).encode()
        path = directory / f"{wl.name}-s{seed}-g{i:02d}.edges"
        path.write_bytes(data)
        digest.update(data)
        items.append(Item(str(path), rng.randrange(1 << 30), n, k))
    return items, digest.hexdigest()


# ---- operations --------------------------------------------------------------


@dataclass
class Sample:
    wall: float                  # wall seconds of the operation
    cpu: float                   # CPU seconds of the process over the operation
    setup: float                 # CPU seconds of its set-up
    result: tuple | None = None  # None when the operation raised
    counts: dict | None = None   # per-layer quantities of a traced operation
    query_seconds: list[float] = field(default_factory=list)


def setup(path: str, k: int, kind: str, tr):
    """parse + encode, plus the two-copy base build on the solve workloads."""
    with tr.span("graph.parse"):
        g = parse_graph_file(path)
    with tr.span("encoder.encode") as sp:
        inst = encode_instance(g, k)
    sp.attrs["clauses"] = len(inst.formula)
    ctx = tr.context(inst) if kind == "solve" else None
    return g, inst, ctx


def solve_op(path: str, k: int, tr) -> Sample:
    """graph file -> placement: the sequence `cli.solve_record` runs."""
    t0, c0 = perf_counter(), process_time()
    g, inst, ctx = setup(path, k, "solve", tr)
    c1 = process_time()
    with tr.span("gismo.loop") as sp:
        res = run_gismo(inst, GismoConfig(budget=BUDGET, order="input"), ctx)
    t2, c2 = perf_counter(), process_time()
    sp.attrs["groups"] = g.n
    sp.attrs["exhaustions"] = res.budget_exhaustions
    sat = sum(q.status is SolveStatus.SAT
              for log in res.per_group_log for q in log.tested)
    sensors = tuple(sorted((g.labels[v] for v in res.sensor_set), key=int))
    return Sample(t2 - t0, c2 - c0, c1 - c0,
                  (sensors, res.total_queries, sat, res.total_conflicts,
                   res.budget_exhaustions))


def verify_op(path: str, k: int, tr, placement: tuple[str, ...],
              dropped: str) -> Sample:
    """graph file -> verdicts on the placement and on it minus one sensor.

    Each verdict follows `gicsat verify`: the signature scan, then the CNF
    truth-table cross-check when the failure sets are few enough.  The
    encoding is built once, as set-up, and serves both verdicts.
    """
    t0, c0 = perf_counter(), process_time()
    g, inst, _ = setup(path, k, "verify", tr)
    c1 = process_time()
    verdicts, models = [], 0
    for labels in (placement, tuple(s for s in placement if s != dropped)):
        sensors = [g.index_of(lab) for lab in labels]
        with tr.span("oracle.signature") as sp:
            collision = oracle.find_signature_collision(g, sensors, k)
        sp.attrs["failure_sets"] = scanned_failure_sets(g.n, k, collision)
        if collision is not None:
            verdicts.append("FAIL")
            continue
        if oracle.failure_set_count(g.n, k) <= TRUTH_TABLE_LIMIT:
            with tr.span("oracle.truth_table"):
                with tr.span("satcore.enum") as enum_sp:
                    rows = enumerate_models_projected(inst.formula, inst.z_vars,
                                                      engine=tr.engine)
                ok = oracle.is_gis_bruteforce(inst, set(sensors), rows)
            enum_sp.attrs["models"] = models = len(rows)
            if not ok:
                verdicts.append("FAIL")
                continue
        verdicts.append("PASS")
    t2, c2 = perf_counter(), process_time()
    return Sample(t2 - t0, c2 - c0, c1 - c0, (tuple(verdicts), models))


def placement(path: str, k: int) -> tuple[tuple[str, ...], int]:
    """(sensor labels, budget exhaustions) of `gicsat solve` on one graph."""
    sensors, _, _, _, exhaustions = solve_op(path, k, NullTracer()).result
    return sensors, exhaustions


# ---- the run -------------------------------------------------------------------


@dataclass
class Item:
    """One input graph of a run, with everything measured on it."""

    path: str
    drop: int
    n: int
    k: int
    placement: tuple[str, ...] = ()   # verify-tt: the placement under test
    exhaustions: int = 0              # verify-tt: of the solve that computed it
    untraced: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # CPU seconds
    problems: list[str] = field(default_factory=list)

    def op(self, kind: str, tr) -> Sample:
        if kind == "solve":
            return solve_op(self.path, self.k, tr)
        dropped = self.placement[self.drop % len(self.placement)]
        return verify_op(self.path, self.k, tr, self.placement, dropped)


def run_op(item: Item, kind: str, tr) -> Sample:
    gc.collect()
    traced = isinstance(tr, Tracer)
    if traced:
        first_span, first_engine = len(tr.spans), len(tr.engines)
        tr.op = f"{Path(item.path).stem}#{len(item.traced)}"
    start, start_cpu = perf_counter(), process_time()
    try:
        sample = item.op(kind, tr)
    except Exception:  # an operation that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        cpu = process_time() - start_cpu
        return Sample(perf_counter() - start, cpu, cpu)
    if traced:
        spans = tr.spans[first_span:]
        sample.counts = op_counts(spans, tr.engines[first_engine:])
        sample.query_seconds = [sp.seconds for sp in spans
                                if sp.name == "definability.query"]
    return sample


def prepare(items: list[Item], refs: list[str] | None) -> None:
    """verify-tt: compute the placement under test with `gicsat solve`'s sequence."""
    for i, item in enumerate(items):
        try:
            item.placement, item.exhaustions = placement(item.path, item.k)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            item.problems.append("computing the placement under test raised")
            continue
        if item.exhaustions:
            item.problems.append(f"{item.exhaustions} budget exhaustions: the placement "
                                 f"is not certified minimal, so FAIL is not expected")
        if refs is not None and " ".join(item.placement) != refs[i]:
            item.problems.append("placement under test differs from the reference")


def timed_setups(item: Item, kind: str, tr) -> None:
    for _ in range(SETUP_REPS):
        gc.collect()
        start = process_time()
        try:
            setup(item.path, item.k, kind, tr)
        except Exception:
            break  # the operation raises too, and counts as failed
        item.setups.append(process_time() - start)


def measure(items: list[Item], kind: str, seconds: float,
            traced: bool) -> Tracer | None:
    """Closed loop, one operation at a time, until `seconds` pass and every
    graph ran at least once."""
    plain = NullTracer()
    tracer = Tracer() if traced else None
    deadline = perf_counter() + seconds
    i = 0
    while i < len(items) or perf_counter() < deadline:
        item = items[i % len(items)]
        if not traced:
            # interleaved with the operations, so a slow spell of the machine
            # touches only a share of the set-up samples
            timed_setups(item, kind, plain)
        item.untraced.append(run_op(item, kind, plain))
        if tracer is not None:
            item.traced.append(run_op(item, kind, tracer))
        i += 1
    return tracer


# the fields of Sample.result, per kind of operation
RESULT_FIELDS = {"solve": ("sensors", "total_queries", "SAT queries",
                           "total_conflicts", "exhaustions"),
                 "verify": ("verdicts", "model count")}


def check(items: list[Item], kind: str, refs: list[str] | None) -> None:
    """Correctness gate; appends each problem found to its graph's item."""
    for i, item in enumerate(items):
        results = [s.result for s in item.untraced + item.traced]
        if any(r is None for r in results):
            item.problems.append("an operation raised")
            continue
        differ = [name for j, name in enumerate(RESULT_FIELDS[kind])
                  if len({r[j] for r in results}) > 1]
        if differ:
            item.problems.append("DETERMINISM VIOLATION: repeated operations on "
                                 f"one graph gave different {', '.join(differ)}")
            continue
        if kind == "solve":
            _check_placement(item, results[0], refs and refs[i])
        else:
            verdicts, models = results[0]
            if verdicts != ("PASS", "FAIL"):
                item.problems.append(f"verdicts {verdicts}, expected ('PASS', 'FAIL')")
            elif models != oracle.failure_set_count(item.n, item.k):
                item.problems.append(f"{models} projected models, expected one per "
                                     f"failure set of size <= {item.k}")


def _check_placement(item: Item, result: tuple, ref: str | None) -> None:
    sensors, queries, sat, conflicts, exhaustions = result
    if exhaustions:
        item.problems.append(f"{exhaustions} budget exhaustions: the placement "
                             f"may not be minimal")
    g = parse_graph_file(item.path)
    if not oracle.is_gics(g, [g.index_of(s) for s in sensors], item.k):
        item.problems.append("invalid placement: is_gics found two failure sets "
                             "with one signature")
    if ref is not None and " ".join(sensors) != ref:
        item.problems.append("sensor set differs from the reference")
    for s in item.traced:
        c = s.counts
        traced_sat = c["definability.queries_sat"]
        if (c["satcore.conflicts"] != conflicts or traced_sat != sat
                or traced_sat + c["definability.queries_unsat"] != queries):
            item.problems.append("traced counts disagree with the GisResult")
            break


def _median_sum(per_item) -> float:
    return sum(statistics.median(values) for values in per_item)


def run(wl: Workload, seed: int, seconds: float, traced: bool):
    """One benchmark run; returns (report lines, result object)."""
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
    refs = refs.get(wl.name, {}).get(str(seed))
    if refs is not None and len(refs) != wl.graphs:
        raise SystemExit(f"perfbench: reference.json holds {len(refs)} placements for "
                         f"{wl.name} seed {seed}, the workload has {wl.graphs} graphs")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        items, digest = make_inputs(wl, seed, workdir)
        if wl.kind == "verify":
            prepare(items, refs)
        tracer = measure(items, wl.kind, seconds, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check(items, wl.kind, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(it.untraced) + len(it.traced) for it in items)
    failed = sum(len(it.untraced) + len(it.traced) for it in items if it.problems)
    wall_s = _median_sum([s.wall for s in it.untraced] for it in items)
    cpu_s = _median_sum([s.cpu for s in it.untraced] for it in items)
    lines = [f"workload={wl.name} seed={seed} graphs={wl.describe()} "
             f"operations={attempted} input_sha256={digest} "
             f"reference={'yes' if refs is not None else 'none for this seed'}"]
    for i, it in enumerate(items):
        lines += [f"FAILED graph {i}: {p}" for p in it.problems]
    if traced:
        traced_cpu = _median_sum([s.cpu for s in it.traced] for it in items)
        metrics = layer_metrics(
            [[s.counts for s in it.traced if s.counts] for it in items],
            [q for it in items for s in it.traced for q in s.query_seconds],
            traced_cpu, cpu_s)
        path = OUT / f"trace-{wl.name}-seed{seed}.jsonl"
        tracer.write(path)
        lines.append(f"untraced cpu_s={cpu_s:.4f} traced cpu_s={traced_cpu:.4f} "
                     f"spans={len(tracer.spans)} written to {path.relative_to(HERE.parent)}")
    else:
        if wl.kind == "solve":
            placed = [it.untraced[0].result for it in items if it.untraced[0].result]
            sensor_count = sum(len(r[0]) for r in placed)
            exhaustions = sum(r[4] for r in placed)
        else:
            sensor_count = sum(len(it.placement) for it in items)
            exhaustions = sum(it.exhaustions for it in items)
        metrics = {
            "cpu_s": cpu_s,
            "setup_s": _median_sum(it.setups + [s.setup for s in it.untraced]
                                   for it in items),
            "peak_rss_mb": peak_rss_mb,
            "sensor_count": sensor_count,
        }
        lines.append(f"wall_s {wall_s} s")
        lines.append(f"exhaustions {exhaustions} count")
        lines.append(f"failed_share {failed / attempted} ratio "
                     f"({failed} failed of {attempted} attempted)")
    samples = OUT / f"samples-{wl.name}-seed{seed}-trace{int(traced)}.json"
    raw = {"workload": wl.name, "seed": seed, "input_sha256": digest,
           "graphs": [{"wall": [s.wall for s in it.untraced],
                       "cpu": [s.cpu for s in it.untraced],
                       "traced_cpu": [s.cpu for s in it.traced],
                       "setup_cpu": it.setups} for it in items]}
    samples.write_text(json.dumps(raw) + "\n", encoding="utf-8")
    lines.append(f"raw samples written to {samples.relative_to(HERE.parent)}")
    return lines, {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics}
