"""Command-line front end: encode, solve, verify, bench.

`solve --time-limit` is a monotonic deadline checked before each
definability query, so a run can overrun it by one bounded query;
`--mem-limit` lowers RLIMIT_AS for the run.

Exit codes: 0 success, 1 usage error or failed verification, 2 unreadable
or malformed graph input, 3 resource limit hit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter

from . import encoder, gismo, oracle
from .definability import LAYERS, DefinabilityContext
from .graph import Graph, GraphParseError, parse_graph_file
from .satcore import write_dimacs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3

DEFAULT_TIME_LIMIT = 3600.0
DEFAULT_MEM_LIMIT_MB = 4096
# verify cross-checks the CNF truth table up to this many failure sets
TRUTH_TABLE_LIMIT = 4096


class UsageError(Exception):
    pass


class ResourceLimitError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive(convert):
    """argparse type: a finite number above zero, read by `convert`."""
    def parse(text: str):
        value = convert(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number above 0, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="gicsat", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("graph", help="path to the input graph")
        sp.add_argument("--k", type=int, required=True,
                        help="maximum number of simultaneous failures")
        sp.add_argument("--format", choices=("edgelist", "mtx"), default=None,
                        help="input format (default: inferred from extension)")

    enc = sub.add_parser("encode", help="emit DIMACS CNF plus a JSON sidecar")
    common(enc)
    enc.add_argument("--output", required=True, help="DIMACS output path")

    sol = sub.add_parser("solve", help="compute a sensor placement")
    common(sol)
    sol.add_argument("--budget", type=_positive(int),
                     default=gismo.GismoConfig.budget,
                     help="conflict budget of each definability query that "
                          "the graph search leaves to the solver")
    sol.add_argument("--order", default="input",
                     help="group order: input, deg-desc, deg-asc, random, "
                          "or an explicit comma-separated label list "
                          "(CSV-quote a label that holds a comma)")
    sol.add_argument("--seed", type=int, default=None,
                     help="shuffle seed, required by --order random")
    sol.add_argument("--output", default=None, help="also write the JSON record here")
    sol.add_argument("--timing", action="store_true",
                     help="include wall-clock seconds in the record "
                          "(off by default so identical runs emit identical bytes)")
    sol.add_argument("--time-limit", type=_positive(float), default=None,
                     metavar="SECONDS")
    sol.add_argument("--mem-limit", type=_positive(int), default=None,
                     metavar="MB")

    ver = sub.add_parser("verify", help="check a sensor set against the graph")
    common(ver)
    ver.add_argument("--sensors", required=True,
                     help="comma-separated node labels "
                          "(CSV-quote a label that holds a comma)")

    ben = sub.add_parser("bench", help="run a manifest of graphs and score PAR-2")
    ben.add_argument("manifest", help="file listing one graph path per line")
    ben.add_argument("--k", default="1", help="comma-separated k values")
    ben.add_argument("--budget", type=_positive(int), default=gismo.GismoConfig.budget)
    ben.add_argument("--time-limit", type=_positive(float),
                     default=DEFAULT_TIME_LIMIT, metavar="SECONDS")
    ben.add_argument("--mem-limit", type=_positive(int),
                     default=DEFAULT_MEM_LIMIT_MB, metavar="MB")
    ben.add_argument("--format", choices=("edgelist", "mtx"), default=None)
    ben.add_argument("--output", default=None, help="write the report JSON here")
    return p


def _load_graph(path: str, fmt: str | None) -> Graph:
    try:
        return parse_graph_file(path, fmt)
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from exc


def _check_k(g: Graph, k: int) -> None:
    if not 1 <= k <= g.n:
        raise UsageError(f"--k must be between 1 and the node count {g.n}, got {k}")


def _limit_memory(mem_limit_mb: int | None):
    """Lower RLIMIT_AS for the run; returns a restore callable."""
    if mem_limit_mb is None:
        return lambda: None
    import resource
    try:
        old = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS,
                           (mem_limit_mb * 1024 * 1024, old[1]))
    except (ValueError, OSError):
        return lambda: None  # refusing to lower a hard limit is not fatal
    return lambda: resource.setrlimit(resource.RLIMIT_AS, old)


class _DeadlineContext(DefinabilityContext):
    """A context whose queries refuse to start past a monotonic deadline."""

    def __init__(self, inst: encoder.EncodedInstance, deadline: float):
        super().__init__(inst)
        self.deadline = deadline

    def query(self, defining, target, budget=None):
        if time.monotonic() > self.deadline:
            raise ResourceLimitError("time limit exceeded")
        return super().query(defining, target, budget)


def _label_list(option: str, text: str) -> list[str]:
    """Comma-separated labels, one CSV row: '"a,b",c' names a,b and c."""
    try:
        return [t for t in next(csv.reader([text]), []) if t]
    except csv.Error:  # an unquoted line break, say; no label holds one
        raise UsageError(f"{option}: cannot read {text!r} as a "
                         f"comma-separated label list") from None


def _parse_order(text: str, g: Graph) -> str | tuple[int, ...]:
    if text in gismo.ORDER_KEYWORDS:
        return text
    try:
        order = tuple(g.index_of(lab) for lab in _label_list("--order", text))
    except KeyError as exc:
        raise UsageError(f"--order: {exc.args[0]}") from exc
    if sorted(order) != list(range(g.n)):
        raise UsageError(f"--order must list each of the {g.n} nodes once")
    return order


def _check_not_input(input_path: str, *outputs: str | None,
                     kind: str = "graph") -> None:
    """UsageError if an output path names the existing input file."""
    for path in outputs:
        if (path and os.path.exists(path) and os.path.exists(input_path)
                and os.path.samefile(path, input_path)):
            raise UsageError(f"writing {path!r} would overwrite the input "
                             f"{kind}; choose another --output")


def cmd_encode(args) -> int:
    sidecar_path = os.path.splitext(args.output)[0] + ".json"
    if sidecar_path == args.output:
        raise UsageError(f"--output {args.output!r} would be overwritten by "
                         f"its JSON sidecar; use another extension, e.g. .cnf")
    _check_not_input(args.graph, args.output, sidecar_path)
    g = _load_graph(args.graph, args.format)
    _check_k(g, args.k)
    inst = encoder.encode_instance(g, args.k)
    groups = [(g.labels[v], *inst.group_of(v)) for v in range(g.n)]
    with open(args.output, "w", encoding="utf-8") as fp:
        write_dimacs(inst.formula, fp,
                     comments=[f"graph {os.path.basename(args.graph)} "
                               f"n {g.n} m {g.m} k {args.k}"],
                     groups=groups)
    sidecar = {
        "graph": os.path.basename(args.graph),
        "n": g.n,
        "m": g.m,
        "k": args.k,
        "num_vars": inst.formula.num_vars,
        "num_clauses": len(inst.formula),
        "detection_clauses": inst.detection_clauses,
        "cardinality_clauses": inst.cardinality_clauses,
        "aux_vars": len(inst.aux),
        "vars": {g.labels[v]: {"x": inst.x[v], "y": inst.y[v]}
                 for v in range(g.n)},
    }
    with open(sidecar_path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output} and {sidecar_path}: "
          f"{inst.formula.num_vars} vars, {len(inst.formula)} clauses")
    return EXIT_OK


def solve_record(graph_path: str, g: Graph, k: int, cfg: gismo.GismoConfig,
                 deadline: float, timing: bool = False) -> dict:
    """Run the full pipeline and assemble the machine-readable record."""
    start = time.monotonic()
    inst = encoder.encode_instance(g, k)
    result = gismo.run_gismo(inst, cfg, _DeadlineContext(inst, deadline))
    elapsed = time.monotonic() - start
    layers = Counter(a.layer for e in result.per_group_log for a in e.tested)
    record = {
        "graph": os.path.basename(graph_path),
        "n": g.n,
        "m": g.m,
        "k": k,
        "config": {
            "budget": cfg.budget,
            "order": (cfg.order if isinstance(cfg.order, str)
                      else [g.labels[v] for v in cfg.order]),
            "seed": cfg.seed,
        },
        "sensor_count": len(result.sensor_set),
        "sensors": [g.labels[v] for v in sorted(result.sensor_set)],
        "queries": result.total_queries,
        "queries_by_layer": {layer: layers[layer] for layer in LAYERS},
        "conflicts": result.total_conflicts,
        "search_nodes": result.total_search_nodes,
        "budget_exhaustions": result.budget_exhaustions,
    }
    if timing:
        record["wall_seconds"] = elapsed
    return record


def cmd_solve(args) -> int:
    _check_not_input(args.graph, args.output)
    deadline = time.monotonic() + (args.time_limit or math.inf)
    restore = _limit_memory(args.mem_limit)
    try:
        g = _load_graph(args.graph, args.format)
        _check_k(g, args.k)
        try:
            cfg = gismo.GismoConfig(budget=args.budget,
                                    order=_parse_order(args.order, g),
                                    seed=args.seed)
        except ValueError as exc:
            raise UsageError(f"--order: {exc}; pass --seed") from None
        record = solve_record(args.graph, g, args.k, cfg, deadline,
                              timing=args.timing)
    finally:
        restore()
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.format)
    _check_k(g, args.k)
    try:
        sensors = {g.index_of(t)
                   for t in _label_list("--sensors", args.sensors)}
    except KeyError as exc:
        raise UsageError(f"--sensors: {exc.args[0]}") from exc

    collision = oracle.find_signature_collision(g, sensors, args.k)
    if collision is not None:
        u, w = collision
        print(f"FAIL: failure sets {{{_labels(g, u)}}} and {{{_labels(g, w)}}} "
              f"have identical signatures")
        return EXIT_USAGE
    print(f"PASS: {{{_labels(g, sensors)}}} identifies all failure sets "
          f"of size <= {args.k}")

    # cross-check against the CNF truth table when small enough to enumerate
    if oracle.failure_set_count(g.n, args.k) <= TRUTH_TABLE_LIMIT:
        inst = encoder.encode_instance(g, args.k)
        ok = oracle.is_gis_bruteforce(inst, sensors)
        print(f"truth-table cross-check: {'PASS' if ok else 'FAIL'}")
        if not ok:
            return EXIT_USAGE
    return EXIT_OK


def _labels(g: Graph, nodes) -> str:
    return ",".join(g.labels[v] for v in sorted(nodes))


def par2_score(records: list[dict], time_limit: float) -> float:
    """Penalized average runtime: unsolved runs count twice the limit."""
    if not records:
        return 0.0
    total = sum(r["wall_seconds"] if r["status"] == "solved" else 2 * time_limit
                for r in records)
    return total / len(records)


def _bench_one(graph_path: str, g: Graph | None, error: str | None,
               fmt: str | None, k: int, budget: int, time_limit: float,
               mem_limit: int) -> dict:
    """Solve g in a child process; g is None when parsing failed with error."""
    record = {"instance": os.path.basename(graph_path), "k": k,
              "method": "gismo-bundled", "n": None, "m": None, "status": None,
              "wall_seconds": None, "sensor_count": None, "queries": None,
              "conflicts": None, "budget_exhaustions": None, "verified": None}
    if g is None:
        record["status"] = "encode-fail"
        record["error"] = error
        return record
    record["n"], record["m"] = g.n, g.m

    cmd = [sys.executable, "-m", "gicsat", "solve", graph_path,
           "--k", str(k), "--budget", str(budget),
           "--mem-limit", str(mem_limit)]
    if fmt:
        cmd += ["--format", fmt]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=time_limit)
    except subprocess.TimeoutExpired:
        record["status"] = "timeout"
        record["wall_seconds"] = time_limit
        return record
    record["wall_seconds"] = time.monotonic() - start
    if proc.returncode == EXIT_RESOURCE:
        record["status"] = ("memout" if "memory" in proc.stderr.lower()
                            else "timeout")
        return record
    if proc.returncode != EXIT_OK:
        record["status"] = "encode-fail"
        record["error"] = proc.stderr.strip()
        return record
    solved = json.loads(proc.stdout)
    record["status"] = "solved"
    record["sensor_count"] = solved["sensor_count"]
    record["queries"] = solved["queries"]
    record["conflicts"] = solved["conflicts"]
    record["budget_exhaustions"] = solved["budget_exhaustions"]
    try:
        sensors = [g.index_of(lab) for lab in solved["sensors"]]
        record["verified"] = oracle.is_gics(g, sensors, k)
    except oracle.EnumerationBudgetError:
        record["verified"] = None  # beyond desk-scale verification
    return record


def cmd_bench(args) -> int:
    try:
        ks = [int(t) for t in str(args.k).split(",") if t]
    except ValueError:
        raise UsageError(f"--k: expected comma-separated integers, got {args.k!r}")
    if not ks or any(k < 1 for k in ks):
        raise UsageError("--k values must be positive")
    base = os.path.dirname(os.path.abspath(args.manifest))
    try:
        with open(args.manifest, "r", encoding="utf-8") as fp:
            paths = [p for p in map(str.strip, fp) if p and not p.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphParseError(f"cannot read manifest: {exc}")
    paths = [p if os.path.isabs(p) else os.path.join(base, p) for p in paths]
    _check_not_input(args.manifest, args.output, kind="manifest")
    for path in paths:
        _check_not_input(path, args.output)

    records = []
    for path in paths:
        try:
            g, error = _load_graph(path, args.format), None
        except GraphParseError as exc:
            g, error = None, str(exc)
        for k in ks:
            if g is not None and k > g.n:
                print(f"{os.path.basename(path)} k={k}: skipped (n={g.n})")
                continue
            rec = _bench_one(path, g, error, args.format, k, args.budget,
                             args.time_limit, args.mem_limit)
            records.append(rec)
            print(f"{rec['instance']} k={k}: {rec['status']}"
                  + (f" |S|={rec['sensor_count']}"
                     if rec["status"] == "solved" else ""))

    report = {
        "records": records,
        "par2": par2_score(records, args.time_limit),
        "par2_by_k": {str(k): par2_score([r for r in records if r["k"] == k],
                                         args.time_limit) for k in ks},
        "time_limit": args.time_limit,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"encode": cmd_encode, "solve": cmd_solve,
               "verify": cmd_verify, "bench": cmd_bench}[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        sys.stderr.write(f"gicsat: error: {exc}\n")
        return EXIT_USAGE
    except GraphParseError as exc:
        sys.stderr.write(f"gicsat: parse error: {exc}\n")
        return EXIT_PARSE
    except (ResourceLimitError, oracle.EnumerationBudgetError) as exc:
        sys.stderr.write(f"gicsat: resource limit: {exc}\n")
        return EXIT_RESOURCE
    except MemoryError:
        sys.stderr.write("gicsat: resource limit: memory limit exceeded\n")
        return EXIT_RESOURCE
    except OSError as exc:
        sys.stderr.write(f"gicsat: i/o error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
