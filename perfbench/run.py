#!/usr/bin/env python3
"""gicsat benchmark: seeded workloads through the library, timed and checked.

Run from the repository root:

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 50 --trace 0

The run writes its seeded input graphs as edge-list files, then runs one
operation at a time in a closed loop (one process, one thread) over those
graphs until --seconds have passed and every graph ran at least once.  An
operation is the library sequence that `gicsat solve` (workload
`solve-mix`: graph file -> placement) or `gicsat verify` (`verify-tt`:
graph file -> verdicts) runs, with set-up timed on its own.  Every placement
and verdict is checked afterwards; README.md says how.

--trace 0 reports the end-to-end metrics.  --trace 1 runs an untraced and a
traced operation per graph in turn, reports the per-layer metrics and the
tracing overhead, and writes the spans to perfbench/out/.  Metric names and
units come from BENCHMARK.json.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_library() -> None:
    """Put this checkout's src/ first on the path; exit 2 if it is missing."""
    if not (SRC / "gicsat" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no gicsat sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import gicsat
    if Path(gicsat.__file__).resolve().parent != SRC / "gicsat":
        sys.stderr.write(f"perfbench: gicsat was imported from {gicsat.__file__}\n")
        raise SystemExit(2)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (default 1); reference.json lists the "
                        "seeds with recorded reference placements")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_library()
    import harness
    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(harness.WORKLOADS)}")

    lines, result = harness.run(harness.WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(result["metrics"]):
        sys.stderr.write("perfbench: measured metrics do not match BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(result['metrics']))}\n")
        return 2
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
