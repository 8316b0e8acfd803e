#!/usr/bin/env python3
"""Record the reference placements that benchmark runs are checked against.

Run from the repository root, on a commit whose placements are trusted:

    python3 perfbench/reference.py --seeds 0-15

For every workload and seed this computes each input graph's placement with
the library sequence of `gicsat solve`, certifies it (no budget exhaustion,
so it is set-minimal, and `oracle.is_gics` finds no two failure sets with
one signature), and stores its sensor labels in perfbench/reference.json.
A benchmark run on a recorded seed fails every operation whose placement
differs from the reference.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help="an inclusive seed range such as 0-10, or one seed")
    args = p.parse_args()
    run.load_library()
    import harness
    from gicsat import oracle
    from gicsat.graph import parse_graph_file

    refs = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))
    harness.OUT.mkdir(exist_ok=True)
    for wl in harness.WORKLOADS.values():
        for seed in args.seeds:
            placements = []
            with tempfile.TemporaryDirectory(dir=harness.OUT) as tmp:
                items, _ = harness.make_inputs(wl, seed, Path(tmp))
                for item in items:
                    sensors, exhaustions = harness.placement(item.path, item.k)
                    g = parse_graph_file(item.path)
                    if exhaustions or not oracle.is_gics(
                            g, [g.index_of(s) for s in sensors], item.k):
                        raise SystemExit(f"{wl.name} seed {seed}: the placement of "
                                         f"{Path(item.path).name} is not certified")
                    placements.append(" ".join(sensors))
            refs.setdefault(wl.name, {})[str(seed)] = placements
            print(f"{wl.name} seed {seed}: {sum(len(s.split()) for s in placements)} "
                  f"sensors on {len(placements)} graphs", flush=True)
    harness.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")


if __name__ == "__main__":
    main()
