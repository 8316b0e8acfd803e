"""Golden sensor sets for every graph under data/.

With no budget exhaustion the sensor set depends only on the graph, k and
the processing order, never on how the definability queries are run, so a
refactor of the query path must reproduce these sets exactly.  Labels are
listed in string order.  At k <= 2 the failure-set scan answers every
query, with no conflicts; the k=3 rows also run the engine on the scan's
misses.

run_gismo probes each group's y variable first, then its x variable.  The
probe order changes which queries run, never which groups are kept, so an
x-first replica of the loop must give the same sets.  The engine's conflict
count on each k=3 row is pinned too, per probe order: it changes only when
the engine's search changes, so a change that alters the search updates
these pins and says so in CHANGES.md.
"""

from pathlib import Path

import pytest

from gicsat.definability import DefinabilityContext
from gicsat.encoder import encode_instance
from gicsat.gismo import GismoConfig, run_gismo
from gicsat.graph import parse_graph_file
from gicsat.satcore import SolveStatus

DATA = Path(__file__).resolve().parent.parent / "data"
PROBE_ORDERS = ("y-first", "x-first")

# (graph file, k) -> sensor labels under order="input"; both probe orders
# give the same set on every graph here.
GOLDEN = {
    ("fig1.edges", 1): "c d",
    ("fig1.edges", 2): "a c d e",
    ("gnp30.edges", 1): "n11 n12 n14 n21 n22 n23 n25 n26 n27 n28 n29",
    ("gnp30.edges", 2): "n1 n10 n11 n12 n13 n14 n15 n17 n18 n19 n21 n23 n24 "
                        "n25 n28 n4 n5 n9",
    ("gnp50.edges", 1): "n15 n16 n20 n21 n26 n29 n31 n32 n33 n39 n40 n41 n42 "
                        "n43 n45 n47 n49 n5",
    ("gnp50.edges", 2): "n10 n11 n12 n13 n14 n16 n17 n19 n21 n22 n23 n24 n29 "
                        "n3 n33 n37 n38 n40 n43 n44 n45 n46 n48 n49 n5 n8",
    ("grid5x5.edges", 1): "15 16 17 18 19 5 6 7 8 9",
    ("grid5x5.edges", 2): "0 10 12 14 16 18 2 20 22 24 4 6 8",
    ("k2.edges", 1): "v",
    ("k2.edges", 2): "u v",
    ("path20.edges", 1): "1 11 13 16 18 3 6 8",
    ("path20.edges", 2): "0 10 12 14 16 18 19 2 4 6 8",
    ("single.edges", 1): "v",
    ("fig1.edges", 3): "a b c d e",
    ("gnp30.edges", 3): "n1 n11 n12 n13 n14 n15 n17 n19 n2 n20 n21 n22 n23 "
                        "n24 n26 n27 n28 n3 n4 n5 n7 n8 n9",
    ("gnp50.edges", 3): "n1 n10 n11 n12 n13 n14 n15 n17 n18 n19 n21 n22 n23 "
                        "n25 n27 n28 n29 n3 n32 n35 n37 n38 n40 n41 n42 n43 "
                        "n44 n45 n46 n47 n48 n5 n7 n9",
    ("grid5x5.edges", 3): "0 1 10 11 12 13 14 15 16 17 18 19 2 20 21 22 23 "
                          "24 3 4 5 6 7 8 9",
    ("path20.edges", 3): "0 1 10 11 12 13 14 15 16 17 18 19 2 3 4 5 6 7 8 9",
}

# (graph file, probe order) -> total_conflicts of the k=3 row
K3_CONFLICTS = {
    ("fig1.edges", "y-first"): 2,
    ("gnp30.edges", "y-first"): 571,
    ("gnp50.edges", "y-first"): 940,
    ("grid5x5.edges", "y-first"): 16,
    ("path20.edges", "y-first"): 2,
    ("fig1.edges", "x-first"): 0,
    ("gnp30.edges", "x-first"): 320,
    ("gnp50.edges", "x-first"): 704,
    ("grid5x5.edges", "x-first"): 23,
    ("path20.edges", "x-first"): 8,
}


def test_golden_covers_every_data_graph():
    # a k is skipped only where it exceeds n
    names = sorted(p.name for p in DATA.glob("*.edges"))
    assert sorted({name for name, _ in GOLDEN}) == names
    for name in names:
        n = parse_graph_file(str(DATA / name)).n
        assert {k for gname, k in GOLDEN if gname == name} == \
            {1, 2, 3} & set(range(1, n + 1))
    assert {(name, probes) for name, k in GOLDEN if k == 3
            for probes in PROBE_ORDERS} == set(K3_CONFLICTS)


def x_first_run(inst):
    """run_gismo's loop over the input order with x_v probed before y_v.

    Returns the sensor set and the engine conflicts; every answer must be
    exact, as on every golden row.
    """
    ctx = DefinabilityContext(inst)
    support = set(inst.z_vars)
    sensors, conflicts = set(), 0
    for v in range(inst.graph.n):
        group = inst.group_of(v)  # (x_v, y_v)
        for z in group:
            answer = ctx.query(support.difference(group), z,
                               GismoConfig().budget)
            assert answer.status is not SolveStatus.BUDGET_EXHAUSTED
            conflicts += answer.conflicts_used
            if answer.status is SolveStatus.SAT:
                sensors.add(v)
                break
        else:
            support.difference_update(group)
    return sensors, conflicts


@pytest.mark.parametrize("probes", PROBE_ORDERS)
@pytest.mark.parametrize("name,k", sorted(GOLDEN))
def test_golden_sensor_set(name, k, probes):
    g = parse_graph_file(str(DATA / name))
    inst = encode_instance(g, k)
    if probes == "y-first":
        res = run_gismo(inst, GismoConfig(order="input"))
        assert res.budget_exhaustions == 0
        sensors, conflicts = res.sensor_set, res.total_conflicts
    else:
        sensors, conflicts = x_first_run(inst)
    assert " ".join(sorted(g.labels[v] for v in sensors)) == GOLDEN[name, k]
    assert conflicts == (K3_CONFLICTS[name, probes] if k == 3 else 0)
