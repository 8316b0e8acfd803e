"""Golden sensor sets for every graph under data/.

With no budget exhaustion the sensor set depends only on the graph, k and
the processing order, never on how the definability queries are run, so a
refactor of the query path must reproduce these sets exactly.  Labels are
listed in string order.  The graph search answers every query on these
rows, with no conflicts, and an engine-only pass (search budget 0) must
give the same sets.

run_gismo probes each group's x variable before its y variable.  The probe
order changes which queries run, never which groups are kept, so a replica
of the loop with the other order must give the same sets.  The search's
node count on each row is pinned too, per probe order: it changes only
when the search or the queries it gets change, so a change that alters
them updates these pins and says so in CHANGES.md.
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
# give the same set on every graph here.  The k=4 rows were recorded before
# the forced source existed, when every order probed y first.
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
    ("fig1.edges", 4): "a b c d e",
    ("gnp30.edges", 4): "n0 n1 n10 n11 n12 n13 n14 n15 n17 n18 n19 n2 n20 "
                        "n21 n22 n23 n24 n26 n27 n28 n29 n3 n4 n5 n7 n8 n9",
    ("gnp50.edges", 4): "n0 n1 n10 n11 n12 n13 n14 n15 n17 n18 n19 n2 n20 "
                        "n21 n22 n23 n24 n25 n27 n28 n29 n3 n32 n33 n34 n35 "
                        "n37 n38 n40 n41 n42 n43 n44 n45 n46 n47 n48 n5 n6 n7 "
                        "n8 n9",
    ("grid5x5.edges", 4): "0 1 10 11 12 13 14 15 16 17 18 19 2 20 21 22 23 "
                          "24 3 4 5 6 7 8 9",
    ("path20.edges", 4): "0 1 10 11 12 13 14 15 16 17 18 19 2 3 4 5 6 7 8 9",
}

# (graph file, k, probe order) -> total search nodes of the row
GOLDEN_SEARCH_NODES = {
    ("fig1.edges", 1, "x-first"): 15,
    ("fig1.edges", 1, "y-first"): 15,
    ("gnp30.edges", 1, "x-first"): 165,
    ("gnp30.edges", 1, "y-first"): 149,
    ("gnp50.edges", 1, "x-first"): 247,
    ("gnp50.edges", 1, "y-first"): 219,
    ("grid5x5.edges", 1, "x-first"): 92,
    ("grid5x5.edges", 1, "y-first"): 77,
    ("k2.edges", 1, "x-first"): 3,
    ("k2.edges", 1, "y-first"): 3,
    ("path20.edges", 1, "x-first"): 66,
    ("path20.edges", 1, "y-first"): 58,
    ("single.edges", 1, "x-first"): 1,
    ("single.edges", 1, "y-first"): 1,
    ("fig1.edges", 2, "x-first"): 19,
    ("fig1.edges", 2, "y-first"): 20,
    ("gnp30.edges", 2, "x-first"): 436,
    ("gnp30.edges", 2, "y-first"): 543,
    ("gnp50.edges", 2, "x-first"): 800,
    ("gnp50.edges", 2, "y-first"): 959,
    ("grid5x5.edges", 2, "x-first"): 260,
    ("grid5x5.edges", 2, "y-first"): 414,
    ("k2.edges", 2, "x-first"): 4,
    ("k2.edges", 2, "y-first"): 6,
    ("path20.edges", 2, "x-first"): 140,
    ("path20.edges", 2, "y-first"): 161,
    ("fig1.edges", 3, "x-first"): 15,
    ("fig1.edges", 3, "y-first"): 17,
    ("gnp30.edges", 3, "x-first"): 772,
    ("gnp30.edges", 3, "y-first"): 1227,
    ("gnp50.edges", 3, "x-first"): 1987,
    ("gnp50.edges", 3, "y-first"): 3704,
    ("grid5x5.edges", 3, "x-first"): 112,
    ("grid5x5.edges", 3, "y-first"): 94,
    ("path20.edges", 3, "x-first"): 58,
    ("path20.edges", 3, "y-first"): 60,
    ("fig1.edges", 4, "x-first"): 15,
    ("fig1.edges", 4, "y-first"): 17,
    ("gnp30.edges", 4, "x-first"): 617,
    ("gnp30.edges", 4, "y-first"): 1145,
    ("gnp50.edges", 4, "x-first"): 2231,
    ("gnp50.edges", 4, "y-first"): 4121,
    ("grid5x5.edges", 4, "x-first"): 92,
    ("grid5x5.edges", 4, "y-first"): 86,
    ("path20.edges", 4, "x-first"): 58,
    ("path20.edges", 4, "y-first"): 60,
}


def test_golden_covers_every_data_graph():
    # a k is skipped only where it exceeds n
    names = sorted(p.name for p in DATA.glob("*.edges"))
    assert sorted({name for name, _ in GOLDEN}) == names
    for name in names:
        n = parse_graph_file(str(DATA / name)).n
        assert {k for gname, k in GOLDEN if gname == name} == \
            {1, 2, 3, 4} & set(range(1, n + 1))
    assert {(name, k, probes) for name, k in GOLDEN
            for probes in PROBE_ORDERS} == set(GOLDEN_SEARCH_NODES)


GISMO_PROBES = "x-first"  # the probe order run_gismo uses at every k


def replica_run(inst, probes):
    """run_gismo's loop over the input order with the given probe order.

    Returns the sensor set and the search nodes; the graph search must
    answer every query, as on every golden row.
    """
    ctx = DefinabilityContext(inst)
    sensors, nodes = set(), 0
    for v in range(inst.graph.n):
        ctx.drop(v)
        group = inst.group_of(v)  # (x_v, y_v)
        for z in group if probes == "x-first" else group[::-1]:
            answer = ctx.query(ctx.support, z, GismoConfig().budget)
            assert answer.layer == "graph"
            nodes += answer.search_nodes
            if answer.status is SolveStatus.SAT:
                sensors.add(v)
                ctx.keep(v)
                break
    return sensors, nodes


@pytest.mark.parametrize("probes", PROBE_ORDERS)
@pytest.mark.parametrize("name,k", sorted(GOLDEN))
def test_golden_sensor_set(name, k, probes):
    g = parse_graph_file(str(DATA / name))
    inst = encode_instance(g, k)
    if probes == GISMO_PROBES:
        res = run_gismo(inst, GismoConfig(order="input"))
        assert res.budget_exhaustions == 0 and res.total_conflicts == 0
        sensors, nodes = res.sensor_set, res.total_search_nodes
    else:
        sensors, nodes = replica_run(inst, probes)
    assert " ".join(sorted(g.labels[v] for v in sensors)) == GOLDEN[name, k]
    assert nodes == GOLDEN_SEARCH_NODES[name, k, probes]


@pytest.mark.parametrize("name,k", sorted(GOLDEN))
def test_golden_sensor_set_engine_only(engine_only, name, k):
    g = parse_graph_file(str(DATA / name))
    res = run_gismo(encode_instance(g, k), GismoConfig(order="input"))
    assert res.budget_exhaustions == 0 and res.total_search_nodes == 0
    assert {a.layer for e in res.per_group_log for a in e.tested} == {"engine"}
    assert " ".join(sorted(g.labels[v] for v in res.sensor_set)) == GOLDEN[name, k]
