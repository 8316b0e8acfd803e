import ast
import io
import random
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import gicsat
from gicsat.cli import TRUTH_TABLE_LIMIT
from gicsat.encoder import encode_instance
from gicsat.graph import build_graph, parse_graph, parse_graph_file
from gicsat.oracle import (EnumerationBudgetError, failure_set_count,
                           find_gis_collision, find_signature_collision,
                           is_gics, is_gis_bruteforce, min_gics_exhaustive,
                           projected_models, signature)

DATA = Path(__file__).resolve().parent.parent / "data"

FIG1_EDGES = "a b\na d\nb c\nb e\nc e\nd e\n"


def fig1():
    return parse_graph(io.StringIO(FIG1_EDGES))


def by_label(g, labels):
    return {g.index_of(t) for t in labels}


def test_signature_fig1_single_failure():
    g = fig1()
    sensors = by_label(g, "ac")
    sig = signature(g, sensors, by_label(g, "b"))
    assert sig.sigma0 == frozenset()
    assert sig.sigma1 == frozenset(by_label(g, "ac"))
    sig = signature(g, sensors, by_label(g, "d"))
    assert sig.sigma0 == frozenset()
    assert sig.sigma1 == frozenset(by_label(g, "a"))


def test_signature_empty_failure_set():
    g = fig1()
    sig = signature(g, by_label(g, "ac"), set())
    assert sig == signature(g, set(), set())
    assert sig.sigma0 == sig.sigma1 == frozenset()


def test_signature_invariants_random():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.4])
        sensors = {v for v in range(n) if rng.random() < 0.5}
        failed = {v for v in range(n) if rng.random() < 0.4}
        sig = signature(g, sensors, failed)
        assert sig.sigma0 <= sig.sigma1
        assert sig.sigma0 <= failed
        assert sig.sigma1 <= sensors


def test_is_gics_fig1():
    g = fig1()
    assert is_gics(g, by_label(g, "ac"), 1)
    assert not is_gics(g, by_label(g, "a"), 1)
    assert is_gics(g, range(g.n), 1)
    assert is_gics(g, range(g.n), 3)


def test_collision_witness_fig1():
    g = fig1()
    sensors = by_label(g, "a")
    pair = find_signature_collision(g, sensors, 1)
    assert pair is not None
    u, w = pair
    assert u != w and len(u) <= 1 and len(w) <= 1
    assert signature(g, sensors, u) == signature(g, sensors, w)
    # the pair the narration points at is a genuine collision too
    assert signature(g, sensors, by_label(g, "c")) == \
        signature(g, sensors, by_label(g, "e"))


def test_full_sensor_set_signature_count():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 7)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.5])
        k = rng.randint(1, min(3, n))
        sigs = set()
        for size in range(k + 1):
            for combo in combinations(range(n), size):
                s = signature(g, range(n), set(combo))
                sigs.add((s.sigma0, s.sigma1))
        assert len(sigs) == sum(comb(n, i) for i in range(k + 1))


def test_min_gics_fig1():
    g = fig1()
    best, size = min_gics_exhaustive(g, 1)
    assert size == 2
    assert is_gics(g, best, 1)


def test_min_gics_k2_complete_graph_two_nodes():
    g = build_graph(2, [(0, 1)])
    best, size = min_gics_exhaustive(g, 2)
    assert size == 2
    assert best == frozenset({0, 1})


def test_min_gics_single_node():
    g = build_graph(1, [])
    best, size = min_gics_exhaustive(g, 1)
    assert size == 1
    assert best == frozenset({0})


def test_min_gics_removal_breaks_identification():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(2, 7)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.5])
        k = rng.randint(1, 2)
        best, size = min_gics_exhaustive(g, k)
        assert is_gics(g, best, k)
        for v in best:
            assert not is_gics(g, best - {v}, k)


def test_budget_errors():
    g = build_graph(20, [(i, i + 1) for i in range(19)])
    with pytest.raises(EnumerationBudgetError):
        min_gics_exhaustive(g, 1)
    with pytest.raises(EnumerationBudgetError):
        is_gics(g, range(20), 3, max_subsets=100)
    for k in (0, 21):
        with pytest.raises(ValueError, match=f"k={k} out of range 1..20"):
            find_signature_collision(g, range(20), k)


def test_is_gis_bruteforce_fig1():
    g = fig1()
    inst = encode_instance(g, 1)
    assert is_gis_bruteforce(inst, by_label(g, "ac"))
    assert not is_gis_bruteforce(inst, by_label(g, "b"))
    assert is_gis_bruteforce(inst, set(range(g.n)))


def test_is_gis_bruteforce_matches_pairwise_definition():
    # literal all-pairs biconditional over the enumerated truth table
    g = fig1()
    inst = encode_instance(g, 1)
    models = projected_models(inst)
    for labels in ("", "a", "b", "ac", "cd", "abc", "abcde"):
        group_nodes = by_label(g, labels)
        support = {var for v in group_nodes for var in inst.group_of(v)}
        pos = [i for i, var in enumerate(inst.z_vars) if var in support]
        pairwise = all(
            (tuple(r1[i] for i in pos) == tuple(r2[i] for i in pos))
            == (r1 == r2)
            for r1 in models for r2 in models)
        assert is_gis_bruteforce(inst, group_nodes, models) == pairwise


def first_support_collision(inst, group_nodes, models):
    """The first row whose support key an earlier row has, with that row."""
    support = {var for v in group_nodes for var in inst.group_of(v)}
    pos = [i for i, var in enumerate(inst.z_vars) if var in support]
    seen = {}
    for row in models:
        key = tuple(row[i] for i in pos)
        if key in seen:
            return seen[key], row
        seen[key] = row
    return None


def test_gis_collision_on_zero_and_one_group():
    g = fig1()
    inst = encode_instance(g, 1)
    models = projected_models(inst)
    # no group: every row keys to (), so the first two rows collide
    assert find_gis_collision(inst, [], models) == (models[0], models[1])
    for v in range(g.n):
        got = find_gis_collision(inst, [v], models)
        assert got is not None
        assert got == first_support_collision(inst, [v], models)


def test_reduction_cross_validation_random():
    # sensor-set identification agrees with the truth-table group check
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < rng.choice([0.3, 0.6])])
        k = rng.randint(1, min(3, n))
        inst = encode_instance(g, k)
        models = projected_models(inst)
        for _ in range(12):
            sensors = {v for v in range(n) if rng.random() < 0.5}
            assert is_gics(g, sensors, k) == \
                is_gis_bruteforce(inst, sensors, models)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.edges")), ids=lambda p: p.name)
def test_truth_table_is_one_row_per_failure_set(path):
    # every k that `gicsat verify` cross-checks against the truth table; the
    # expected rows come from the graph alone: x = F and y = N[F]
    g = parse_graph_file(str(path))
    closed = [sum(1 << u for u in (v, *g.adjacency[v])) for v in range(g.n)]
    for k in range(1, min(3, g.n) + 1):
        if failure_set_count(g.n, k) > TRUTH_TABLE_LIMIT:
            continue
        inst = encode_instance(g, k)
        expected = set()
        for size in range(k + 1):
            for failed in combinations(range(g.n), size):
                nmask = 0
                for v in failed:
                    nmask |= closed[v]
                value = {}
                for v in range(g.n):
                    value[inst.x[v]] = v in failed
                    value[inst.y[v]] = bool(nmask >> v & 1)
                expected.add(tuple(var if value[var] else -var
                                   for var in sorted(inst.z_vars)))
        rows = projected_models(inst, cap=failure_set_count(g.n, k))
        assert len(rows) == len(expected) == failure_set_count(g.n, k)
        assert set(rows) == expected


# ---- independence: no algorithm module imports its checker ------------------------

def imported_names(tree):
    """Every dotted name an import statement in the tree can bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["graph", "encoder", "satcore",
                                    "definability", "gismo"])
def test_algorithm_modules_never_import_the_oracle(module):
    path = Path(gicsat.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [name for name in imported_names(tree)
                if "oracle" in name.split(".")]
