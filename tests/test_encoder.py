import io
import itertools
import random
from math import comb

import pytest

from gicsat.encoder import (cardinality_aux_count, cardinality_clause_count,
                            encode_cardinality, encode_detection,
                            encode_instance)
from gicsat.graph import Graph, build_graph, parse_graph
from gicsat.satcore import CnfFormula, enumerate_models_projected

FIG1_EDGES = "a b\na d\nb c\nb e\nc e\nd e\n"


def fig1():
    return parse_graph(io.StringIO(FIG1_EDGES))


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# ---- detection ---------------------------------------------------------------

def test_detection_clause_count_fig1():
    g = fig1()
    inst = encode_instance(g, 1)
    assert inst.detection_clauses == 22  # 2n + 2m
    long = [c for c in inst.formula.clauses[:22] if len(c) > 2]
    binary = [c for c in inst.formula.clauses[:22] if len(c) == 2]
    assert len(long) == 5
    assert len(binary) == 17


def test_detection_single_isolated_node():
    g = build_graph(1, [])
    inst = encode_instance(g, 1)
    x, y = inst.x[0], inst.y[0]
    assert inst.formula.clauses == [[-y, x], [-x, y]]


def test_detection_path_two_nodes():
    g = path_graph(2)
    inst = encode_instance(g, 2)
    assert inst.detection_clauses == 6  # 2n + 2m with n=2, m=1


def test_detection_count_matches_closed_form_random():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = build_graph(n, edges)
        inst = encode_instance(g, 1)
        assert inst.detection_clauses == 2 * g.n + 2 * g.m


# ---- cardinality -------------------------------------------------------------

def admitted_assignments(n, k):
    """Brute-force oracle: input assignments extendable to satisfy the encoding."""
    f = CnfFormula()
    xs = f.new_vars(n)
    clauses, aux = encode_cardinality(xs, k, f.new_var)
    admitted = set()
    for x_bits in itertools.product([False, True], repeat=n):
        ok = False
        for a_bits in itertools.product([False, True], repeat=len(aux)):
            model = [False] + list(x_bits) + list(a_bits)
            if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
                ok = True
                break
        if ok:
            admitted.add(x_bits)
    return admitted


def test_cardinality_vacuous_when_k_equals_n():
    assert admitted_assignments(3, 3) == set(itertools.product([False, True], repeat=3))


def test_cardinality_n5_k1():
    got = admitted_assignments(5, 1)
    assert got == {bits for bits in itertools.product([False, True], repeat=5)
                   if sum(bits) <= 1}
    assert len(got) == 6


def test_cardinality_n5_k2():
    got = admitted_assignments(5, 2)
    assert got == {bits for bits in itertools.product([False, True], repeat=5)
                   if sum(bits) <= 2}
    assert len(got) == 16


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)])
def test_cardinality_exact_semantics(n, k):
    got = admitted_assignments(n, k)
    assert got == {bits for bits in itertools.product([False, True], repeat=n)
                   if sum(bits) <= k}


def test_cardinality_counts_match_closed_forms():
    for n in (2, 3, 5, 8, 13, 40):
        for k in range(1, n + 1):
            f = CnfFormula()
            xs = f.new_vars(n)
            clauses, aux = encode_cardinality(xs, k, f.new_var)
            assert len(clauses) == cardinality_clause_count(n, k)
            assert len(aux) == cardinality_aux_count(n, k)


def test_cardinality_upward_part_never_larger_than_sequential_counter():
    # the sequential counter (Sinz, CP 2005) takes k+1 + (n-2)(2k+1) clauses
    # and (n-1)k registers; the totalizer's upward and overflow clauses never
    # take more.  Its n-2 r_1 clauses, one per inner node but the root, come
    # on top, so the total can exceed the counter: 286 against 243 at n=50,
    # k=2
    for n in range(2, 201):
        for k in range(1, n):
            assert cardinality_clause_count(n, k) - (n - 2) \
                <= k + 1 + (n - 2) * (2 * k + 1)
            assert cardinality_aux_count(n, k) <= (n - 1) * k
    assert (cardinality_clause_count(40, 4), cardinality_aux_count(40, 4)) \
        == (326, 112)


def unit_propagate(clauses, lits):
    """The literals unit propagation implies from `lits`, or None on a conflict."""
    lits = set(lits)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(l in lits for l in clause):
                continue
            free = [l for l in clause if -l not in lits]
            if not free:
                return None
            if len(free) == 1:
                lits.add(free[0])
                changed = True
    return lits


@pytest.mark.parametrize("n", range(2, 9))
def test_cardinality_propagates_the_bound(n):
    # semantics alone cannot tell a correct but weakly propagating encoding:
    # k true inputs must set every other input false by propagation alone,
    # and k+1 true inputs must be a propagation conflict
    for k in range(1, n):
        f = CnfFormula()
        xs = f.new_vars(n)
        clauses, _ = encode_cardinality(xs, k, f.new_var)
        for true in itertools.combinations(xs, k):
            implied = unit_propagate(clauses, true)
            assert implied is not None
            assert all(-x in implied for x in xs if x not in true)
        for true in itertools.combinations(xs, k + 1):
            assert unit_propagate(clauses, true) is None


def totalizer_r1(xs, k, aux):
    """(r_1, inputs) of each inner node but the root, by the documented
    layout: a balanced split in index order, outputs allocated children first."""
    nodes, fresh = [], iter(aux)

    def walk(lo, hi, root=False):
        if hi - lo > 1:
            mid = (lo + hi) // 2
            walk(lo, mid)
            walk(mid, hi)
            if not root:
                outputs = [next(fresh) for _ in range(min(hi - lo, k))]
                nodes.append((outputs[0], set(xs[lo:hi])))

    walk(0, len(xs), root=True)
    assert next(fresh, None) is None
    return nodes


@pytest.mark.parametrize("n", range(3, 9))
def test_cardinality_propagates_r1_as_or_of_its_inputs(n):
    # every admitted input assignment, by propagation alone, sets each inner
    # node's r_1 ("at least one input true") exactly: true over a true input,
    # false over all-false inputs, which then need no decision
    for k in range(1, n):
        f = CnfFormula()
        xs = f.new_vars(n)
        clauses, aux = encode_cardinality(xs, k, f.new_var)
        nodes = totalizer_r1(xs, k, aux)
        assert len(nodes) == n - 2
        for m in range(k + 1):
            for true in map(set, itertools.combinations(xs, m)):
                implied = unit_propagate(clauses,
                                         [x if x in true else -x for x in xs])
                assert implied is not None
                for r1, inputs in nodes:
                    assert (r1 if true & inputs else -r1) in implied


def test_cardinality_rejects_bad_k():
    f = CnfFormula()
    xs = f.new_vars(3)
    with pytest.raises(ValueError):
        encode_cardinality(xs, 0, f.new_var)
    with pytest.raises(ValueError):
        encode_cardinality(xs, 4, f.new_var)


# ---- full instance -------------------------------------------------------------

def test_encode_instance_rejects_bad_k():
    g = fig1()
    with pytest.raises(ValueError):
        encode_instance(g, 0)
    with pytest.raises(ValueError):
        encode_instance(g, 6)
    with pytest.raises(ValueError, match="graph has no nodes"):
        encode_instance(Graph(n=0, adjacency=(), labels=()), 1)


def test_variable_numbering_deterministic():
    g = fig1()
    inst = encode_instance(g, 2)
    assert inst.x == (1, 2, 3, 4, 5)
    assert inst.y == (6, 7, 8, 9, 10)
    # totalizer nodes over 2, 2 and 3 inputs, children first: 2 outputs each
    assert inst.aux == tuple(range(11, 11 + 3 * 2))
    assert inst.z_vars == tuple(range(1, 11))
    assert inst.group_of(0) == (1, 6)


def test_instance_clauses_are_normalised():
    # encode_instance appends the encoders' clauses without add_clause
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 12)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.4])
        inst = encode_instance(g, rng.randint(1, n))
        for clause in inst.formula.clauses:
            assert clause
            assert len({abs(l) for l in clause}) == len(clause)
            assert all(1 <= abs(l) <= inst.formula.num_vars for l in clause)


def test_varmap_ranges_disjoint():
    inst = encode_instance(fig1(), 2)
    all_vars = list(inst.x) + list(inst.y) + list(inst.aux)
    assert len(all_vars) == len(set(all_vars)) == inst.formula.num_vars


TABLE1 = {
    # failure set -> (x values by label, y values by label)
    "a": ({"a"}, {"a", "b", "d"}),
    "b": ({"b"}, {"a", "b", "c", "e"}),
    "c": ({"c"}, {"b", "c", "e"}),
    "d": ({"d"}, {"a", "d", "e"}),
    "e": ({"e"}, {"b", "c", "d", "e"}),
    "": (set(), set()),
}


def table1_rows(inst):
    g = inst.graph
    rows = set()
    for x_true, y_true in TABLE1.values():
        lits = []
        for lab_set, vars_ in ((x_true, inst.x), (y_true, inst.y)):
            for v in range(g.n):
                var = vars_[v]
                lits.append(var if g.labels[v] in lab_set else -var)
        rows.add(tuple(sorted(lits, key=abs)))
    return rows


def test_projected_models_k1_are_table1():
    inst = encode_instance(fig1(), 1)
    got = set(enumerate_models_projected(inst.formula, inst.z_vars))
    assert got == table1_rows(inst)
    assert len(got) == 6


def test_projected_model_count_k_equals_n():
    inst = encode_instance(fig1(), 5)
    got = enumerate_models_projected(inst.formula, inst.z_vars)
    assert len(got) == 32  # cardinality vacuous: all subsets admitted
    assert inst.cardinality_clauses == 0
    assert inst.aux == ()


def test_projected_model_count_k2():
    inst = encode_instance(fig1(), 2)
    got = enumerate_models_projected(inst.formula, inst.z_vars)
    assert len(got) == 16  # sum of C(5,i) for i <= 2


def closed_sets(g):
    return [{v, *g.adjacency[v]} for v in range(g.n)]


def test_functional_definedness_random():
    # in every model, y_v holds exactly when some failed node is in N1+(v)
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = build_graph(n, edges)
        k = rng.randint(1, n)
        inst = encode_instance(g, k)
        closed = closed_sets(g)
        rows = enumerate_models_projected(inst.formula, inst.z_vars)
        assert len(rows) == sum(comb(n, i) for i in range(k + 1))
        for row in rows:
            val = {abs(l): l > 0 for l in row}
            failed = {v for v in range(n) if val[inst.x[v]]}
            assert len(failed) <= k
            for v in range(n):
                assert val[inst.y[v]] == bool(failed & closed[v])


def test_projection_monotone_in_k():
    g = fig1()
    prev = None
    for k in range(1, 6):
        inst = encode_instance(g, k)
        rows = set(enumerate_models_projected(inst.formula, inst.z_vars))
        if prev is not None:
            assert prev <= rows
        prev = rows


def test_clause_count_bound_paths_and_cliques():
    # affine bound in k*n + (n + m), one constant for the whole family
    for g in [path_graph(n) for n in (5, 10, 20)] + \
             [complete_graph(n) for n in (3, 5, 8)]:
        for k in range(1, g.n + 1):
            inst = encode_instance(g, k)
            total = len(inst.formula)
            assert total == 2 * g.n + 2 * g.m + cardinality_clause_count(g.n, k)
            assert total <= 3 * (k * g.n + g.n + g.m)
