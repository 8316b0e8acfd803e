import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itertools import combinations
from pathlib import Path

from gicsat.definability import DefinabilityContext
from gicsat.encoder import encode_instance
from gicsat.gismo import GismoConfig, run_gismo
from gicsat.graph import (build_graph, closed_neighborhood_set, mask_to_set,
                          parse_graph, parse_graph_file)
from gicsat.oracle import is_gics
from gicsat.satcore import (CdclSolver, CnfFormula, SolveStatus,
                            enumerate_models_projected)

FIG1_EDGES = "a b\na d\nb c\nb e\nc e\nd e\n"
DATA = Path(__file__).resolve().parent.parent / "data"


def fig1():
    return parse_graph(io.StringIO(FIG1_EDGES))


def xy(inst, label):
    v = inst.graph.index_of(label)
    return inst.x[v], inst.y[v]


def group_vars(inst, labels):
    out = set()
    for lab in labels:
        out.update(xy(inst, lab))
    return out


def random_instance(rng, max_n=6, max_k=2):
    n = rng.randint(1, max_n)
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < 0.5])
    return encode_instance(g, rng.randint(1, min(max_k, n)))


# ---- base construction -------------------------------------------------------

def documented_layout(inst):
    """The base layout the definability module documents, as two maps.

    With t = inst.formula.num_vars, projected variable z has its copy at
    z + t and its indicator at 2t + z.
    """
    t = inst.formula.num_vars
    return ({z: z + t for z in inst.z_vars},
            {z: 2 * t + z for z in inst.z_vars})


def test_base_variable_count_fig1():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    t = inst.formula.num_vars  # 10 projected + 3 totalizer outputs
    assert t == 13
    assert inst.z_vars == tuple(range(1, 11))
    assert ctx.base.num_vars == 2 * t + len(inst.z_vars)
    _, ind = documented_layout(inst)
    assert max(ind.values()) == ctx.base.num_vars
    # the totalizer outputs are renamed too, into the copy's range
    hat_aux = {a + t for a in inst.aux}
    assert len(hat_aux) == len(inst.aux) == 3
    assert max(hat_aux) <= 2 * t


def test_base_ranges_disjoint():
    inst = encode_instance(fig1(), 2)
    ctx = DefinabilityContext(inst)
    t = inst.formula.num_vars
    hat, ind = documented_layout(inst)
    originals = set(range(1, t + 1))
    hats = set(hat.values()) | {a + t for a in inst.aux}
    inds = set(ind.values())
    assert not originals & hats
    assert not originals & inds
    assert not hats & inds
    assert originals | hats | inds == set(range(1, ctx.base.num_vars + 1))
    # the base is F, its renamed copy and the indicator clauses, in that order
    f = inst.formula.clauses
    want = f + [[l + t if l > 0 else l - t for l in c] for c in f]
    for z in inst.z_vars:
        want += [[-ind[z], -z, hat[z]], [-ind[z], z, -hat[z]]]
    assert ctx.base.clauses == want


def test_indicators_off_decouple_copies():
    # single isolated node: with no indicator assumed the copies move freely
    inst = encode_instance(build_graph(1, []), 1)
    ctx = DefinabilityContext(inst)
    hat, _ = documented_layout(inst)
    x = inst.x[0]
    out = CdclSolver(ctx.base).solve(assumptions=[x, -hat[x]])
    assert out.status is SolveStatus.SAT


def test_indicators_on_couple_copies():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    hat, ind = documented_layout(inst)
    out = CdclSolver(ctx.base).solve(assumptions=[ind[z] for z in inst.z_vars])
    assert out.status is SolveStatus.SAT
    for z in inst.z_vars:
        assert out.model[z] == out.model[hat[z]]


# ---- worked-example queries ---------------------------------------------------

def test_query_y_e_defined_by_first_four_groups():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    defining = group_vars(inst, "abcd")
    _, y_e = xy(inst, "e")
    assert ctx.query(defining, y_e).status is SolveStatus.UNSAT


def test_query_x_c_not_defined_by_groups_a_b():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    defining = group_vars(inst, "ab")
    x_c, _ = xy(inst, "c")
    assert ctx.query(defining, x_c).status is SolveStatus.SAT


def test_query_x_a_not_defined_by_group_c():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    defining = group_vars(inst, "c")
    x_a, _ = xy(inst, "a")
    assert ctx.query(defining, x_a).status is SolveStatus.SAT


def test_query_rejects_target_in_defining_set():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    x_a, _ = xy(inst, "a")
    for ask in (ctx.query, ctx.engine_query):
        with pytest.raises(ValueError):
            ask({x_a}, x_a)


@pytest.mark.parametrize("k", [1, 3])
def test_query_rejects_non_positive_budget(k):
    # checked before either query starts, though the search would need no
    # budget here
    inst = encode_instance(fig1(), k)
    ctx = DefinabilityContext(inst)
    x_a, _ = xy(inst, "a")
    for ask in (ctx.query, ctx.engine_query):
        with pytest.raises(ValueError, match="budget"):
            ask(set(inst.z_vars) - {x_a}, x_a, budget=0)
    assert "base" not in vars(ctx) and ctx._engine is None


@pytest.mark.parametrize("k,sensors", [(1, "c d"), (2, "a c d e")])
def test_no_engine_is_built_at_k_le_2(monkeypatch, k, sensors):
    # the graph search answers every query, so the engine is never built
    def boom(*a, **kw):
        raise AssertionError("k <= 2 must not construct a solver")

    monkeypatch.setattr(CdclSolver, "__init__", boom)
    inst = encode_instance(fig1(), k)
    res = run_gismo(inst)
    assert " ".join(sorted(inst.graph.labels[v] for v in res.sensor_set)) == sensors


def test_unknown_engine_fails_at_construction():
    # the engine is built lazily, but its name is checked up front
    with pytest.raises(ValueError, match="unknown solver engine"):
        DefinabilityContext(encode_instance(fig1(), 3), engine="no-such-engine")


def test_query_rejects_non_projected_vars():
    inst = encode_instance(fig1(), 2)
    ctx = DefinabilityContext(inst)
    aux = inst.aux[0]
    x_a, y_a = xy(inst, "a")
    for ask in (ctx.query, ctx.engine_query):
        with pytest.raises(ValueError):
            ask({aux}, x_a)
        with pytest.raises(ValueError):
            ask(set(), aux)
        # only the context's own support skips the range scan; a set equal
        # to it plus one auxiliary variable is converted and checked in full
        with pytest.raises(ValueError, match="not projected"):
            ask(set(inst.z_vars) - {x_a, y_a} | {aux}, x_a)


# ---- semantics against the enumerated truth table -----------------------------

def defined_by_table(inst, defining, target):
    """Brute-force oracle: no two projected models agree on C but differ on z."""
    rows = enumerate_models_projected(inst.formula, inst.z_vars)
    pos = {var: i for i, var in enumerate(inst.z_vars)}
    dpos = sorted(pos[c] for c in defining)
    tpos = pos[target]
    seen = {}
    for row in rows:
        key = tuple(row[i] for i in dpos)
        if key in seen and seen[key] != row[tpos]:
            return False
        seen[key] = row[tpos]
    return True


def test_query_soundness_vs_truth_table():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng)
        ctx = DefinabilityContext(inst)
        z_all = list(inst.z_vars)
        for _ in range(8):
            target = rng.choice(z_all)
            rest = [z for z in z_all if z != target]
            defining = set(rng.sample(rest, rng.randint(0, len(rest))))
            got = ctx.query(defining, target).status
            assert got in (SolveStatus.SAT, SolveStatus.UNSAT)
            assert (got is SolveStatus.UNSAT) == \
                defined_by_table(inst, defining, target)


def test_query_monotone_in_defining_set():
    # an UNSAT answer survives any enlargement of the defining set
    rng = random.Random(43)
    for _ in range(12):
        inst = random_instance(rng)
        ctx = DefinabilityContext(inst)
        z_all = list(inst.z_vars)
        target = rng.choice(z_all)
        rest = [z for z in z_all if z != target]
        defining = set(rng.sample(rest, rng.randint(0, len(rest))))
        if ctx.query(defining, target).status is SolveStatus.UNSAT:
            bigger = set(rest)
            assert ctx.query(bigger, target).status is SolveStatus.UNSAT


def test_y_vars_always_defined_by_everything_else():
    rng = random.Random(47)
    for _ in range(10):
        inst = random_instance(rng)
        ctx = DefinabilityContext(inst)
        for y in inst.y:
            defining = set(inst.z_vars) - {y}
            assert ctx.query(defining, y).status is SolveStatus.UNSAT


def direct_padoa_formula(inst, target):
    """Literal two-copy formula with unconditional equalities for j != i."""
    f = inst.formula
    shift = f.num_vars
    psi = CnfFormula()
    psi.new_vars(2 * shift)
    for clause in f.clauses:
        psi.add_clause(clause)
        psi.add_clause([l + shift if l > 0 else l - shift for l in clause])
    for z in inst.z_vars:
        if z == target:
            continue
        psi.add_clause([-z, z + shift])
        psi.add_clause([z, -(z + shift)])
    psi.add_clause([target])
    psi.add_clause([-(target + shift)])
    return psi


def test_indicator_query_equals_unconditional_equalities():
    # the activation-literal formulation and the literal one agree
    rng = random.Random(53)
    for _ in range(10):
        inst = random_instance(rng, max_n=5)
        ctx = DefinabilityContext(inst)
        for target in rng.sample(list(inst.z_vars), min(4, len(inst.z_vars))):
            defining = set(inst.z_vars) - {target}
            via_ctx = ctx.engine_query(defining, target).status
            direct = CdclSolver(direct_padoa_formula(inst, target))
            via_direct = direct.solve().status
            assert via_ctx == via_direct


def test_fresh_context_matches_shared_context(fresh_context):
    # one engine answers every query on one side, a new one each query on
    # the other: learned clauses carried between queries change no answer
    rng = random.Random(59)
    inst = random_instance(rng, max_n=5)
    shared = DefinabilityContext(inst)
    fresh = fresh_context(inst)
    z_all = list(inst.z_vars)
    for _ in range(10):
        target = rng.choice(z_all)
        rest = [z for z in z_all if z != target]
        defining = set(rng.sample(rest, rng.randint(0, len(rest))))
        assert shared.engine_query(defining, target).status == \
            fresh.query(defining, target).status
    assert shared._engine is not None and fresh._engine is None


# ---- the graph search against the engine ----------------------------------------

@st.composite
def drawn_queries(draw):
    """A graph on at most 6 nodes, any k, and a defining set.

    Edges are drawn as node pairs, so self-loops, duplicate edges and
    isolated nodes all occur.  The defining set is either whole groups, as
    run_gismo passes it, or any subset of the projected variables.
    """
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    inst = encode_instance(build_graph(n, pairs), draw(st.integers(1, n)))
    if draw(st.booleans()):
        defining = {z for v in draw(st.sets(node)) for z in inst.group_of(v)}
    else:
        defining = draw(st.sets(st.sampled_from(inst.z_vars)))
    return inst, defining


def projection(g, failed):
    """A failure set's projected model: the nodes of x and of y = N[F]."""
    return set(failed), closed_neighborhood_set(g, failed)


# path 0-1-2 at k=3: with every other variable fixed, only {0, 1, 2} and
# {0, 2} differ on x_1 alone, even though y_1 is in the defining set
PATH3 = encode_instance(build_graph(3, [(0, 1), (1, 2)]), 3)
# path 0-1-2-3-4 at k=3: y_2 given every other group differs only between
# {0, 2, 4} and {0, 4}, a witness of three steps from the start ({1}, {})
PATH5 = encode_instance(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 3)


def check_witness(inst, defining, answer):
    """A SAT witness is two failure sets that agree on `defining` and whose
    projected models hold the target true for the first, false for the second."""
    g = inst.graph
    side = {z: (i, v) for i, zs in enumerate((inst.x, inst.y))
            for v, z in enumerate(zs)}  # z -> (0 for x / 1 for y, node)
    f1, f2 = answer.witness
    assert len(f1) <= inst.k and len(f2) <= inst.k
    p1, p2 = projection(g, f1), projection(g, f2)
    for z in defining:
        i, v = side[z]
        assert (v in p1[i]) == (v in p2[i])
    i, v = side[answer.var]
    assert v in p1[i] and v not in p2[i]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn_queries())
@example((PATH3, set(PATH3.z_vars) - {PATH3.x[1]}))
@example((PATH5, set(PATH5.z_vars) - set(PATH5.group_of(2))))
def test_query_matches_engine_on_base(query):
    # compare every answer with a plain engine call on the same base formula
    # and check each SAT witness against the graph: the graph search gives
    # every answer
    inst, defining = query
    ctx = DefinabilityContext(inst)
    hat, ind = documented_layout(inst)
    for target in inst.z_vars:
        if target in defining:
            continue
        got = ctx.query(defining, target)
        assert got.conflicts_used == 0
        assumed = [ind[c] for c in defining]
        want = CdclSolver(ctx.base).solve(assumed + [target, -hat[target]])
        assert got.status is want.status
        assert (got.witness is not None) == (got.status is SolveStatus.SAT)
        if got.status is SolveStatus.SAT:
            check_witness(inst, defining, got)


def test_engine_witness_decoded_at_k3():
    defining = set(PATH5.z_vars) - set(PATH5.group_of(2))
    ctx = DefinabilityContext(PATH5)
    got = ctx.engine_query(defining, PATH5.y[2])
    assert got.status is SolveStatus.SAT and got.search_nodes == 0
    assert got.witness == (frozenset({0, 2, 4}), frozenset({0, 4}))
    assert "base" in vars(ctx) and ctx._engine is not None


def test_query_without_a_start_is_answered_on_the_graph():
    # Dx holds every node, so no node of N[2] can start F1: within a budget
    # of one pair, the graph proves y_2 defined without visiting a pair
    defining = set(PATH5.z_vars) - {PATH5.y[2]}
    ctx = DefinabilityContext(PATH5)
    got = ctx.query(defining, PATH5.y[2], budget=1)
    assert (got.status, got.search_nodes) == (SolveStatus.UNSAT, 0)
    assert "base" not in vars(ctx) and ctx._engine is None


def test_graph_witness_at_k3():
    defining = set(PATH5.z_vars) - set(PATH5.group_of(2))
    got = DefinabilityContext(PATH5).query(defining, PATH5.y[2])
    assert (got.status, got.search_nodes) == (SolveStatus.SAT, 3)
    assert got.witness == (frozenset({0, 2, 4}), frozenset({0, 4}))


@pytest.mark.parametrize("budget", [1, 2])
def test_search_past_its_pair_budget_is_exhausted(budget):
    # the witness above takes 3 pairs: a budget of fewer stops the search
    # after `budget` pairs, and nothing else answers
    ctx = DefinabilityContext(PATH5)
    defining = set(PATH5.z_vars) - set(PATH5.group_of(2))
    got = ctx.query(defining, PATH5.y[2], budget)
    assert (got.status, got.witness, got.search_nodes, got.conflicts_used) == \
        (SolveStatus.BUDGET_EXHAUSTED, None, budget, 0)
    assert "base" not in vars(ctx) and ctx._engine is None
    assert ctx.query(defining, PATH5.y[2], 3) == \
        ctx.query(defining, PATH5.y[2])  # a budget of 3 pairs is enough


def test_base_is_built_on_first_read_only():
    inst = encode_instance(fig1(), 3)
    ctx = DefinabilityContext(inst)
    assert "base" not in vars(ctx)
    run_gismo(inst, ctx=ctx)
    assert "base" not in vars(ctx) and ctx._engine is None
    assert ctx.base is ctx.base and len(ctx.base.clauses) > 0


# ---- graph-forced nodes, larger graphs and run_gismo's sequences ------------------

@st.composite
def drawn_graphs(draw):
    """A graph on at most 8 nodes (self-loops and duplicates dropped) and a
    k in 1..4."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return encode_instance(build_graph(n, pairs), draw(st.integers(1, min(4, n))))


def in_every_placement(g, k):
    """Brute force: the nodes common to every sensor set that is_gics accepts."""
    common = set(range(g.n))  # the full node set always identifies
    for size in range(g.n):
        for sensors in combinations(range(g.n), size):
            if is_gics(g, sensors, k):
                common.intersection_update(sensors)
    return common


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn_graphs())
def test_forced_set_is_in_every_placement(inst):
    # v's x query on the full support minus v's group is SAT exactly when
    # some A, |A| <= k - 1, covers N(v) - v: then (A + v, A) differ on x_v
    # and y_v only, and v is in every valid placement
    ctx = DefinabilityContext(inst)
    support = set(inst.z_vars)
    forced = set()
    for v in range(inst.graph.n):
        got = ctx.query(support - set(inst.group_of(v)), inst.x[v])
        if got.status is SolveStatus.SAT:
            forced.add(v)
            f1, f2 = got.witness
            assert f1 == f2 | {v}
    assert forced == in_every_placement(inst.graph, inst.k)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn_graphs(), st.data())
def test_graph_answers_match_engine(inst, data):
    # the search against the reference check, one engine on the base for
    # every query, on any defining set and on the same set with the target's
    # partner added: equal status on every target, and each SAT witness of
    # either holds on the graph
    defining = data.draw(st.sets(st.sampled_from(inst.z_vars)))
    ctx = DefinabilityContext(inst)
    n = inst.graph.n
    for target in inst.z_vars:
        partner = target + n if target <= n else target - n
        for d in (defining - {target}, (defining | {partner}) - {target}):
            got = ctx.query(d, target)
            want = ctx.engine_query(d, target)
            assert got.conflicts_used == 0 and want.search_nodes == 0
            assert got.status is want.status
            if got.status is SolveStatus.SAT:
                check_witness(inst, d, got)
                check_witness(inst, d, want)


def fewest_neighbours(nbrs, diff):
    """The differing node the search branches on: the one with the fewest
    neighbours, the lowest of those."""
    return min(mask_to_set(diff), key=lambda u: (len(nbrs[u]), u))


def lowest(nbrs, diff):
    """The lowest differing node: another node only one side covers."""
    return (diff & -diff).bit_length() - 1


def unpruned_search(inst, defining, target, pick=fewest_neighbours):
    """The search without sibling bars: each w in N[u], u = pick(nbrs,
    differing nodes), joins the lacking side alone where it may, then both
    sides where it may; only v (for x_v) or N[v] (for y_v) is barred, from
    F2.  Returns the witness as two node sets or None, and the number of
    pairs visited."""
    g, k = inst.graph, inst.k
    n = g.n
    nbrs = [sorted((u, *g.adjacency[u])) for u in range(n)]
    closed = [sum(1 << w for w in nb) for nb in nbrs]
    bits = sum(1 << z for z in defining)
    dx, dy = bits >> 1 & (1 << n) - 1, bits >> n + 1
    v = (target - 1) % n
    if target <= n:
        starts, barred = [v], 1 << v
    else:
        starts, barred = [w for w in nbrs[v] if not dx >> w & 1], closed[v]
    nodes = 0

    def step(f1, f2, n1, n2, c1, c2):
        nonlocal nodes
        nodes += 1
        diff = (c1 ^ c2) & dy
        if not diff:
            return f1, f2
        u = pick(nbrs, diff)
        f2_lacks = c1 >> u & 1
        if (n2 if f2_lacks else n1) == k:
            return None
        other, bar = (f1, barred) if f2_lacks else (f2, 0)
        for w in nbrs[u]:
            bit, cw = 1 << w, closed[w]
            if not bar & bit and (other & bit or not dx & bit) and (
                    found := step(f1, f2 | bit, n1, n2 + 1, c1, c2 | cw)
                    if f2_lacks else
                    step(f1 | bit, f2, n1 + 1, n2, c1 | cw, c2)):
                return found
            if not (other | barred) & bit and n1 < k and n2 < k and (
                    found := step(f1 | bit, f2 | bit, n1 + 1, n2 + 1,
                                  c1 | cw, c2 | cw)):
                return found
        return None

    for w in starts:
        if found := step(1 << w, 0, 1, 0, closed[w], 0):
            return (mask_to_set(found[0]), mask_to_set(found[1])), nodes
    return None, nodes


@st.composite
def drawn_graph_queries(draw):
    """drawn_graphs with any defining set."""
    inst = draw(drawn_graphs())
    return inst, draw(st.sets(st.sampled_from(inst.z_vars)))


# two k=2 queries on which barring a failed w from the other side instead
# changes the witness (target x_5), or loses it (target x_9)
BAR_SIDE_WITNESS = (encode_instance(build_graph(7, [
    (0, 1), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (2, 3), (3, 5), (3, 6),
    (4, 5), (5, 6)]), 2), {1, 2, 7, 8, 10, 11, 12, 13, 14})
BAR_SIDE_STATUS = (encode_instance(build_graph(10, [
    (0, 1), (0, 5), (0, 7), (0, 8), (1, 2), (1, 4), (1, 6), (1, 8), (2, 5),
    (2, 6), (3, 6), (3, 9), (4, 5), (4, 6), (4, 9), (5, 6), (5, 8), (5, 9),
    (6, 8)]), 2), {1, 2, 3, 4, 6, 9, 12, 13, 14, 16, 19, 20})


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn_graph_queries())
@example(BAR_SIDE_WITNESS)
@example(BAR_SIDE_STATUS)
def test_pruning_keeps_every_answer_and_witness(query):
    # the bars and the full-side test cut only subtrees without a witness,
    # so the first witness in depth-first order is the same, in no more pairs
    inst, defining = query
    ctx = DefinabilityContext(inst)
    for target in inst.z_vars:
        if target in defining:
            continue
        got = ctx.query(defining, target)
        witness, nodes = unpruned_search(inst, defining, target)
        assert got.witness == witness
        assert got.status is (SolveStatus.UNSAT if witness is None
                              else SolveStatus.SAT)
        assert got.search_nodes <= nodes


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn_graph_queries())
@example(BAR_SIDE_WITNESS)
@example(BAR_SIDE_STATUS)
def test_any_branch_node_gives_the_same_status(query):
    # the search branches on the differing node with the fewest neighbours;
    # any node that only one side covers is exact, so branching on the lowest
    # one must give the same status, though the witness may differ
    inst, defining = query
    ctx = DefinabilityContext(inst)
    for target in inst.z_vars:
        if target in defining:
            continue
        got = ctx.query(defining, target)
        witness, _ = unpruned_search(inst, defining, target, pick=lowest)
        assert got.status is (SolveStatus.UNSAT if witness is None
                              else SolveStatus.SAT)
        if got.status is SolveStatus.SAT:
            check_witness(inst, defining, got)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn_graphs(), st.data())
def test_drop_replay_matches_full_conversion(inst, data):
    # run_gismo's steps: drop the group, query x then y on the told context's
    # support, keep the group unless both answers are UNSAT.  The told context
    # reads the support from its mask, the untold one converts it in full, and
    # the engine decides each query on the base
    order = data.draw(st.permutations(range(inst.graph.n)))
    told, untold = DefinabilityContext(inst), DefinabilityContext(inst)
    hat, ind = documented_layout(inst)
    engine = CdclSolver(untold.base)
    answers = []
    for v in order:
        told.drop(v)
        for z in inst.group_of(v):
            got = told.query(told.support, z)
            assert got == untold.query(told.support, z)
            want = engine.solve([ind[c] for c in told.support] + [z, -hat[z]])
            assert got.status is want.status
            answers.append(got)
            if got.status is SolveStatus.SAT:
                told.keep(v)
                break
    res = run_gismo(inst, GismoConfig(order=tuple(order)))
    assert [a for e in res.per_group_log for a in e.tested] == answers
    assert told.support == {z for v in res.sensor_set for z in inst.group_of(v)}


def test_query_on_the_support_rejects_a_target_still_in_it():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    x_a, y_a = xy(inst, "a")
    ctx.drop(inst.graph.index_of("b"))
    for z in (x_a, y_a):
        with pytest.raises(ValueError, match="target .* in the defining set"):
            ctx.query(ctx.support, z)


@pytest.mark.parametrize("name", ["path20.edges", "grid5x5.edges"])
def test_forced_graphs_build_no_engine_at_k3(monkeypatch, name):
    # every node is kept, each on its own x query answered by the search
    def boom(*a, **kw):
        raise AssertionError("a forced graph must not construct a solver")

    monkeypatch.setattr(CdclSolver, "__init__", boom)
    inst = encode_instance(parse_graph_file(str(DATA / name)), 3)
    res = run_gismo(inst)
    assert res.sensor_set == set(range(inst.graph.n))
    for entry in res.per_group_log:
        assert [a.var for a in entry.tested] == [inst.x[entry.node]]


def test_dense_graph_at_k3():
    # G(60, 600) at k=3: the unpruned search on the lowest differing node
    # visited 1,527,901 pairs here, with sibling bars 340,340
    rng = random.Random(1)
    edges = {}
    while len(edges) < 600:
        u, v = rng.randrange(60), rng.randrange(60)
        if u != v:
            edges.setdefault((min(u, v), max(u, v)))
    g = parse_graph(io.StringIO("".join(f"{u} {v}\n" for u, v in edges)))
    res = run_gismo(encode_instance(g, 3))
    assert res.total_search_nodes == 123_888 and res.total_conflicts == 0
    assert is_gics(g, res.sensor_set, 3)
