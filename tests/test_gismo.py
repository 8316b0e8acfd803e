import io
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gicsat.definability import DefinabilityContext
from gicsat.encoder import encode_instance
from gicsat.gismo import GismoConfig, group_order, run_gismo
from gicsat.graph import build_graph, parse_graph, parse_graph_file
from gicsat.oracle import (is_gics, is_gis_bruteforce, min_gics_exhaustive,
                           projected_models, signature)
from gicsat.satcore import SolveStatus

DATA = Path(__file__).resolve().parent.parent / "data"
PROBE_ORDERS = ("y-first", "x-first")
FIG1_EDGES = "a b\na d\nb c\nb e\nc e\nd e\n"
HUGE = 10 ** 9


def fig1():
    return parse_graph(io.StringIO(FIG1_EDGES))


def order_by_labels(g, labels):
    return tuple(g.index_of(t) for t in labels)


def random_instance(rng, n_range=(2, 7), k_max=3):
    n = rng.randint(*n_range)
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < rng.choice([0.3, 0.6])])
    return encode_instance(g, rng.randint(1, min(k_max, n)))


# ---- the worked example --------------------------------------------------------

def test_fig1_worked_example_order():
    g = fig1()
    inst = encode_instance(g, 1)
    cfg = GismoConfig(order=order_by_labels(g, "edcba"))
    res = run_gismo(inst, cfg)
    assert {g.labels[v] for v in res.sensor_set} == {"a", "c"}
    assert res.budget_exhaustions == 0
    # every group appears exactly once, in processing order
    assert [e.node for e in res.per_group_log] == list(order_by_labels(g, "edcba"))


def test_fig1_worked_example_inner_break():
    # groups e, d, b fail both probes; c and a stop at the first
    g = fig1()
    inst = encode_instance(g, 1)
    cfg = GismoConfig(order=order_by_labels(g, "edcba"))
    res = run_gismo(inst, cfg)
    by_label = {g.labels[e.node]: e for e in res.per_group_log}
    x_e, y_e = inst.group_of(g.index_of("e"))
    assert [r.var for r in by_label["e"].tested] == [x_e, y_e]  # x first
    assert [r.status for r in by_label["e"].tested] == [SolveStatus.UNSAT] * 2
    assert [r.status for r in by_label["c"].tested] == [SolveStatus.SAT]
    assert [r.status for r in by_label["a"].tested] == [SolveStatus.SAT]
    assert not by_label["e"].kept and by_label["c"].kept and by_label["a"].kept


def test_complete_graph_two_nodes_k2_keeps_both():
    g = build_graph(2, [(0, 1)])
    inst = encode_instance(g, 2)
    res = run_gismo(inst, GismoConfig())
    assert res.sensor_set == frozenset({0, 1})
    assert is_gis_bruteforce(inst, res.sensor_set)


def table_gismo(inst, node_order, probes="y-first"):
    """Independent replica of the group loop over the enumerated truth table.

    probes="x-first" tests x_v before y_v; the kept groups must not change.
    """
    models = projected_models(inst)
    pos = {var: i for i, var in enumerate(inst.z_vars)}

    def defined(defining, target):
        dpos = sorted(pos[c] for c in defining)
        seen = {}
        for row in models:
            key = tuple(row[i] for i in dpos)
            if key in seen and seen[key] != row[pos[target]]:
                return False
            seen[key] = row[pos[target]]
        return True

    candidates = set(inst.z_vars)
    selected, support = set(), set()
    for v in node_order:
        x_var, y_var = inst.group_of(v)
        candidates -= {x_var, y_var}
        probe = (y_var, x_var) if probes == "y-first" else (x_var, y_var)
        for z in probe:
            if not defined(candidates | support, z):
                selected.add(v)
                support.update((x_var, y_var))
                break
    return selected


def assert_minimal_gis(inst, sensors):
    """The truth table's verdict: a GIS, and no single group is removable."""
    models = projected_models(inst)
    assert is_gis_bruteforce(inst, sensors, models)
    assert not [v for v in sensors
                if is_gis_bruteforce(inst, sensors - {v}, models)]


def test_fig1_input_order_matches_independent_minimizer():
    g = fig1()
    inst = encode_instance(g, 1)
    explicit = order_by_labels(g, "abcde")
    res = run_gismo(inst, GismoConfig(order=explicit))
    expected = table_gismo(inst, explicit)
    assert res.sensor_set == frozenset(expected)
    assert is_gics(g, res.sensor_set, 1)
    assert_minimal_gis(inst, res.sensor_set)


def test_random_instances_match_independent_minimizer():
    rng = random.Random(61)
    for _ in range(15):
        inst = random_instance(rng)
        order = list(range(inst.graph.n))
        rng.shuffle(order)
        res = run_gismo(inst, GismoConfig(order=tuple(order)))
        assert res.sensor_set == frozenset(table_gismo(inst, order))


@st.composite
def drawn_runs(draw):
    """A graph on at most 6 nodes, any k, an explicit order, a probe order
    for the replica.

    Edge pairs may repeat or be self-loops, and nodes may stay isolated.
    """
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    k = draw(st.integers(1, n))
    order = tuple(draw(st.permutations(range(n))))
    return build_graph(n, pairs), k, order, draw(st.sampled_from(PROBE_ORDERS))


def clique(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves):
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(drawn_runs())
# named shapes: cliques, stars, and k = n
@example((clique(5), 2, (4, 3, 2, 1, 0), "y-first"))
@example((clique(4), 4, (0, 1, 2, 3), "x-first"))
@example((star(5), 2, (0, 1, 2, 3, 4, 5), "y-first"))
@example((star(4), 1, (3, 0, 4, 1, 2), "x-first"))
@example((build_graph(4, [(0, 1), (1, 2), (2, 3)]), 4, (1, 3, 0, 2), "y-first"))
@example((star(3), 4, (0, 1, 2, 3), "x-first"))
def test_drawn_graphs_match_independent_minimizer(run):
    g, k, order, probes = run
    inst = encode_instance(g, k)
    res = run_gismo(inst, GismoConfig(order=order))
    assert res.sensor_set == frozenset(table_gismo(inst, order, probes))
    assert res.budget_exhaustions == 0
    assert is_gics(g, res.sensor_set, k)
    assert_minimal_gis(inst, res.sensor_set)
    assert_witnesses_certify(g, k, res)


# ---- graph-only certificate of set-minimality ------------------------------------

def assert_witnesses_certify(g, k, res):
    """Each kept node's SAT witness: two failure sets the others cannot tell apart.

    Only the graph and oracle.signature are used, so this proves that no
    single sensor can be dropped without enumerating projected models.
    """
    for entry in res.per_group_log:
        if not entry.kept:
            continue
        last = entry.tested[-1]
        assert last.status is SolveStatus.SAT
        f1, f2 = last.witness
        rest = res.sensor_set - {entry.node}
        assert f1 != f2 and len(f1) <= k and len(f2) <= k
        assert signature(g, rest, f1) == signature(g, rest, f2)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.edges")), ids=lambda p: p.name)
def test_kept_sensors_carry_graph_checked_witnesses(path):
    g = parse_graph_file(str(path))
    for k in range(1, min(3, g.n) + 1):
        res = run_gismo(encode_instance(g, k), GismoConfig())
        assert res.budget_exhaustions == 0
        assert_witnesses_certify(g, k, res)


# ---- orders and config ----------------------------------------------------------

def test_group_order_modes():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    inst = encode_instance(g, 1)
    assert group_order(inst, GismoConfig()) == [0, 1, 2, 3]
    assert group_order(inst, GismoConfig(order="deg-desc")) == [0, 1, 2, 3]
    assert group_order(inst, GismoConfig(order="deg-asc")) == [3, 1, 2, 0]
    shuffled = group_order(inst, GismoConfig(order="random", seed=4))
    assert sorted(shuffled) == [0, 1, 2, 3]
    assert group_order(inst, GismoConfig(order="random", seed=4)) == shuffled


def test_group_order_explicit_validation():
    inst = encode_instance(fig1(), 1)
    with pytest.raises(ValueError):
        group_order(inst, GismoConfig(order=(0, 1)))


def test_config_validation():
    with pytest.raises(ValueError):
        GismoConfig(budget=0)
    with pytest.raises(ValueError):
        GismoConfig(order="bogus")
    with pytest.raises(ValueError):
        GismoConfig(order="random")


def test_run_needs_a_context_with_full_support():
    inst = encode_instance(fig1(), 1)
    ctx = DefinabilityContext(inst)
    res = run_gismo(inst, ctx=ctx)
    assert ctx.support == {z for v in res.sensor_set for z in inst.group_of(v)}
    with pytest.raises(ValueError, match="support is not full"):
        run_gismo(inst, ctx=ctx)  # a used context
    interrupted = DefinabilityContext(inst)
    interrupted.drop(0)  # as a run stopped inside node 0's queries leaves it
    with pytest.raises(ValueError, match="support is not full"):
        run_gismo(inst, ctx=interrupted)
    interrupted.keep(0)
    assert run_gismo(inst, ctx=interrupted) == res


def test_run_needs_the_context_of_its_instance():
    # a context for k=1 would answer the k=2 run's queries at k=1
    g = parse_graph_file(str(DATA / "gnp30.edges"))
    ctx = DefinabilityContext(encode_instance(g, 1))
    with pytest.raises(ValueError, match="another instance"):
        run_gismo(encode_instance(g, 2), ctx=ctx)


# ---- always a GIS, always a GICS (Lemma 1 + Lemma 3 shape) -------------------------

def test_output_is_gis_and_gics_random():
    rng = random.Random(67)
    for _ in range(15):
        inst = random_instance(rng)
        res = run_gismo(inst, GismoConfig(budget=HUGE))
        assert is_gics(inst.graph, res.sensor_set, inst.k)
        assert_minimal_gis(inst, res.sensor_set)  # unbounded budget: set-minimal


def test_output_is_gis_even_with_tiny_budget(engine_only):
    # engine only: the graph search never exhausts, the engine's budget does
    rng = random.Random(71)
    saw_exhaustion = False
    for _ in range(40):
        inst = random_instance(rng, n_range=(4, 8), k_max=3)
        res = run_gismo(inst, GismoConfig(budget=1))
        saw_exhaustion |= res.budget_exhaustions > 0
        assert is_gis_bruteforce(inst, res.sensor_set)
        assert is_gics(inst.graph, res.sensor_set, inst.k)
    assert saw_exhaustion, "budget=1 should exhaust on some query of this suite"


def test_budget_monotonicity_empirical(engine_only):
    # engine only, 30 draws give 25 instances that exhaust at budget=1: the
    # proviso holds on 15 and fails on 10; the floors below keep each branch
    # from going vacuous
    rng = random.Random(73)
    exhausting = proviso_held = proviso_failed = 0
    for _ in range(30):
        inst = random_instance(rng, n_range=(4, 8), k_max=3)
        small = run_gismo(inst, GismoConfig(budget=1))
        large = run_gismo(inst, GismoConfig(budget=HUGE))
        if small.budget_exhaustions == 0:
            assert small.sensor_set == large.sensor_set
            continue
        exhausting += 1
        # proviso: each exhausted probe resolves UNSAT when given room
        ctx = DefinabilityContext(inst)
        candidates = set(inst.z_vars)
        support = set()
        proviso = True
        for entry in small.per_group_log:
            grp = set(inst.group_of(entry.node))
            candidates -= grp
            for rec in entry.tested:
                if rec.status is SolveStatus.BUDGET_EXHAUSTED:
                    out = ctx.query(candidates | support, rec.var, HUGE)
                    proviso &= out.status is SolveStatus.UNSAT
            if entry.kept:
                support |= grp
        if proviso:
            proviso_held += 1
            assert len(large.sensor_set) <= len(small.sensor_set)
        else:
            # an exhausted probe would have been SAT: the group was kept
            # either way, and the placement is still valid
            proviso_failed += 1
            assert is_gis_bruteforce(inst, small.sensor_set)
    assert exhausting >= 3 and proviso_held >= 3 and proviso_failed >= 3


def test_exhausted_probe_that_would_be_sat_keeps_a_valid_gis(engine_only):
    # path 1-2-3 plus isolated node 0 at k=2: at budget=1 node 1's x probe
    # exhausts although it is SAT given room
    inst = encode_instance(build_graph(4, [(1, 2), (2, 3)]), 2)
    small = run_gismo(inst, GismoConfig(budget=1))
    entry = next(e for e in small.per_group_log if e.node == 1)
    probe = entry.tested[-1]
    assert entry.kept and probe.status is SolveStatus.BUDGET_EXHAUSTED
    support = set(inst.z_vars)
    for e in small.per_group_log[:small.per_group_log.index(entry)]:
        if not e.kept:
            support -= set(inst.group_of(e.node))
    full = DefinabilityContext(inst).query(
        support - set(inst.group_of(1)), probe.var, HUGE)
    assert full.status is SolveStatus.SAT
    assert is_gis_bruteforce(inst, small.sensor_set)
    assert is_gics(inst.graph, small.sensor_set, inst.k)


def test_determinism_same_config_same_result():
    rng = random.Random(79)
    for _ in range(6):
        inst = random_instance(rng)
        cfg = GismoConfig(order="random", seed=11)
        assert run_gismo(inst, cfg) == run_gismo(inst, cfg)


def test_minimum_cardinality_lower_bounds_every_config():
    rng = random.Random(83)
    for _ in range(6):
        inst = random_instance(rng, n_range=(2, 6), k_max=2)
        best_size = min_gics_exhaustive(inst.graph, inst.k)[1]
        for order in ("input", "deg-desc", "deg-asc", "random"):
            res = run_gismo(inst, GismoConfig(order=order, seed=3))
            assert best_size <= len(res.sensor_set)


def without_conflicts(res):
    """A result's decisions; conflict counts depend on the engine's history."""
    return (res.sensor_set, res.budget_exhaustions, res.total_queries,
            [(e.node, e.kept, [(r.var, r.status) for r in e.tested])
             for e in res.per_group_log])


def test_fresh_context_same_answer(fresh_context):
    g = fig1()
    inst = encode_instance(g, 1)
    cfg = GismoConfig(order=order_by_labels(g, "edcba"))
    res = run_gismo(inst, cfg, fresh_context(inst))
    assert {g.labels[v] for v in res.sensor_set} == {"a", "c"}
    assert without_conflicts(res) == without_conflicts(run_gismo(inst, cfg))
    rng = random.Random(89)
    for _ in range(12):
        inst = random_instance(rng)
        order = list(range(inst.graph.n))
        rng.shuffle(order)
        cfg = GismoConfig(order=tuple(order))
        fresh = run_gismo(inst, cfg, fresh_context(inst))
        assert fresh.budget_exhaustions == 0
        assert without_conflicts(fresh) == without_conflicts(run_gismo(inst, cfg))
