import io
import random
import signal
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gicsat.cli import TRUTH_TABLE_LIMIT
from gicsat.definability import DefinabilityContext
from gicsat.encoder import encode_instance
from gicsat.gismo import GismoConfig, run_gismo
from gicsat.graph import parse_graph_file
from gicsat.oracle import failure_set_count
from gicsat.satcore import (CdclSolver, CnfFormula, ModelCapExceeded,
                            SolveStatus, check_model, engine_factory,
                            enumerate_models_projected, read_dimacs,
                            write_dimacs)


TEST_SECONDS = 30  # the slowest test here takes a few seconds


class GuardTimeout(BaseException):
    """Not an Exception, so hypothesis does not catch it and shrink, which
    would re-run the looping example with no timer left."""


@pytest.fixture(autouse=True)
def time_guard():
    """Fail a test that runs past TEST_SECONDS.

    solve() has no conflict budget by default, so an engine fault that makes
    the search loop would otherwise hang the suite.  The timer needs the
    main thread; elsewhere the test runs unguarded.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise GuardTimeout(f"test ran past {TEST_SECONDS} s; is the search looping?")

    handler = signal.signal(signal.SIGALRM, expire)
    timer = signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, *timer)


# ---- independent brute-force oracles --------------------------------------

def brute_force_solve(f, assumptions=()):
    """Exhaustive search; returns a model list or None."""
    for bits in range(1 << f.num_vars):
        model = [False] * (f.num_vars + 1)
        for v in range(1, f.num_vars + 1):
            model[v] = bool((bits >> (v - 1)) & 1)
        if all(model[abs(l)] == (l > 0) for l in assumptions) and check_model(f, model):
            return model
    return None


def brute_force_projected(f, proj):
    proj = sorted(proj)
    rows = set()
    for bits in range(1 << f.num_vars):
        model = [False] * (f.num_vars + 1)
        for v in range(1, f.num_vars + 1):
            model[v] = bool((bits >> (v - 1)) & 1)
        if check_model(f, model):
            rows.add(tuple(v if model[v] else -v for v in proj))
    return rows


def random_formula(rng, max_vars=8, max_clauses=30):
    f = CnfFormula()
    n = rng.randint(1, max_vars)
    f.new_vars(n)
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(4, n))
        vs = rng.sample(range(1, n + 1), width)
        f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return f


def pigeonhole(pigeons, holes, guarded=False):
    """Unsatisfiable when pigeons > holes; needs real conflict analysis.

    guarded adds a last variable s to every pigeon clause as -s, so the
    formula is satisfiable and unsatisfiable only under the assumption s.
    """
    f = CnfFormula()
    p = [[f.new_var() for _ in range(holes)] for _ in range(pigeons)]
    guard = [-f.new_var()] if guarded else []
    for i in range(pigeons):
        f.add_clause(guard + p[i])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                f.add_clause([-p[i1][j], -p[i2][j]])
    return f


# ---- formula construction ---------------------------------------------------

def test_add_clause_dedup():
    f = CnfFormula()
    x1 = f.new_var()
    f.add_clause([x1, x1])
    assert f.clauses == [[x1]]


def test_add_clause_tautology_dropped():
    f = CnfFormula()
    x1 = f.new_var()
    f.add_clause([x1, -x1])
    assert len(f) == 0


def test_add_clause_counts():
    f = CnfFormula()
    x1, x2 = f.new_vars(2)
    f.add_clause([x1, -x2])
    assert len(f) == 1


def test_add_clause_unallocated_var():
    f = CnfFormula()
    f.new_var()
    with pytest.raises(ValueError):
        f.add_clause([2])


def test_add_clause_empty():
    f = CnfFormula()
    with pytest.raises(ValueError):
        f.add_clause([])


# ---- solving ----------------------------------------------------------------

def test_solve_unit_against_assumption():
    f = CnfFormula()
    x1 = f.new_var()
    f.add_clause([x1])
    assert CdclSolver(f).solve(assumptions=[-x1]).status is SolveStatus.UNSAT


def test_solve_simple_sat():
    f = CnfFormula()
    x1, x2 = f.new_vars(2)
    f.add_clause([x1, x2])
    out = CdclSolver(f).solve()
    assert out.status is SolveStatus.SAT
    assert check_model(f, out.model)


def test_solve_models_verify_random():
    rng = random.Random(1)
    for _ in range(120):
        f = random_formula(rng)
        assumptions = []
        if f.num_vars >= 2 and rng.random() < 0.5:
            vs = rng.sample(range(1, f.num_vars + 1), rng.randint(1, 2))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
        got = CdclSolver(f).solve(assumptions=assumptions)
        expect = brute_force_solve(f, assumptions)
        if expect is None:
            assert got.status is SolveStatus.UNSAT
        else:
            assert got.status is SolveStatus.SAT
            assert check_model(f, got.model)
            assert all(got.model[abs(l)] == (l > 0) for l in assumptions)


def test_solve_incremental_reuse():
    # one context, many assumption probes; answers must match brute force
    rng = random.Random(7)
    for _ in range(20):
        f = random_formula(rng, max_vars=7, max_clauses=25)
        eng = engine_factory()(f)
        for _ in range(12):
            vs = rng.sample(range(1, f.num_vars + 1),
                            rng.randint(0, min(3, f.num_vars)))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
            got = eng.solve(assumptions)
            expect = brute_force_solve(f, assumptions)
            assert (got.status is SolveStatus.SAT) == (expect is not None)
            if got.status is SolveStatus.SAT:
                assert check_model(f, got.model)


def test_budget_exhaustion_and_unsat_monotone():
    f = pigeonhole(5, 4)
    full = CdclSolver(f).solve()
    assert full.status is SolveStatus.UNSAT
    assert full.conflicts_used >= 2
    tiny = CdclSolver(f).solve(budget=1)
    assert tiny.status is SolveStatus.BUDGET_EXHAUSTED
    assert tiny.conflicts_used == 1
    # once UNSAT at some budget, every larger budget agrees (fresh contexts)
    b = full.conflicts_used
    for budget in (b, 2 * b, 10 * b):
        again = CdclSolver(f).solve(budget=budget)
        assert again.status is SolveStatus.UNSAT
        assert again.conflicts_used == full.conflicts_used


def test_huge_budget_never_exhausts():
    rng = random.Random(3)
    for _ in range(40):
        f = random_formula(rng)
        out = CdclSolver(f).solve(budget=1 << 40)
        assert out.status is not SolveStatus.BUDGET_EXHAUSTED


def test_budget_validation():
    f = CnfFormula()
    f.new_var()
    f.add_clause([1])
    with pytest.raises(ValueError):
        CdclSolver(f).solve(budget=0)


def test_counters_repeat_and_are_pinned():
    # decisions and propagations are deterministic search counts
    runs = []
    for _ in range(2):
        eng = CdclSolver(pigeonhole(5, 4))
        out = eng.solve()
        runs.append((out.status, out.conflicts_used, eng.decisions,
                     eng.propagations))
    assert runs[0] == runs[1] == (SolveStatus.UNSAT, 28, 38, 297)


def test_reduce_db_deletes_learned_clauses_and_stays_sound():
    # the refutation under s learns past the 2,000-clause floor of
    # _reduce_db; the same engine must then still answer both ways
    f = pigeonhole(8, 7, guarded=True)
    s = f.num_vars
    eng = CdclSolver(f)
    assert eng.solve([s]).status is SolveStatus.UNSAT
    assert None in eng.clauses  # learned clauses were deleted
    assert all(eng.clauses[ci] is not None for ci in eng.learned_ids)
    out = eng.solve()
    assert out.status is SolveStatus.SAT
    assert check_model(f, out.model)
    assert eng.solve([s]).status is SolveStatus.UNSAT


def assert_one_live_heap_entry(eng):
    """Each variable's heap entries at its in_heap key number one, or none
    when in_heap is None; an unassigned variable's key is its activity."""
    for v in range(1, eng.num_vars + 1):
        live = sum(u == v and -na == eng.in_heap[v] for na, u in eng.heap)
        assert live == (eng.in_heap[v] is not None)
        if eng.value[v] is None:
            assert eng.in_heap[v] == eng.activity[v]


def test_rescale_keeps_answers_and_heap():
    # var_inc is pushed near the 1e100 limit before each call, so the
    # conflicts' bumps rescale every activity and rebuild the heap
    rng = random.Random(5)
    rescales = 0
    for _ in range(30):
        f = CnfFormula(8)  # random 3-SAT near the threshold: conflicts
        for _ in range(34):
            f.add_clause([v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, 9), 3)])
        eng = CdclSolver(f)
        for _ in range(8):
            vs = rng.sample(range(1, f.num_vars + 1),
                            rng.randint(0, min(3, f.num_vars)))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
            eng.var_inc = 0.9e100
            got = eng.solve(assumptions)
            rescales += eng.var_inc < 1e50
            expect = brute_force_solve(f, assumptions)
            assert (got.status is SolveStatus.SAT) == (expect is not None)
            if got.status is SolveStatus.SAT:
                assert check_model(f, got.model)
            assert_one_live_heap_entry(eng)
    assert rescales >= 10


def literals(n):
    return st.integers(-n, n).filter(bool)


def clauses(n, min_size=1):
    return st.lists(literals(n), min_size=min_size, max_size=4)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 6), st.data())
def test_reused_solver_matches_brute_force(n, data):
    """One engine over several budgeted calls."""
    f = CnfFormula(n)
    # 3n to 5n clauses of 3-4 literals, near the satisfiability threshold,
    # so that conflicts also arise above the root, and a few short ones,
    # which may fix literals at the root
    f.add_clauses(data.draw(st.lists(clauses(n, 3), min_size=3 * n,
                                     max_size=5 * n)))
    f.add_clauses(data.draw(st.lists(clauses(n), max_size=6)))
    eng = CdclSolver(f)
    for _ in range(data.draw(st.integers(1, 6))):
        assumptions = data.draw(st.lists(literals(n), max_size=4))
        # now and then a contradictory pair, a literal fixed at the root
        # or the negation of one
        if assumptions and data.draw(st.integers(0, 3)) == 0:
            assumptions.append(-assumptions[0])
        if eng.trail:
            fixed = data.draw(st.sampled_from(eng.trail))
            sign = data.draw(st.sampled_from([0, 1, 1, -1]))
            if sign:
                assumptions.insert(data.draw(st.integers(0, len(assumptions))),
                                   sign * fixed)
        budget = data.draw(st.sampled_from([1, 2, 5, None]))
        out = eng.solve(assumptions, budget)
        assert_one_live_heap_entry(eng)
        assert len(eng.heap) <= 2 * eng.num_vars
        assert budget is None or out.conflicts_used <= budget
        if out.status is SolveStatus.SAT:
            assert check_model(f, out.model)
            assert all(out.model[abs(l)] == (l > 0) for l in assumptions)
        elif out.status is SolveStatus.UNSAT:
            assert brute_force_solve(f, assumptions) is None
        else:
            assert budget is not None and out.conflicts_used == budget


def test_heap_stays_bounded_through_gismo(engine_only):
    # bumped variables re-pushed on backtrack leave stale entries behind;
    # backtracking sheds them once there are more than two per variable;
    # engine only, so that every query of the run reaches it
    inst = encode_instance(parse_graph_file(str(DATA / "gnp30.edges")), 4)
    ctx = DefinabilityContext(inst)
    res = run_gismo(inst, GismoConfig(order="input"), ctx)
    eng = ctx._engine
    assert res.total_conflicts > 0
    assert len(eng.heap) <= 2 * eng.num_vars
    assert_one_live_heap_entry(eng)


# ---- binary implication lists --------------------------------------------------

def satisfying_masks(f):
    """Every model of f as a bitmask, bit v-1 set when variable v is true."""
    checks = []
    for clause in f.clauses:
        pos = sum(1 << (l - 1) for l in clause if l > 0)
        neg = sum(1 << (-l - 1) for l in clause if l < 0)
        checks.append((pos, neg))
    full = (1 << f.num_vars) - 1
    return [bits for bits in range(full + 1)
            if all(bits & pos or ~bits & neg & full for pos, neg in checks)]


def signed(n, width):
    """Clauses of `width` distinct variables out of 1..n, with signs."""
    return st.tuples(
        st.lists(st.integers(1, n), min_size=width, max_size=width, unique=True),
        st.lists(st.booleans(), min_size=width, max_size=width),
    ).map(lambda vs: [v if s else -v for v, s in zip(*vs)])


@st.composite
def mixed_cnfs(draw):
    """2- and 3-literal clauses on at most 10 variables, and a few
    assumption lists to run through one engine."""
    n = draw(st.integers(2, 10))
    widths = signed(n, 2) | signed(n, 3) if n > 2 else signed(n, 2)
    clause_list = draw(st.lists(widths, min_size=1, max_size=5 * n))
    calls = draw(st.lists(st.lists(literals(n), max_size=4),
                          min_size=1, max_size=3))
    return n, clause_list, calls


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mixed_cnfs())
# x1 implies x2 and -x2 through two binary clauses: the conflict is met
# while walking the implication list of -x1
@example((2, [[-1, 2], [-1, -2]], [[1]]))
# the first call learns the binary clause [1, 2]; in the second, -1
# implies 2 by that clause's second literal, and the conflict that follows
# resolves on it as the reason of 2
@example((3, [[3, -2], [1, 3, 2], [2, 3, 1], [1, -3]], [[-2, -1, 3], [-1]]))
def test_mixed_cnfs_match_brute_force(drawn):
    n, clause_list, calls = drawn
    f = CnfFormula(n)
    f.add_clauses(clause_list)
    models = satisfying_masks(f)
    eng = CdclSolver(f)
    for assumptions in calls:
        out = eng.solve(assumptions)
        want = sum(1 << (l - 1) for l in set(assumptions) if l > 0)
        unwanted = sum(1 << (-l - 1) for l in set(assumptions) if l < 0)
        expect_sat = any(bits & want == want and not bits & unwanted
                         for bits in models)
        assert out.status is (SolveStatus.SAT if expect_sat
                              else SolveStatus.UNSAT)
        if out.status is SolveStatus.SAT:
            assert check_model(f, out.model)
            assert all(out.model[abs(l)] == (l > 0) for l in assumptions)
        assert len(eng.heap) <= 2 * eng.num_vars


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(signed(n, 2), max_size=2 * n) if n > 1 else st.just([]),
    st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))))
def test_enumeration_of_2cnf_matches_brute_force(drawn):
    n, clause_list, proj = drawn
    f = CnfFormula(n)
    f.add_clauses(clause_list)
    expect = {tuple(v if bits >> (v - 1) & 1 else -v for v in sorted(proj))
              for bits in satisfying_masks(f)}
    rows = enumerate_models_projected(f, proj)
    assert len(rows) == len(set(rows))
    assert set(rows) == expect


def test_binary_reasons_lead_with_the_implied_literal():
    # _analyze skips the first literal of each reason as the one implied,
    # so [-4, 3] must read [3, -4] once it has implied 3
    f = CnfFormula(5)
    f.add_clauses([[-4, 3], [5, -4], [2, -3], [1, 2, 4]])
    eng = CdclSolver(f)
    eng.trail_lim.append(0)
    eng._enqueue(4, None)
    assert eng._propagate() is None
    assert eng.trail == [4, 3, 5, 2]
    assert eng.clauses[eng.reason[3]] == [3, -4]
    for lit in eng.trail[1:]:
        assert eng.clauses[eng.reason[abs(lit)]][0] == lit


# ---- projected enumeration ---------------------------------------------------

def test_enumerate_unsat_is_empty():
    f = CnfFormula()
    x1 = f.new_var()
    f.add_clause([x1])
    f.add_clause([-x1])
    assert enumerate_models_projected(f, [x1]) == []


def test_enumerate_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        f = random_formula(rng, max_vars=7)
        nproj = rng.randint(1, f.num_vars)
        proj = rng.sample(range(1, f.num_vars + 1), nproj)
        got = enumerate_models_projected(f, proj)
        assert len(got) == len(set(got)), "duplicate projected model"
        assert set(got) == brute_force_projected(f, proj)


def test_enumerate_invariant_under_clause_reordering():
    rng = random.Random(13)
    for _ in range(20):
        f = random_formula(rng, max_vars=6)
        proj = list(range(1, f.num_vars + 1))
        base = set(enumerate_models_projected(f, proj))
        shuffled = CnfFormula(f.num_vars)
        order = list(f.clauses)
        rng.shuffle(order)
        shuffled.add_clauses(order)
        assert set(enumerate_models_projected(shuffled, proj)) == base


def test_enumerate_cap_exceeded_raises():
    f = CnfFormula()
    f.new_vars(3)
    f.add_clause([1, 2, 3])
    with pytest.raises(ModelCapExceeded):
        enumerate_models_projected(f, [1, 2, 3], cap=3)


@st.composite
def drawn_enumerations(draw):
    """Clauses on at most 7 variables, a projection that may be empty or
    repeat variables, and a cap around the number of projected models."""
    n = draw(st.integers(1, 7))
    clause_list = draw(st.lists(clauses(n), max_size=4 * n))
    proj = draw(st.lists(st.integers(1, n), max_size=n + 2))
    cap = draw(st.integers(0, 1 << min(n, len(set(proj)))))
    return n, clause_list, proj, cap


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(drawn_enumerations())
# every projected variable fixed at the root: an empty blocking clause
@example((3, [[1], [-2], [2, 3]], [2, 1, 2], 1))
# UNSAT by a conflict at the root
@example((2, [[-1, 2], [-1, -2], [1]], [1, 2], 4))
# the last decision before each model is a variable outside the projection
@example((3, [], [1, 2], 4))
@example((4, [[1, 2, 3, 4]], [2, 1], 4))
@example((3, [[1, 2], [1, 3]], [2, 3], 4))
# x1 guards pigeonhole(3, 2) on variables 2-7: only a search among the
# variables outside the projection refutes the decision x1
@example((7, [[-1, 2, 3], [-1, 4, 5], [-1, 6, 7], [-2, -4], [-2, -6],
              [-4, -6], [-3, -5], [-3, -7], [-5, -7]], [1], 2))
def test_enumeration_matches_brute_force(drawn):
    n, clause_list, proj, cap = drawn
    f = CnfFormula(n)
    f.add_clauses(clause_list)
    expect = brute_force_projected(f, set(proj))
    if len(expect) > cap:
        with pytest.raises(ModelCapExceeded):
            enumerate_models_projected(f, proj, cap)
        return
    rows = enumerate_models_projected(f, proj, cap)
    assert len(set(rows)) == len(rows)
    assert all([abs(lit) for lit in row] == sorted(set(proj)) for row in rows)
    assert set(rows) == expect


DATA = Path(__file__).resolve().parent.parent / "data"


def truth_table_cases():
    """Each data/ graph with each k at which `gicsat verify` enumerates."""
    for path in sorted(DATA.glob("*.edges")):
        n = parse_graph_file(str(path)).n
        for k in range(1, n + 1):
            if failure_set_count(n, k) <= TRUTH_TABLE_LIMIT:
                yield path.name, k


@pytest.mark.parametrize("name,k", list(truth_table_cases()))
def test_failure_set_enumeration_learns_nothing(name, k):
    # projected variables are decided first and each model is blocked by
    # its decisions: no model costs a learned clause, and a full trail ends
    # the search without draining the heap, which must not grow either
    g = parse_graph_file(str(DATA / name))
    inst = encode_instance(g, k)
    eng = CdclSolver(inst.formula)
    rows = eng.enumerate_projected(inst.z_vars, TRUTH_TABLE_LIMIT)
    failure_sets = {frozenset(v for v in range(g.n) if row[v] > 0)
                    for row in rows}
    assert len(rows) == len(failure_sets) == failure_set_count(g.n, k)
    assert all(len(fs) <= k for fs in failure_sets)
    assert eng.learned_ids == []
    assert len(eng.heap) <= eng.num_vars
    if (name, k) == ("fig1.edges", 2):
        assert (eng.decisions, eng.propagations) == (29, 150)


# ---- DIMACS -------------------------------------------------------------------

@st.composite
def drawn_dimacs(draw):
    """A formula on at most 6 variables, comments and group annotations."""
    n = draw(st.integers(0, 6))
    f = CnfFormula(n)
    if n:
        f.add_clauses(draw(st.lists(clauses(n), max_size=8)))
        var = st.integers(1, n)
        groups = draw(st.dictionaries(
            st.text("ab_-19", min_size=1, max_size=4),
            st.tuples(var, var), max_size=n))
    else:
        groups = {}
    comments = draw(st.lists(st.text("hello wrd", max_size=12), max_size=3))
    return f, comments, groups


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(drawn_dimacs())
def test_dimacs_round_trip(drawn):
    f, comments, groups = drawn
    buf = io.StringIO()
    write_dimacs(f, buf, comments=comments,
                 groups=[(label, *vs) for label, vs in groups.items()])
    buf.seek(0)
    g, read_groups = read_dimacs(buf)
    assert g.num_vars == f.num_vars
    assert g.clauses == f.clauses
    assert read_groups == groups


def test_dimacs_rejects_clause_count_mismatch():
    with pytest.raises(ValueError):
        read_dimacs(io.StringIO("p cnf 2 2\n1 -2 0\n"))


def test_dimacs_rejects_missing_header():
    with pytest.raises(ValueError):
        read_dimacs(io.StringIO("1 -2 0\n"))
