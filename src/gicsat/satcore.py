"""CNF formulas and a bundled incremental SAT engine.

The engine is a conflict-driven clause-learning solver with two-literal
watching, first-UIP learning, VSIDS-style branching, phase saving and Luby
restarts.  It is built once from a CnfFormula, whose variable count fixes
its size and whose clauses are its database; after that its surface is
solve(assumptions, budget) and enumerate_projected(proj, cap).  Each solve
call takes assumption literals and a conflict budget, and learned clauses
are kept across calls (they are entailed by the clause database alone,
never by assumptions, so reuse is sound).  enumerate_projected lists every
projected model in one search: each model is blocked by a clause, and the
search backjumps to where that clause asserts or conflicts instead of
restarting at the root.  solve and enumerate_projected share one CDCL loop
(CdclSolver._search).  Per-literal state lives in flat lists indexed by the
signed literal itself (see CdclSolver).

Everything here is deterministic: no randomness, stable tie-breaking by
variable index, insertion-ordered containers only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import IO, Callable, Iterable, Sequence

_NO_BUDGET = 1 << 62


class SolveStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one budgeted solve call.

    model is a list indexed by variable (entry 0 unused); present iff SAT.
    """

    status: SolveStatus
    model: list[bool] | None
    conflicts_used: int

    def __post_init__(self):
        assert (self.model is not None) == (self.status is SolveStatus.SAT)


class CnfFormula:
    """Clause container with contiguous variable ids starting at 1."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append a clause; duplicate literals dropped, tautologies skipped."""
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unallocated variable")
            if -lit in seen:
                return  # tautology (x or not-x)
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            raise ValueError("empty clause")
        self.clauses.append(clause)

    def add_clauses(self, clause_list: Iterable[Iterable[int]]) -> None:
        for lits in clause_list:
            self.add_clause(lits)

    def __len__(self) -> int:
        return len(self.clauses)


def clause_satisfied(clause: Sequence[int], model: Sequence[bool]) -> bool:
    return any(model[abs(l)] == (l > 0) for l in clause)


def check_model(f: CnfFormula, model: Sequence[bool]) -> bool:
    """Direct evaluation of a full assignment against every clause."""
    return all(clause_satisfied(c, model) for c in f.clauses)


class CdclSolver:
    """Bundled CDCL engine; one instance is one single-threaded context.

    `value[lit]` (True, False or None) and `watches[lit]` have 2n+1 slots
    indexed by the signed literal: `-v` is slot 2n+1-v, slot 0 is unused.
    `level`, `reason`, `activity`, `phase` and `in_heap` are indexed by the
    variable.

    The branching heap holds (-activity, v) entries and is pruned lazily.
    `in_heap[v]` is the activity of v's one live entry, None when v has
    none; any other entry of v is stale and skipped when popped.  Every
    unassigned variable has its live entry at its current activity, so the
    branch variable is the unassigned one of highest activity, lowest index
    first among equals.

    `decisions` (branch variables picked; assumption levels are not
    counted) and `propagations` (literals dequeued by unit propagation) are
    cumulative over the solver's life.
    """

    def __init__(self, formula: CnfFormula):
        n = self.num_vars = formula.num_vars
        self.clauses: list[list[int] | None] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.value: list[bool | None] = [None] * (2 * n + 1)
        self.level: list[int] = [0] * (n + 1)
        self.reason: list[int | None] = [None] * (n + 1)
        self.activity: list[float] = [0.0] * (n + 1)
        self.phase: list[bool] = [False] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.var_inc = 1.0
        # equal keys in ascending variable order: already a valid heap
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]
        self.in_heap: list[float | None] = [None] + [0.0] * n
        self.seen = bytearray(n + 1)  # _analyze's marks, all clear between calls
        self.decisions = 0
        self.propagations = 0
        self.learned_ids: list[int] = []
        self.num_original = 0
        for clause in formula.clauses:  # normalised by CnfFormula.add_clause
            self._add_normalised(clause)

    # ---- clause management --------------------------------------------

    def _add_normalised(self, clause: list[int]) -> None:
        """Drop root-false literals; skip the clause if one is root-true."""
        value = self.value
        unset: list[int] = []
        for lit in clause:
            val = value[lit]
            if val:
                return  # satisfied at root forever
            if val is None:  # a literal false at root is dropped
                unset.append(lit)
        self.num_original += 1
        if not unset:
            self.ok = False
        elif len(unset) == 1:
            self._enqueue(unset[0], None)
        else:
            self._attach(unset)

    def _attach(self, clause: list[int]) -> int:
        ci = len(self.clauses)
        self.clauses.append(clause)
        self.watches[clause[0]].append(ci)
        self.watches[clause[1]].append(ci)
        return ci

    # ---- trail --------------------------------------------------------

    def _enqueue(self, lit: int, reason_ci: int | None) -> None:
        v = abs(lit)
        self.value[lit] = True
        self.value[-lit] = False
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason_ci
        self.trail.append(lit)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        lim = self.trail_lim[lvl]
        value, phase, reason = self.value, self.phase, self.reason
        heap, activity, in_heap = self.heap, self.activity, self.in_heap
        for i in range(len(self.trail) - 1, lim - 1, -1):
            lit = self.trail[i]
            v = abs(lit)
            phase[v] = lit > 0
            value[lit] = value[-lit] = None
            reason[v] = None
            act = activity[v]
            if in_heap[v] != act:
                heappush(heap, (-act, v))
                in_heap[v] = act
        del self.trail[lim:]
        del self.trail_lim[lvl:]
        self.qhead = min(self.qhead, len(self.trail))

    # ---- propagation ---------------------------------------------------

    def _propagate(self) -> int | None:
        """Run unit propagation to fixpoint; the conflict clause id, if any."""
        clauses, value, watches = self.clauses, self.value, self.watches
        level, reason, trail = self.level, self.reason, self.trail
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = watches[neg]
            i = j = 0
            end = len(ws)
            while i < end:
                ci = ws[i]
                i += 1
                c = clauses[ci]
                if c is None:
                    continue  # deleted clause: drop the stale watch
                if c[0] == neg:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                fv = value[first]
                if fv:
                    ws[j] = ci
                    j += 1
                    continue
                for kk in range(2, len(c)):
                    lk = c[kk]
                    if value[lk] is not False:
                        c[1], c[kk] = lk, neg
                        watches[lk].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if fv is False:  # first watch falsified too: conflict
                        del ws[j:i]
                        self.propagations += qhead - self.qhead
                        self.qhead = qhead
                        return ci
                    value[first] = True  # as _enqueue(first, ci)
                    value[-first] = False
                    v = abs(first)
                    level[v] = lvl
                    reason[v] = ci
                    trail.append(first)
            del ws[j:]
        self.propagations += qhead - self.qhead
        self.qhead = qhead
        return None

    # ---- conflict analysis ----------------------------------------------

    def _rescale(self) -> None:
        activity, value, in_heap = self.activity, self.value, self.in_heap
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
            in_heap[v] = activity[v] if value[v] is None else None
        self.var_inc *= 1e-100
        heap = self.heap  # rebuilt in place: _analyze holds a reference
        heap[:] = [(-activity[v], v) for v in range(1, self.num_vars + 1)
                   if value[v] is None]
        heap.sort()

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        clauses, trail, level = self.clauses, self.trail, self.level
        value, activity, in_heap = self.value, self.activity, self.in_heap
        heap, reason, seen, var_inc = self.heap, self.reason, self.seen, self.var_inc
        learnt: list[int] = [0]
        cur_level = len(self.trail_lim)
        counter = 0
        p = 0
        index = len(trail) - 1
        c = clauses[confl]
        while True:
            assert c is not None
            for pos in range(0 if p == 0 else 1, len(c)):
                q = c[pos]
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    act = activity[v] + var_inc  # VSIDS bump
                    activity[v] = act
                    if act > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
                    elif value[v] is None:
                        heappush(heap, (-act, v))
                        in_heap[v] = act
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[index])]:
                index -= 1
            p = trail[index]
            index -= 1
            v = abs(p)
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            c = clauses[reason[v]]
        learnt[0] = -p
        for q in learnt[1:]:  # the current level's marks are already clear
            seen[abs(q)] = 0
        if len(learnt) == 1:
            return learnt, 0
        # watch the asserting literal and a literal from the backjump level
        best = 1
        for pos in range(2, len(learnt)):
            if level[abs(learnt[pos])] > level[abs(learnt[best])]:
                best = pos
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _record_learnt(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            ci = self._attach(learnt)
            self.learned_ids.append(ci)
            self._enqueue(learnt[0], ci)

    def _reduce_db(self) -> None:
        keep_limit = max(2000, 2 * self.num_original)
        if len(self.learned_ids) <= keep_limit:
            return
        active_reasons = {self.reason[abs(l)] for l in self.trail}
        # drop the longest (oldest first among equals), keep binaries
        order = sorted(self.learned_ids,
                       key=lambda ci: (-len(self.clauses[ci]), ci))
        kept: set[int] = set(self.learned_ids)
        to_remove = len(self.learned_ids) // 2
        for ci in order:
            if to_remove == 0:
                break
            clause = self.clauses[ci]
            if len(clause) <= 2 or ci in active_reasons:
                continue
            self.clauses[ci] = None
            kept.discard(ci)
            to_remove -= 1
        self.learned_ids = [ci for ci in self.learned_ids if ci in kept]

    # ---- decisions -------------------------------------------------------

    def _pick_branch_var(self) -> int:
        heap, value, in_heap = self.heap, self.value, self.in_heap
        while heap:
            na, v = heappop(heap)
            if -na == in_heap[v]:  # v's live entry: it leaves the heap
                in_heap[v] = None
                if value[v] is None:
                    return v
        return 0

    # ---- main loop -------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              budget: int | None = None) -> SolveOutcome:
        """Decide the clause database under assumptions, within a conflict budget.

        budget=None means effectively unbounded.
        """
        if budget is None:
            budget = _NO_BUDGET
        if budget < 1:
            raise ValueError("budget must be >= 1")
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"assumption {lit} references an unallocated variable")
        return self._search(assumptions, budget, None)

    def enumerate_projected(self, proj: Sequence[int],
                            cap: int) -> list[tuple[int, ...]]:
        """Every model of the clause database projected on proj, in one search.

        proj holds distinct allocated variables; each row lists their
        literals in proj's order.  Each model found is blocked by the
        negation of its row and the search goes on from where the blocking
        clause becomes unit or conflicting, not from the root.  Blocking
        clauses stay in the database, so the engine ends UNSAT.  Raises
        ModelCapExceeded on model number cap + 1.
        """
        value = self.value
        rows: list[tuple[int, ...]] = []

        def block_model() -> int | None:
            if len(rows) >= cap:
                raise ModelCapExceeded(cap)
            row = tuple(v if value[v] else -v for v in proj)
            rows.append(row)
            return self._add_blocking([-lit for lit in row])

        self._search((), _NO_BUDGET, block_model)
        return rows

    def _add_blocking(self, clause: list[int]) -> int | None:
        """Add a blocking clause, which the full current assignment falsifies.

        Root-false literals are dropped and the rest sorted by descending
        level.  An empty clause makes the database UNSAT.  A clause with one
        literal at its top level backjumps to its next level (the root for a
        unit) and asserts that literal; otherwise it cancels to the top
        level and returns the clause id as a conflict for _analyze.
        Blocking clauses count as original, so _reduce_db never deletes them.
        """
        level = self.level
        clause = sorted((lit for lit in clause if level[abs(lit)] > 0),
                        key=lambda lit: -level[abs(lit)])
        self.num_original += 1
        if not clause:
            self.ok = False
            return None
        if len(clause) == 1:
            self._cancel_until(0)
            self._enqueue(clause[0], None)
            return None
        top, second = level[abs(clause[0])], level[abs(clause[1])]
        if second < top:
            self._cancel_until(second)
            self._enqueue(clause[0], self._attach(clause))
            return None
        self._cancel_until(top)
        return self._attach(clause)

    def _search(self, assumptions: Sequence[int], budget: int,
                on_model: Callable[[], int | None] | None) -> SolveOutcome:
        """The CDCL loop of solve and enumerate_projected.

        With on_model None the first model ends the search.  Otherwise
        on_model is called at each model; it blocks the model and returns
        a conflict clause id, or None once it has asserted a literal or
        made the database UNSAT, and the search goes on until UNSAT.
        """
        self._cancel_until(0)
        if not self.ok:
            return SolveOutcome(SolveStatus.UNSAT, None, 0)

        conflicts = 0
        restart_count = 0
        restart_limit = 128 * _luby(restart_count + 1)
        conflicts_since_restart = 0

        while True:
            confl = self._propagate()
            if confl is None:
                self._reduce_db()

                next_lit = 0
                while len(self.trail_lim) < len(assumptions):
                    p = assumptions[len(self.trail_lim)]
                    val = self.value[p]
                    if val is True:
                        self.trail_lim.append(len(self.trail))  # placeholder level
                    elif val is False:
                        self._cancel_until(0)
                        return SolveOutcome(SolveStatus.UNSAT, None, conflicts)
                    else:
                        next_lit = p
                        break
                if next_lit == 0:
                    v = self._pick_branch_var()
                    if v:
                        self.decisions += 1
                        next_lit = v if self.phase[v] else -v
                if next_lit:
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(next_lit, None)
                    continue
                if on_model is None:
                    model = [bool(val) for val in self.value[:self.num_vars + 1]]
                    self._cancel_until(0)
                    return SolveOutcome(SolveStatus.SAT, model, conflicts)
                confl = on_model()
                if not self.ok:
                    return SolveOutcome(SolveStatus.UNSAT, None, conflicts)
                if confl is None:
                    continue

            conflicts += 1
            conflicts_since_restart += 1
            if not self.trail_lim:
                self.ok = False
                return SolveOutcome(SolveStatus.UNSAT, None, conflicts)
            learnt, bt = self._analyze(confl)
            self._cancel_until(bt)
            self._record_learnt(learnt)
            self.var_inc /= 0.95
            if conflicts >= budget:
                self._cancel_until(0)
                return SolveOutcome(SolveStatus.BUDGET_EXHAUSTED, None, conflicts)
            if conflicts_since_restart >= restart_limit:
                restart_count += 1
                restart_limit = 128 * _luby(restart_count + 1)
                conflicts_since_restart = 0
                self._cancel_until(0)


def _luby(i: int) -> int:
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


# A solver engine is anything built from a CnfFormula that offers the
# CdclSolver call surface: solve(assumptions, budget) -> SolveOutcome and
# enumerate_projected(proj, cap) -> rows.  External high-performance
# solvers can be plugged in by registering such a factory.
EngineFactory = Callable[[CnfFormula], "CdclSolver"]

ENGINES: dict[str, EngineFactory] = {"bundled": CdclSolver}


def engine_factory(name: str = "bundled") -> EngineFactory:
    """The ENGINES entry called name; ValueError for an unknown name."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown solver engine {name!r}; "
                         f"available: {sorted(ENGINES)}") from None


class ModelCapExceeded(RuntimeError):
    """Projected enumeration found more models than the caller's cap."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} projected models")
        self.cap = cap


def enumerate_models_projected(f: CnfFormula, proj: Iterable[int],
                               cap: int = 1 << 20,
                               engine: str = "bundled") -> list[tuple[int, ...]]:
    """All distinct models projected on proj, as tuples of signed literals.

    Rows are over sorted(set(proj)), found by one blocking-clause search of
    the engine (its enumerate_projected); intended for desk-scale formulas.
    Raises ModelCapExceeded instead of silently truncating.
    """
    proj_vars = sorted(set(proj))
    for v in proj_vars:
        if not 1 <= v <= f.num_vars:
            raise ValueError(f"projection variable {v} not allocated")
    return engine_factory(engine)(f).enumerate_projected(proj_vars, cap)


# ---- DIMACS ---------------------------------------------------------------


def write_dimacs(f: CnfFormula, fp: IO[str],
                 comments: Iterable[str] = (),
                 groups: Iterable[tuple[str, int, int]] = ()) -> None:
    """Write DIMACS CNF; group annotations become 'c group <label> <v> <v>'."""
    for text in comments:
        fp.write(f"c {text}\n")
    for label, v1, v2 in groups:
        fp.write(f"c group {label} {v1} {v2}\n")
    fp.write(f"p cnf {f.num_vars} {len(f.clauses)}\n")
    for clause in f.clauses:
        fp.write(" ".join(str(l) for l in clause) + " 0\n")


def read_dimacs(fp: IO[str]) -> tuple[CnfFormula, dict[str, tuple[int, int]]]:
    """Read DIMACS CNF, returning the formula and any 'c group' annotations."""
    groups: dict[str, tuple[int, int]] = {}
    num_vars = num_clauses = None
    tokens: list[str] = []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 5 and parts[1] == "group":
                groups[parts[2]] = (int(parts[3]), int(parts[4]))
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ValueError(f"line {lineno}: clause before problem line")
        tokens.extend(line.split())
    if num_vars is None:
        raise ValueError("missing problem line")
    f = CnfFormula(num_vars)
    clause: list[int] = []
    for tok in tokens:
        lit = int(tok)
        if lit == 0:
            f.add_clause(clause)
            clause = []
        else:
            clause.append(lit)
    if clause:
        raise ValueError("trailing clause not terminated by 0")
    if len(f.clauses) != num_clauses:
        raise ValueError(f"declared {num_clauses} clauses, found {len(f.clauses)}")
    return f, groups
