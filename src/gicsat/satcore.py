"""CNF formulas and a bundled incremental SAT engine.

The engine is a conflict-driven clause-learning solver with two-literal
watching, binary implication lists, first-UIP learning, VSIDS-style
branching, phase saving and Luby restarts.  It is built once from a
CnfFormula, whose variable count fixes its size and whose clauses are its
database; after that its surface is solve(assumptions, budget) and
enumerate_projected(proj, cap).  Each solve call takes assumption literals
and a conflict budget, and learned clauses are kept across calls (they are
entailed by the clause database alone, never by assumptions, so reuse is
sound).  enumerate_projected lists every projected model in one search: it
decides the projected variables first, each one true, so that the
decisions on them imply the whole projected row, and blocks each model by
the negation of those decisions alone.  A blocking clause takes the one
path that a learned clause takes (CdclSolver._add_asserting): the search
backjumps to the level of the clause's second literal and asserts its
first, with no conflict analysis per model.  A cursor per decision
level finds the next projected variable to decide without rescanning the
ones that the levels below already assigned.  solve and
enumerate_projected share one CDCL loop (CdclSolver._search).

Per-literal state lives in flat lists indexed by the signed literal itself
(see CdclSolver).  A two-literal clause, original, learned or blocking, is
kept off the watch lists: each of its literals lists the other one with
the clause id, and unit propagation walks these implication lists before
the watch lists of each literal it dequeues.

Everything here is deterministic: no randomness, stable tie-breaking by
variable index, insertion-ordered containers only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
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


def check_model(f: CnfFormula, model: Sequence[bool]) -> bool:
    """Direct evaluation of a full assignment against every clause."""
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in f.clauses)


class CdclSolver:
    """Bundled CDCL engine; one instance is one single-threaded context.

    `value[lit]` (True, False or None), `watches[lit]` and `bins[lit]` have
    2n+1 slots indexed by the signed literal: `-v` is slot 2n+1-v, slot 0 is
    unused.  `level`, `reason`, `activity`, `phase` and `in_heap` are indexed
    by the variable; `reason[v]` is meaningful only while v is assigned.

    A clause of three or more literals is watched by its first two:
    `watches[lit]` lists the ids of the clauses that watch lit.  A
    two-literal clause [a, b] is in no watch list: `bins[a]` holds (b, ci)
    and `bins[b]` holds (a, ci), so when a becomes false b is implied from
    a's list alone.  Every clause, binary or not, stays in `clauses` under
    its id.

    The branching heap holds (-activity, v) entries and is pruned lazily.
    `in_heap[v]` is the activity of v's one live entry, None when v has
    none; any other entry of v is stale and skipped when popped.  Every
    unassigned variable has its live entry at its current activity, so the
    branch variable is the unassigned one of highest activity, lowest index
    first among equals.  Backtracking rebuilds the heap from the live
    entries once it holds more than 2n entries.

    `cursor[lvl]` is where the search's scan of its decision order stood
    at decision level lvl; see _search.

    `decisions` (branch variables picked; assumption levels are not
    counted) and `propagations` (literals dequeued by unit propagation) are
    cumulative over the solver's life.
    """

    def __init__(self, formula: CnfFormula):
        n = self.num_vars = formula.num_vars
        self.clauses: list[list[int] | None] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.bins: list[list[tuple[int, int]]] = [[] for _ in range(2 * n + 1)]
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
        self.cursor: list[int] = [0]
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
        a, b = clause[0], clause[1]
        if len(clause) == 2:
            self.bins[a].append((b, ci))
            self.bins[b].append((a, ci))
        else:
            self.watches[a].append(ci)
            self.watches[b].append(ci)
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
        value, phase, trail = self.value, self.phase, self.trail
        heap, activity, in_heap = self.heap, self.activity, self.in_heap
        for lit in trail[lim:]:
            value[lit] = value[-lit] = None
            if lit > 0:
                v = lit
                phase[v] = True
            else:
                v = -lit
                phase[v] = False
            act = activity[v]
            if in_heap[v] != act:
                heappush(heap, (-act, v))
                in_heap[v] = act
        del trail[lim:]
        del self.trail_lim[lvl:]
        del self.cursor[lvl + 1:]
        self.qhead = min(self.qhead, lim)
        if len(heap) > 2 * self.num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Shed the stale entries: one entry per in_heap key that is set."""
        heap = self.heap
        heap[:] = [(-act, v) for v, act in enumerate(self.in_heap)
                   if act is not None]
        heapify(heap)

    # ---- propagation ---------------------------------------------------

    def _propagate(self) -> int | None:
        """Run unit propagation to fixpoint; the conflict clause id, if any."""
        clauses, value, watches, bins = (self.clauses, self.value,
                                         self.watches, self.bins)
        level, reason, trail = self.level, self.reason, self.trail
        lvl = len(self.trail_lim)
        qhead = self.qhead
        for p in islice(trail, qhead, None):  # reaches literals appended below
            neg = -p
            qhead += 1
            for other, ci in bins[neg]:
                ov = value[other]
                if ov:
                    continue
                if ov is False:
                    self.propagations += qhead - self.qhead
                    self.qhead = qhead
                    return ci
                value[other] = True  # as _enqueue(other, ci)
                value[-other] = False
                v = other if other > 0 else -other
                level[v] = lvl
                reason[v] = ci
                trail.append(other)
            ws = watches[neg]
            if not ws:
                continue
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
        self._rebuild_heap()

    def _analyze(self, confl: int) -> list[int]:
        """First-UIP learning, resolving each reason on p wherever p stands in it.

        The learned clause leads with the asserting literal; a longer one
        has a literal of the backjump level second.
        """
        trail, level, reason, seen = self.trail, self.level, self.reason, self.seen
        clauses, activity, var_inc = self.clauses, self.activity, self.var_inc
        learnt: list[int] = [0]
        cur_level = len(self.trail_lim)
        counter = 0
        p = 0
        index = len(trail) - 1
        c = clauses[confl]
        while True:
            assert c is not None
            for q in c:
                v = abs(q)
                if q != p and not seen[v] and level[v] > 0:
                    seen[v] = 1
                    act = activity[v] + var_inc  # VSIDS bump
                    activity[v] = act
                    if act > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
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
        if len(learnt) > 1:
            # watch the asserting literal and a literal from the backjump level
            best = max(range(1, len(learnt)),
                       key=lambda pos: level[abs(learnt[pos])])
            learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt

    def _add_asserting(self, clause: list[int], learned: bool) -> None:
        """Backjump to the level of clause[1] (the root for a unit), attach
        the clause and assert clause[0], the one literal above that level.

        This is the one path for a learned clause and for the blocking
        clause of a projected model, which counts as original, so that
        _reduce_db never deletes it; an empty blocking clause makes the
        database UNSAT.
        """
        if not learned:
            self.num_original += 1
        if not clause:
            self.ok = False
        elif len(clause) == 1:
            self._cancel_until(0)
            self._enqueue(clause[0], None)
        else:
            self._cancel_until(self.level[abs(clause[1])])
            ci = self._attach(clause)
            if learned:
                self.learned_ids.append(ci)
            self._enqueue(clause[0], ci)

    def _reduce_db(self) -> None:
        """Past max(2000, 2 x originals) learned clauses, delete half: the
        longest first, oldest first among equals; binaries and reasons stay."""
        learned, clauses = self.learned_ids, self.clauses
        if len(learned) <= max(2000, 2 * self.num_original):
            return
        reasons = {self.reason[abs(l)] for l in self.trail}
        doomed = sorted((ci for ci in learned
                         if len(clauses[ci]) > 2 and ci not in reasons),
                        key=lambda ci: (-len(clauses[ci]), ci))
        for ci in doomed[:len(learned) // 2]:
            clauses[ci] = None
        self.learned_ids = [ci for ci in learned if clauses[ci] is not None]

    # ---- decisions -------------------------------------------------------

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity; one must exist."""
        heap, value, in_heap = self.heap, self.value, self.in_heap
        while True:
            na, v = heappop(heap)
            if -na == in_heap[v]:  # v's live entry: it leaves the heap
                in_heap[v] = None
                if value[v] is None:
                    return v

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
        return self._search(assumptions, budget, (), None)

    def enumerate_projected(self, proj: Sequence[int],
                            cap: int) -> list[tuple[int, ...]]:
        """Every model of the clause database projected on proj, in one search.

        proj must hold distinct allocated variables (ValueError otherwise);
        each row lists their literals in proj's order.  The search decides
        the projected variables first, in proj's order and each one true,
        and only then lets VSIDS pick.  So at a model, unit propagation from the decisions
        on projected variables implies every projected literal, and the
        negation of those decisions alone blocks exactly this row.  Listed
        highest level first, that clause asserts its first literal
        (_add_asserting), with no conflict analysis.  Blocking clauses stay
        in the database, so the engine ends UNSAT.  Raises ModelCapExceeded
        on model number cap + 1.
        """
        for v in proj:
            if not 1 <= v <= self.num_vars:
                raise ValueError(f"projection variable {v} not allocated")
        projected = set(proj)
        if len(projected) != len(proj):
            raise ValueError(f"projection {list(proj)} repeats a variable")
        value, trail, trail_lim = self.value, self.trail, self.trail_lim
        signed = [(v, -v) for v in proj]  # every row shares these int objects
        rows: list[tuple[int, ...]] = []

        def block_model() -> None:
            if len(rows) >= cap:
                raise ModelCapExceeded(cap)
            rows.append(tuple([v if value[v] else nv for v, nv in signed]))
            self._add_asserting([-trail[lim] for lim in reversed(trail_lim)
                                 if abs(trail[lim]) in projected],
                                learned=False)

        self._search((), _NO_BUDGET, proj, block_model)
        return rows

    def _search(self, assumptions: Sequence[int], budget: int,
                order: Sequence[int],
                on_model: Callable[[], None] | None) -> SolveOutcome:
        """The CDCL loop of solve and enumerate_projected.

        Past the assumptions, the search decides the first unassigned
        variable of order, true, and lets VSIDS pick only once order is all
        assigned.  It finds that variable from a cursor, not by a scan of
        all of order: cursor[lvl] is the order position found by the scan
        at decision level lvl, and every position before it is assigned at
        level lvl or below.  So the scan at a level starts where the one
        below it stopped, and _cancel_until(lvl) keeps cursor[:lvl + 1].
        Only enumerate_projected passes an order, and it passes no
        assumptions, so every level has its scan and the list stays indexed
        by level; solve's empty order leaves each entry 0.

        With on_model None the first model ends the search.  Otherwise
        on_model is called at each model; it blocks the model and asserts a
        literal or makes the database UNSAT, and the search goes on until
        UNSAT.
        """
        self._cancel_until(0)
        if not self.ok:
            return SolveOutcome(SolveStatus.UNSAT, None, 0)
        cursor = self.cursor = [0]
        value = self.value

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
                if next_lit == 0 and len(self.trail) < self.num_vars:
                    lvl = len(self.trail_lim)
                    i = cursor[-1]
                    while i < len(order) and value[order[i]] is not None:
                        i += 1
                    cursor[lvl:] = (i,)
                    if i < len(order):
                        next_lit = order[i]
                    else:
                        v = self._pick_branch_var()
                        next_lit = v if self.phase[v] else -v
                    self.decisions += 1
                if next_lit:
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(next_lit, None)
                    continue
                if on_model is None:
                    model = [bool(val) for val in self.value[:self.num_vars + 1]]
                    self._cancel_until(0)
                    return SolveOutcome(SolveStatus.SAT, model, conflicts)
                on_model()
                if not self.ok:
                    return SolveOutcome(SolveStatus.UNSAT, None, conflicts)
                continue

            conflicts += 1
            conflicts_since_restart += 1
            if not self.trail_lim:
                self.ok = False
                return SolveOutcome(SolveStatus.UNSAT, None, conflicts)
            self._add_asserting(self._analyze(confl), learned=True)
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
    return engine_factory(engine)(f).enumerate_projected(sorted(set(proj)), cap)


# ---- DIMACS ---------------------------------------------------------------


def write_dimacs(f: CnfFormula, fp: IO[str],
                 comments: Iterable[str] = (),
                 groups: Iterable[tuple[str, int, int]] = ()) -> None:
    """Write DIMACS CNF; group annotations become 'c group <label> <v> <v>'.

    Each line of a comment is a 'c' line of its own.
    """
    for text in comments:
        for line in text.splitlines() or [""]:
            fp.write(f"c {line}\n")
    for label, v1, v2 in groups:
        fp.write(f"c group {label} {v1} {v2}\n")
    fp.write(f"p cnf {f.num_vars} {len(f.clauses)}\n")
    for clause in f.clauses:
        fp.write(" ".join(str(l) for l in clause) + " 0\n")
