"""Single-variable definability queries against two linked formula copies.

The base formula conjoins the instance formula F with a renamed copy
(every variable, auxiliaries included, shifted by the original variable
count) and, per projected variable z, an indicator e_z whose assumption
forces z and its copy equal:

    base = F  and  F[renamed]  and  AND_z (e_z -> (z <-> z')).

Asking whether a candidate set C defines a target variable z is then one
incremental call: assume {e_c : c in C} plus z and -z'.  UNSAT means every
pair of models agreeing on C agrees on z; SAT hands back a witness pair.

The auxiliary variables are deliberately renamed as well: sharing the
cardinality-counter registers between the two copies can couple otherwise
independent models through counter state and turn satisfiable queries
unsatisfiable, which would be unsound here.

Witness-first scan.  The models of F projected on x/y are exactly the
failure sets S with |S| <= k, each as (x = S, y = N[S]), so a SAT answer
is two failure sets (F1, F2) that agree on C, z true for F1: the witness
`query` returns.  Before the engine is called, each query scans a pool of
every failure set of size at most min(k, 2), built on the first query;
each entry is its projected model as a bitmask over z_order.  Keyed by
their bits on C, the first key seen with both values of z's bit is a
witness (conflicts 0).  When k <= 2 the pool holds every failure set, so
a scan with no witness proves definability: UNSAT without an engine call,
and the conflict budget never applies.  For k > 2 a miss falls through to
the engine, built on the first miss, whose two copies' x bits give the
witness of a SAT model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .encoder import EncodedInstance
from .oracle import closed_masks, mask_to_set
from .satcore import CnfFormula, SolveStatus, engine_factory

Witness = tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class QueryAnswer:
    """One definability answer; witness (F1, F2) is present iff SAT."""

    status: SolveStatus
    witness: Witness | None
    conflicts_used: int

    def __post_init__(self):
        assert (self.witness is not None) == (self.status is SolveStatus.SAT)


class DefinabilityContext:
    """One shared incremental solver over the doubled formula.

    engine names the `satcore.ENGINES` entry that answers the queries the
    scan leaves open.  It is checked here but built on the first such
    query, so at k <= 2 no engine is ever built.
    """

    def __init__(self, inst: EncodedInstance, engine: str = "bundled"):
        f = inst.formula
        shift = f.num_vars
        z_order = inst.z_vars  # x_1..x_n then y_1..y_n

        base = CnfFormula()
        base.new_vars(2 * shift + len(z_order))
        for clause in f.clauses:
            base.add_clause(clause)
        for clause in f.clauses:
            base.add_clause([l + shift if l > 0 else l - shift for l in clause])
        indicators: dict[int, int] = {}
        for i, z in enumerate(z_order):
            e = 2 * shift + 1 + i
            indicators[z] = e
            zh = z + shift
            base.add_clause([-e, -z, zh])
            base.add_clause([-e, z, -zh])

        self.base = base
        self.z_order = z_order
        self.hat = {z: z + shift for z in z_order}
        self.indicators = indicators
        self._make_engine = engine_factory(engine)
        self._engine = None
        self._inst = inst
        self._bit = {z: 1 << i for i, z in enumerate(z_order)}
        self._pool: list[int] | None = None

    def query(self, defining: Iterable[int], target: int,
              budget: int | None = None) -> QueryAnswer:
        """Padoa-style check: is target functionally defined by `defining`?

        UNSAT: defined.  SAT: the witness holds two failure sets whose
        projected models agree on `defining`, target true for the first and
        false for the second.  BUDGET_EXHAUSTED: undetermined within the
        conflict budget.
        """
        defining = set(defining)
        if target not in self.indicators:
            raise ValueError(f"target variable {target} is not a projected variable")
        if target in defining:
            raise ValueError("target variable must not be in the defining set")
        bad = defining - self.indicators.keys()
        if bad:
            raise ValueError(f"defining variables {sorted(bad)} are not projected")
        if budget is not None and budget < 1:  # checked even if no engine call
            raise ValueError("budget must be >= 1")
        # witness-first: two pool entries equal on `defining`, unequal on target
        if self._pool is None:
            self._pool = self._failure_set_pool()
        dmask = sum(map(self._bit.__getitem__, defining))
        tbit = self._bit[target]
        seen: dict[int, int] = {}
        for code in self._pool:
            first = seen.setdefault(code & dmask, code)
            if (first ^ code) & tbit:
                if code & tbit:
                    first, code = code, first
                xmask = (1 << self._inst.graph.n) - 1
                return QueryAnswer(SolveStatus.SAT, (mask_to_set(first & xmask),
                                                     mask_to_set(code & xmask)), 0)
        if self._inst.k <= 2:  # the pool held every failure set
            return QueryAnswer(SolveStatus.UNSAT, None, 0)
        assumptions = [self.indicators[z] for z in self.z_order if z in defining]
        assumptions += [target, -self.hat[target]]
        if self._engine is None:
            self._engine = self._make_engine(self.base)
        out = self._engine.solve(assumptions, budget)
        witness = None
        if out.status is SolveStatus.SAT:  # copy 1 holds the target true
            m, x = out.model, self._inst.x
            witness = (frozenset(v for v, z in enumerate(x) if m[z]),
                       frozenset(v for v, z in enumerate(x) if m[self.hat[z]]))
        return QueryAnswer(out.status, witness, out.conflicts_used)

    def _failure_set_pool(self) -> list[int]:
        """Every failure set S, |S| <= min(k, 2), as its x/y bitmask.

        Bit i stands for z_order[i]: x_v is bit v and y_v is bit n + v.
        """
        g = self._inst.graph
        singles = [1 << v | m << g.n for v, m in enumerate(closed_masks(g))]
        pool = [0] + singles
        if self._inst.k >= 2:
            pool += [a | b for i, a in enumerate(singles) for b in singles[i + 1:]]
        return pool
