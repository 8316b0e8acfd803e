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
"""

from __future__ import annotations

from typing import Iterable

from .encoder import EncodedInstance
from .satcore import CnfFormula, SolveOutcome, make_engine


class DefinabilityContext:
    """One shared incremental solver over the doubled formula.

    engine names the `satcore.ENGINES` entry that answers every query.
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
        self.hat_aux = [a + shift for a in inst.aux]
        self.indicators = indicators
        self._engine = make_engine(base, engine)

    def query(self, defining: Iterable[int], target: int,
              budget: int | None = None) -> SolveOutcome:
        """Padoa-style check: is target functionally defined by `defining`?

        UNSAT: defined.  SAT: two models agree on `defining` but differ on
        target.  BUDGET_EXHAUSTED: undetermined within the conflict budget.
        """
        defining = set(defining)
        if target not in self.indicators:
            raise ValueError(f"target variable {target} is not a projected variable")
        if target in defining:
            raise ValueError("target variable must not be in the defining set")
        bad = defining - self.indicators.keys()
        if bad:
            raise ValueError(f"defining variables {sorted(bad)} are not projected")
        assumptions = [self.indicators[z] for z in self.z_order if z in defining]
        assumptions += [target, -self.hat[target]]
        return self._engine.solve(assumptions, budget)
