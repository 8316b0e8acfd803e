"""Single-variable definability queries against two linked formula copies.

The base formula has 2t + 2n variables.  It conjoins the instance formula
F, whose t variables start with the projected ones z = 1..2n (x_v = v + 1,
y_v = n + v + 1), with a copy F' that renames each variable a, auxiliaries
included, to a' = a + t, and with an indicator e_z = 2t + z per projected
variable z, whose assumption forces z and z' equal.  The context computes
these indices; it keeps no map of them:

    base = F  and  F'  and  AND_z (e_z -> (z <-> z')).

Asking whether a candidate set C defines a target variable z is then one
incremental call: assume {e_c : c in C} plus z and -z'.  UNSAT means every
pair of models agreeing on C agrees on z; SAT hands back a witness pair.

The auxiliary variables are deliberately renamed as well: sharing the
cardinality totalizer's outputs between the two copies can couple otherwise
independent models through those outputs and turn satisfiable queries
unsatisfiable, which would be unsound here.

Two regimes.  The models of F projected on x/y are exactly the failure
sets S with |S| <= k, each as (x = S, y = N[S]), so a SAT answer is two
failure sets (F1, F2) that agree on C, z true for F1: the witness `query`
returns.  `query` tests k once, and the answer's `layer` names the source
that gave it:

- k <= 2, "scan": a pool of every failure set, built on the first query;
  each entry is its projected model as a bitmask with bit z for variable
  z.  Keyed by their bits on C, the first key seen with both values of
  z's bit is a witness; a scan with no witness proves definability.
  Either way conflicts are 0 and the conflict budget never applies.
- k > 2, "forced" first: target x_v, where some A with v not in A and
  |A| <= k - 1 dominates N(v).  (A + v, A) differ on x_v, on y_v iff v
  is outside N[A], and nowhere else, so they are a witness (conflicts 0)
  unless y_v is in C and v outside N[A].  Such an A exists exactly when v
  is in every valid placement.  Every other query goes to the "engine":
  the query above, on an engine built on the first call; the two copies'
  x bits give the witness of a SAT model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import lshift
from typing import Iterable

from .encoder import EncodedInstance
from .oracle import closed_masks, mask_to_set
from .satcore import CnfFormula, SolveStatus, engine_factory

Witness = tuple[frozenset[int], frozenset[int]]
LAYERS = ("forced", "scan", "engine")  # the witness sources


@dataclass(frozen=True)
class QueryAnswer:
    """One definability answer about target var; witness (F1, F2) iff SAT.

    layer names the source that gave the answer, one of LAYERS.
    """

    var: int
    status: SolveStatus
    witness: Witness | None
    conflicts_used: int
    layer: str

    def __post_init__(self):
        assert (self.witness is not None) == (self.status is SolveStatus.SAT)
        assert self.layer in LAYERS


class DefinabilityContext:
    """One shared incremental solver over the doubled formula.

    engine names the `satcore.ENGINES` entry that answers the k > 2
    queries the forced rule leaves open.  It is checked here but built on
    the first such query, so at k <= 2 no engine is ever built.
    """

    def __init__(self, inst: EncodedInstance, engine: str = "bundled"):
        f = inst.formula
        shift, nz = f.num_vars, 2 * inst.graph.n
        base = CnfFormula(2 * shift + nz)
        # F's clauses are already normalised, so they are copied, not re-added
        clauses = base.clauses
        clauses.extend(clause[:] for clause in f.clauses)
        clauses.extend([l + shift if l > 0 else l - shift for l in clause]
                       for clause in f.clauses)
        for z in range(1, nz + 1):
            e = 2 * shift + z
            clauses.append([-e, -z, z + shift])
            clauses.append([-e, z, -z - shift])

        self.base = base
        self._make_engine = engine_factory(engine)
        self._engine = None
        self._inst = inst
        self._pool: list[int] | None = None
        self._closed: list[int] | None = None

    def query(self, defining: Iterable[int], target: int,
              budget: int | None = None) -> QueryAnswer:
        """Padoa-style check: is target functionally defined by `defining`?

        UNSAT: defined.  SAT: the witness holds two failure sets whose
        projected models agree on `defining`, target true for the first and
        false for the second.  BUDGET_EXHAUSTED: undetermined within the
        conflict budget.
        """
        defining = set(defining)
        nz = 2 * self._inst.graph.n
        if not 1 <= target <= nz:
            raise ValueError(f"target variable {target} is not a projected variable")
        if target in defining:
            raise ValueError("target variable must not be in the defining set")
        if defining and (min(defining) < 1 or max(defining) > nz):
            bad = sorted(z for z in defining if not 1 <= z <= nz)
            raise ValueError(f"defining variables {bad} are not projected")
        if budget is not None and budget < 1:  # checked even if no engine call
            raise ValueError("budget must be >= 1")
        if self._inst.k <= 2:
            return self._scan(defining, target)
        return (self._forced(defining, target)
                or self._solve(defining, target, budget))

    def _forced(self, defining: set[int], target: int) -> QueryAnswer | None:
        """Target x_v of a graph-forced node v.

        A set A with v not in A, |A| <= k - 1 and N(v) within N[A] makes
        (A + v, A) differ on x_v, on y_v iff v is outside N[A], and nowhere
        else.  It is a witness unless y_v is in `defining` and v outside N[A].
        """
        v = target - 1  # x_v = v + 1
        if v >= self._inst.graph.n:
            return None
        a = self._dominator(v)
        if a is None or (self._inst.y[v] in defining
                         and not a & self._closed[v]):
            return None
        return QueryAnswer(target, SolveStatus.SAT,
                           (mask_to_set(a | 1 << v), mask_to_set(a)), 0, "forced")

    def _dominator(self, v: int) -> int | None:
        """The first A found (a node mask) with v not in A, |A| <= k - 1 and
        N(v) within N[A], or None if there is none.

        The search branches on the lowest neighbour u of v that A leaves
        uncovered, over w in N[u] - v, so it visits O(deg^(k-1)) sets.
        """
        g = self._inst.graph
        if self._closed is None:
            self._closed = closed_masks(g)
        closed = self._closed
        nv = closed[v] & ~(1 << v)

        def extend(a: int, covered: int, depth: int) -> int | None:
            uncovered = nv & ~covered
            if not uncovered:
                return a
            if depth == 0:
                return None
            u = (uncovered & -uncovered).bit_length() - 1
            for w in sorted((u, *g.adjacency[u])):
                if w != v:
                    found = extend(a | 1 << w, covered | closed[w], depth - 1)
                    if found is not None:
                        return found
            return None

        return extend(0, 0, self._inst.k - 1)

    def _scan(self, defining: set[int], target: int) -> QueryAnswer:
        """Two pool entries equal on `defining`, unequal on target, or
        UNSAT if there are none: the pool holds every failure set."""
        if self._pool is None:
            self._pool = self._failure_set_pool()
        dmask = sum(map(lshift, repeat(1), defining))
        tbit = 1 << target
        seen: dict[int, int] = {}
        for code in self._pool:
            first = seen.setdefault(code & dmask, code)
            if (first ^ code) & tbit:
                if code & tbit:
                    first, code = code, first
                xmask = (1 << self._inst.graph.n) - 1
                return QueryAnswer(target, SolveStatus.SAT,
                                   (mask_to_set((first >> 1) & xmask),
                                    mask_to_set((code >> 1) & xmask)), 0, "scan")
        return QueryAnswer(target, SolveStatus.UNSAT, None, 0, "scan")

    def _solve(self, defining: set[int], target: int,
               budget: int | None) -> QueryAnswer:
        """One engine call on the base, built on the first call."""
        shift = self._inst.formula.num_vars
        assumptions = [2 * shift + z for z in sorted(defining)]
        assumptions += [target, -target - shift]
        if self._engine is None:
            self._engine = self._make_engine(self.base)
        out = self._engine.solve(assumptions, budget)
        witness = None
        if out.status is SolveStatus.SAT:  # copy 1 holds the target true
            m, x = out.model, self._inst.x
            witness = (frozenset(v for v, z in enumerate(x) if m[z]),
                       frozenset(v for v, z in enumerate(x) if m[z + shift]))
        return QueryAnswer(target, out.status, witness, out.conflicts_used,
                           "engine")

    def _failure_set_pool(self) -> list[int]:
        """Each failure set S, |S| <= k <= 2, as a mask whose bit z is z's value."""
        g = self._inst.graph
        singles = [2 << v | m << (g.n + 1) for v, m in enumerate(closed_masks(g))]
        pool = [0] + singles
        if self._inst.k == 2:
            pool += [a | b for i, a in enumerate(singles) for b in singles[i + 1:]]
        return pool
