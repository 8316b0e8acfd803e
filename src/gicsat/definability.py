"""Single-variable definability queries, decided on the graph first.

The models of the instance formula F projected on x/y are the failure sets
S with |S| <= k, each as (x = S, y = N[S]).  With Dx and Dy the nodes whose
x and y variables are in the defining set D, a target is not defined by D
exactly when a witness exists: failure sets F1, F2, |Fi| <= k, that agree
on D (F1 and Dx = F2 and Dx, N[F1] and Dy = N[F2] and Dy), the target true
for F1 and false for F2.  `query` searches pairs of node sets for one:

- start, for x_v: ({v}, {}), and v may never join F2; for y_v: one start
  ({w}, {}) per w in N[v] outside Dx, and no node of N[v] may join F2;
- step: take the lowest u in Dy that only one side covers; with none, the
  pair is the witness.  Say F2 lacks u: each w in N[u] that may join F2
  joins it alone (if w is in F1 or outside Dx) or joins both sides (if w
  is outside F1); the roles swap when F1 lacks u.  No side passes k.

Any witness containing the pair holds some w in N[u] on the lacking side,
and one branch adds exactly that w, so a failed search proves definability.
Such answers have `layer` "graph".  A search that would visit more than
SEARCH_NODES pairs falls through to the "engine", built on the first such
query over the two-copy base formula: F, a copy F' that renames every
variable a (auxiliaries too, lest shared totalizer outputs couple the
copies) to a + t, t = F's variable count, and per projected variable z an
indicator e_z = 2t + z with e_z -> (z <-> z').  The engine assumes
{e_c : c in D}, z and -z'; a SAT model's two x copies give the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import lshift
from typing import Iterable

from .encoder import EncodedInstance
from .oracle import closed_masks, mask_to_set
from .satcore import CnfFormula, SolveStatus, engine_factory

Witness = tuple[frozenset[int], frozenset[int]]
LAYERS = ("graph", "engine")  # the witness sources
SEARCH_NODES = 1_000_000  # pairs one graph search may visit; 0: engine only


@dataclass(frozen=True)
class QueryAnswer:
    """One definability answer about target var; witness (F1, F2) iff SAT.

    layer, one of LAYERS, gave the answer; search_nodes counts search pairs.
    """

    var: int
    status: SolveStatus
    witness: Witness | None
    conflicts_used: int
    search_nodes: int
    layer: str

    def __post_init__(self):
        assert (self.witness is not None) == (self.status is SolveStatus.SAT)
        assert self.layer in LAYERS


class _OutOfNodes(Exception):
    """The graph search visited more than SEARCH_NODES pairs."""


class DefinabilityContext:
    """The graph search, and one shared incremental engine behind it.

    engine names the `satcore.ENGINES` entry for the search's fall-throughs,
    checked here and built on the first one.  The support run_gismo passes
    is kept as a node mask that `drop(v)` shrinks; a defining set equal to
    it minus the target's group is read from the mask, any other converted.
    """

    def __init__(self, inst: EncodedInstance, engine: str = "bundled"):
        g = inst.graph
        self._make_engine = engine_factory(engine)
        self._engine = None
        self._inst = inst
        self._closed = closed_masks(g)
        self._nbrs = [sorted((u, *g.adjacency[u])) for u in range(g.n)]
        self._support = set(inst.z_vars)
        self._kept = (1 << g.n) - 1  # the nodes whose group is in _support

    @cached_property
    def base(self) -> CnfFormula:
        """The two-copy formula the engine answers on."""
        f = self._inst.formula
        shift, nz = f.num_vars, 2 * self._inst.graph.n
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
        return base

    def drop(self, v: int) -> None:
        """Node v's group has left the support."""
        self._support.difference_update(self._inst.group_of(v))
        self._kept &= ~(1 << v)

    def query(self, defining: Iterable[int], target: int,
              budget: int | None = None) -> QueryAnswer:
        """Padoa-style check: is target functionally defined by `defining`?

        UNSAT: defined.  SAT: the witness holds two failure sets whose
        projected models agree on `defining`, target true for the first and
        false for the second.  BUDGET_EXHAUSTED: the graph search was too
        large and the engine ran out of its conflict budget.
        """
        defining = set(defining)
        n = self._inst.graph.n
        if not 1 <= target <= 2 * n:
            raise ValueError(f"target variable {target} is not a projected variable")
        if target in defining:
            raise ValueError("target variable must not be in the defining set")
        if defining and (min(defining) < 1 or max(defining) > 2 * n):
            bad = sorted(z for z in defining if not 1 <= z <= 2 * n)
            raise ValueError(f"defining variables {bad} are not projected")
        if budget is not None and budget < 1:  # checked even if no engine call
            raise ValueError("budget must be >= 1")
        v = (target - 1) % n
        partner = target + n if target <= n else target - n
        support = self._support
        if (target in support and partner in support and partner not in defining
                and len(defining) == len(support) - 2 and defining <= support):
            dx = dy = self._kept & ~(1 << v)
        else:  # bit z for variable z
            bits = sum(map(lshift, repeat(1), defining))
            dx, dy = bits >> 1 & (1 << n) - 1, bits >> n + 1
        nodes = [0]
        try:
            found = self._search(dx, dy, target, nodes)
        except _OutOfNodes:
            return self._solve(defining, target, budget, nodes[0])
        if found is not None:
            found = (mask_to_set(found[0]), mask_to_set(found[1]))
        return QueryAnswer(target, SolveStatus.UNSAT if found is None
                           else SolveStatus.SAT, found, 0, nodes[0], "graph")

    def _search(self, dx: int, dy: int, target: int,
                nodes: list[int]) -> tuple[int, int] | None:
        """The witness (F1, F2) as node masks, or None if there is none;
        nodes[0] counts the pairs visited, _OutOfNodes past SEARCH_NODES."""
        n, k = self._inst.graph.n, self._inst.k
        closed, nbrs = self._closed, self._nbrs
        limit = SEARCH_NODES
        if limit < 1:
            raise _OutOfNodes
        v = (target - 1) % n
        if target <= n:  # x_v
            starts, barred = [v], 1 << v
        else:  # y_v
            starts, barred = [w for w in nbrs[v] if not dx >> w & 1], closed[v]

        def step(f1, f2, n1, n2, c1, c2):
            # f: the side's nodes, n: their number, c: N[f], all as masks
            if nodes[0] == limit:
                raise _OutOfNodes
            nodes[0] += 1
            diff = (c1 ^ c2) & dy
            if not diff:
                return f1, f2
            u = (diff & -diff).bit_length() - 1
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
                    return found  # w joined the lacking side alone
                if not (other | barred) & bit and n1 < k and n2 < k and (
                        found := step(f1 | bit, f2 | bit, n1 + 1, n2 + 1,
                                      c1 | cw, c2 | cw)):
                    return found  # w joined both sides
            return None

        for w in starts:
            if found := step(1 << w, 0, 1, 0, closed[w], 0):
                return found
        return None

    def _solve(self, defining: set[int], target: int, budget: int | None,
               search_nodes: int) -> QueryAnswer:
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
                           search_nodes, "engine")
