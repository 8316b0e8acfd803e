"""Single-variable definability queries, decided on the graph first.

The models of the instance formula F projected on x/y are the failure sets
S with |S| <= k, each as (x = S, y = N[S]).  With Dx and Dy the nodes whose
x and y variables are in the defining set D, a target is not defined by D
exactly when a witness exists: failure sets F1, F2, |Fi| <= k, that agree
on D (F1 and Dx = F2 and Dx, N[F1] and Dy = N[F2] and Dy), the target true
for F1 and false for F2.  `query` searches pairs of node sets for one:

- start: the target z is true for F exactly when F meets O(z), with
  O(x_v) = {v} and O(y_v) = N[v].  One start ({w}, {}) per w in O(z)
  outside Dx; no node of O(z) may join F2, and a start w that failed may
  not join F1 in the later starts;
- step: a side with k nodes that lacks any Dy node the other side covers
  ends the branch.  Else take the u in Dy that only one side covers with
  the fewest neighbours, the lowest such u on a tie; with none, the pair
  is the witness.  Say F2 lacks u: each w in N[u] that may join F2 gets
  one branch, joining F2 alone if w is in F1 or outside Dx, else both
  sides; once it fails, w may not join F2 in the later branches.  The
  roles swap when F1 lacks u.  No side passes k.  Of the pair found,
  the true F1 is the side that meets O(z): F2 starts barred from O(z),
  the bars swap with the sides, and no branch adds a barred node.

Any u that only one side covers will do: the lacking side of any witness
containing the pair must gain some w in N[u] to cover u, and the fewest
neighbours give the fewest branches.  So the witness has a first node w of
N[u] on the lacking side, and w's branch lies inside it: a witness that
holds w in Dx on one side holds it on both.  No earlier sibling is on that
side of the witness, so the bars hold for it, and a full side can never
cover u.  The same goes for the first w of O(z) in F1 among the starts.
So a failed search proves definability, and as only subtrees without a
witness are cut, the depth-first search meets the same first witness as
one that branches on the same u but also tries every w of N[u] on both
sides and bars nothing.
Such answers have `layer` "graph".  A search that would visit more than
SEARCH_NODES pairs falls through to the "engine", built on the first such
query over the two-copy base formula: F, a copy F' that renames every
variable a (auxiliaries too, lest shared totalizer outputs couple the
copies) to a + t, t = F's variable count, and per projected variable z an
indicator e_z = 2t + z with e_z -> (z <-> z').  The engine assumes
{e_c : c in D}, z and -z'; a SAT model's two x copies give the witness.

A greedy run's support lives in its context as `support`, changed only by
`drop(v)` and `keep(v)`; a query with D = `support` reads its node mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import lshift
from typing import Iterable

from .encoder import EncodedInstance
from .graph import mask_to_set
from .satcore import CnfFormula, SolveStatus, engine_factory

Witness = tuple[frozenset[int], frozenset[int]]
LAYERS = ("graph", "engine")  # the witness sources
SEARCH_NODES = 1_000_000  # pairs one graph search may visit; 0: the engine
# answers every query that has a start


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
    """The graph search on `inst`, and one shared incremental engine behind it.

    engine names the `satcore.ENGINES` entry for the search's fall-throughs,
    checked here and built on the first one.  `support`, the projected
    variables of the groups not dropped, and its node mask change only by
    `drop(v)` and `keep(v)`, which take v's group out and put it back; a
    query on `support` itself reads the mask, any other set is converted.
    """

    def __init__(self, inst: EncodedInstance, engine: str = "bundled"):
        g = inst.graph
        self._make_engine = engine_factory(engine)
        self._engine = None
        self.inst = inst
        by_size = {}  # |N[u]| -> the mask of such nodes u
        for u, nb in enumerate(g.closed):
            by_size[len(nb)] = by_size.get(len(nb), 0) | 1 << u
        self._size_classes = [by_size[s] for s in sorted(by_size)]
        self.support = set(inst.z_vars)
        self._kept = (1 << g.n) - 1  # the nodes whose group is in support

    @cached_property
    def base(self) -> CnfFormula:
        """The two-copy formula the engine answers on."""
        f = self.inst.formula
        shift, nz = f.num_vars, 2 * self.inst.graph.n
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
        """Take node v's group out of the support."""
        self.support.difference_update(self.inst.group_of(v))
        self._kept &= ~(1 << v)

    def keep(self, v: int) -> None:
        """Put node v's group back into the support."""
        self.support.update(self.inst.group_of(v))
        self._kept |= 1 << v

    def query(self, defining: Iterable[int], target: int,
              budget: int | None = None) -> QueryAnswer:
        """Padoa-style check: is target functionally defined by `defining`?

        UNSAT: defined.  SAT: the witness holds two failure sets whose
        projected models agree on `defining`, target true for the first and
        false for the second.  BUDGET_EXHAUSTED: the graph search was too
        large and the engine ran out of its conflict budget.
        """
        n = self.inst.graph.n
        if not 1 <= target <= 2 * n:
            raise ValueError(f"target variable {target} is not a projected variable")
        if defining is self.support:  # the mask holds exactly its nodes
            dx = dy = self._kept
        else:
            defining = set(defining)
            if bad := sorted(z for z in defining if not 1 <= z <= 2 * n):
                raise ValueError(f"defining variables {bad} are not projected")
            bits = sum(map(lshift, repeat(1), defining))  # bit z for variable z
            dx, dy = bits >> 1 & (1 << n) - 1, bits >> n + 1
        if target in defining:
            raise ValueError("target variable must not be in the defining set")
        if budget is not None and budget < 1:  # checked even if no engine call
            raise ValueError("budget must be >= 1")
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
        g, k = self.inst.graph, self.inst.k
        n, closed, nbrs, classes = g.n, g.closed_masks, g.closed, self._size_classes
        limit = SEARCH_NODES

        def step(f1, f2, n1, n2, c1, c2, b1, b2):
            # f: the side's nodes, n: their number, c: N[f], b: the nodes
            # barred from it, all as masks; the sides may come back swapped
            if nodes[0] == limit:
                raise _OutOfNodes
            nodes[0] += 1
            only1, only2 = c1 & ~c2 & dy, c2 & ~c1 & dy
            if n2 == k and only1 or n1 == k and only2:
                return None  # a full side lacks a differing node
            diff = only1 | only2
            if not diff:
                return f1, f2
            for m in classes:  # u: in the first size class diff meets
                if diff & m:
                    diff &= m
                    break
            u = (diff & -diff).bit_length() - 1
            if only2 >> u & 1:  # side 1 lacks u: swap so that side 2 does
                f1, f2, n1, n2, c1, c2, b1, b2 = f2, f1, n2, n1, c2, c1, b2, b1
            for w in nbrs[u]:
                bit, cw = 1 << w, closed[w]
                if b2 & bit:
                    continue
                if f1 & bit or not dx & bit:  # w joins side 2 alone
                    found = step(f1, f2 | bit, n1, n2 + 1, c1, c2 | cw, b1, b2)
                elif n1 < k and not b1 & bit:  # w joins both sides
                    found = step(f1 | bit, f2 | bit, n1 + 1, n2 + 1,
                                 c1 | cw, c2 | cw, b1, b2)
                else:
                    continue
                if found:
                    return found
                b2 |= bit  # that branch held every witness with w on side 2
            return None

        v = (target - 1) % n
        # own: O(target), barred from F2; the side of the witness that meets it is F1
        own, starts = (1 << v, [v]) if target <= n else (closed[v], nbrs[v])
        barred = 0  # the failed starts, barred from F1
        for w in starts:
            if not dx >> w & 1:
                if found := step(1 << w, 0, 1, 0, closed[w], 0, barred, own):
                    return found if found[0] & own else found[::-1]
                barred |= 1 << w
        return None

    def _solve(self, defining: set[int], target: int, budget: int | None,
               search_nodes: int) -> QueryAnswer:
        """One engine call on the base, built on the first call."""
        shift = self.inst.formula.num_vars
        assumptions = [2 * shift + z for z in sorted(defining)]
        assumptions += [target, -target - shift]
        if self._engine is None:
            self._engine = self._make_engine(self.base)
        out = self._engine.solve(assumptions, budget)
        witness = None
        if out.status is SolveStatus.SAT:  # copy 1 holds the target true
            m, x = out.model, self.inst.x
            witness = (frozenset(v for v, z in enumerate(x) if m[z]),
                       frozenset(v for v, z in enumerate(x) if m[z + shift]))
        return QueryAnswer(target, out.status, witness, out.conflicts_used,
                           search_nodes, "engine")
