"""CNF encoding of the failure-detection instance.

For a graph on n nodes and a failure bound k, the formula speaks about
x_v (node v fails at t0) and y_v (a sensor at v would be red at t1):

  * detection: y_v  <->  OR_{u in N1+(v)} x_u, clausified as one long
    clause (-y_v, x_u ...) plus one binary (-x_u, y_v) per neighbor;
  * cardinality: sum x_v <= k, as a totalizer over x in index order,
    with upward and overflow clauses and one r_1 clause per inner node
    (r_1 <-> a_1 or b_1), so that propagation counts an all-false subtree
    as zero.

Variable numbering is deterministic: x_1..x_n, then y_1..y_n, then the
totalizer's outputs.  Each node owns the two-variable group {x_v, y_v};
auxiliaries belong to no group and never enter a projection set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .graph import Graph
from .satcore import CnfFormula


@dataclass(frozen=True)
class EncodedInstance:
    """The formula and its variable layout.

    x[v] and y[v] are node v's variables and form its group {x_v, y_v};
    aux holds the totalizer's outputs, which belong to no group.
    """

    graph: Graph
    k: int
    formula: CnfFormula
    x: tuple[int, ...]
    y: tuple[int, ...]
    aux: tuple[int, ...]
    detection_clauses: int
    cardinality_clauses: int

    def group_of(self, v: int) -> tuple[int, int]:
        return self.x[v], self.y[v]

    @property
    def z_vars(self) -> tuple[int, ...]:
        """The projection set, ascending: x is 1..n and y is n+1..2n."""
        return self.x + self.y


def encode_detection(g: Graph, x: Sequence[int],
                     y: Sequence[int]) -> list[list[int]]:
    """Detection clauses: for each v, y_v <-> OR_{u in N1+(v)} x_u."""
    clauses: list[list[int]] = []
    for v, closed in enumerate(g.closed):
        clauses.append([-y[v]] + [x[u] for u in closed])
        clauses.extend([-x[u], y[v]] for u in closed)
    return clauses


def encode_cardinality(vars_: Sequence[int], k: int,
                       fresh: Callable[[], int]) -> tuple[list[list[int]], list[int]]:
    """Totalizer encoding of sum(vars_) <= k (Bailleux & Boufkhad, CP 2003).

    A balanced binary tree splits vars_ in index order; a leaf's one output
    is its input.  An inner node over s inputs has outputs r_1..r_min(s, k),
    r_j reading "at least j inputs of this subtree are true", and from its
    children's outputs a_i, b_j (a_0 and b_0 meaning true) takes three
    kinds of clause: the upward clauses (-a_i, -b_j, r_(i+j)) for
    1 <= i+j <= min(s, k), the overflow clauses (-a_i, -b_j) for
    i+j == k+1, and one r_1 clause (-r_1, a_1, b_1).  The root has no
    outputs, only its overflow clauses.  Any input assignment with at most
    k true inputs extends to a satisfying output assignment, each output
    set to its subtree's exact count, so the r_1 clauses admit no fewer
    input assignments.  Unit propagation alone sets every other input
    false once k inputs are true, and, with the r_1 clauses, sets r_1 of
    every subtree to the OR of its inputs once they are all assigned, so
    an all-false subtree counts zero without a decision.  A true input
    climbs a path of depth about log2(n), not a chain through every later
    input.  Of the downward clauses (r_j -> a_i or b_(j-i)) only this one
    per node is kept: the full set costs encode time for little more
    propagation.  Auxiliaries are allocated children first, so the layout
    is deterministic; see cardinality_clause_count and cardinality_aux_count
    for the sizes.  Returns (clauses, auxiliary vars); both are empty when
    k == len(vars_), the constraint being vacuous.
    """
    n = len(vars_)
    if not 1 <= k <= n:
        raise ValueError(f"cardinality bound k={k} out of range 1..{n}")
    if k == n:
        return [], []
    clauses: list[list[int]] = []
    aux: list[int] = []

    def outputs(lo: int, hi: int, root: bool = False) -> list[int]:
        if hi - lo == 1:
            return [vars_[lo]]
        mid = (lo + hi) // 2
        a, b = outputs(lo, mid), outputs(mid, hi)
        r = [] if root else [fresh() for _ in range(min(hi - lo, k))]
        aux.extend(r)
        for i in range(len(a) + 1):
            left = [-a[i - 1]] if i else []
            for j in range(len(b) + 1):
                if 0 < i + j <= len(r):
                    clauses.append(left + [-b[j - 1], r[i + j - 1]] if j
                                   else left + [r[i - 1]])
                elif i + j == k + 1:  # i, j >= 1: no child counts past k
                    clauses.append(left + [-b[j - 1]])
        if r:  # r_1 -> a_1 or b_1: a subtree of false inputs counts zero
            clauses.append([-r[0], a[0], b[0]])
        return r

    outputs(0, n, root=True)
    return clauses, aux


def _totalizer_size(n: int, k: int) -> tuple[int, int]:
    """(clauses, auxiliaries) of encode_cardinality for n > k inputs.

    With p, q a node's children's output counts and e = max(0, p+q-k) its
    pairs i+j == k+1 (the overflow clauses), an inner node's upward clauses
    are its (p+1)(q+1) - 1 pairs minus the e(e+1)/2 with i+j > min(s, k).
    Every inner node but the root adds one r_1 clause.
    """
    @lru_cache(maxsize=None)  # the balanced split has <= 2 sizes per level
    def size(s: int, root: bool = False) -> tuple[int, int]:
        if s == 1:
            return 0, 0
        left, right = s // 2, s - s // 2
        p, q = min(left, k), min(right, k)
        e = max(0, p + q - k)
        if root:
            clauses, aux = e, 0
        else:  # upward, overflow and the one r_1 clause
            clauses, aux = (p + 1) * (q + 1) - e * (e + 1) // 2 + e, min(s, k)
        for half in (left, right):
            c, a = size(half)
            clauses, aux = clauses + c, aux + a
        return clauses, aux

    return size(n, True)


def cardinality_clause_count(n: int, k: int) -> int:
    """Exact clause count of encode_cardinality for n inputs."""
    return 0 if k >= n else _totalizer_size(n, k)[0]


def cardinality_aux_count(n: int, k: int) -> int:
    """Exact auxiliary count of encode_cardinality for n inputs."""
    return 0 if k >= n else _totalizer_size(n, k)[1]


def encode_instance(g: Graph, k: int) -> EncodedInstance:
    """Build the full instance: detection plus cardinality, and the variable layout."""
    if g.n == 0:
        raise ValueError("graph has no nodes")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range 1..{g.n}")
    f = CnfFormula()
    x = tuple(f.new_var() for _ in range(g.n))
    y = tuple(f.new_var() for _ in range(g.n))
    detection = encode_detection(g, x, y)
    card, aux = encode_cardinality(x, k, f.new_var)
    # both encoders emit normalised clauses (distinct literals, allocated
    # variables, no tautology: the graph is loop-free), so no add_clause pass
    f.clauses += detection + card
    return EncodedInstance(graph=g, k=k, formula=f, x=x, y=y, aux=tuple(aux),
                           detection_clauses=len(detection),
                           cardinality_clauses=len(card))

