"""CNF encoding of the failure-detection instance.

For a graph on n nodes and a failure bound k, the formula speaks about
x_v (node v fails at t0) and y_v (a sensor at v would be red at t1):

  * detection: y_v  <->  OR_{u in N1+(v)} x_u, clausified as one long
    clause (-y_v, x_u ...) plus one binary (-x_u, y_v) per neighbor;
  * cardinality: sum x_v <= k, as a sequential counter.

Variable numbering is deterministic: x_1..x_n, then y_1..y_n, then the
counter auxiliaries.  Each node owns the two-variable group {x_v, y_v};
auxiliaries belong to no group and never enter a projection set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import Graph
from .satcore import CnfFormula


@dataclass(frozen=True)
class EncodedInstance:
    """The formula and its variable layout.

    x[v] and y[v] are node v's variables and form its group {x_v, y_v};
    aux holds the counter registers, which belong to no group.
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
    for v in range(g.n):
        closed = sorted((v, *g.adjacency[v]))
        clauses.append([-y[v]] + [x[u] for u in closed])
        for u in closed:
            clauses.append([-x[u], y[v]])
    return clauses


def encode_cardinality(vars_: Sequence[int], k: int,
                       fresh: Callable[[], int]) -> tuple[list[list[int]], list[int]]:
    """Sequential-counter encoding of sum(vars_) <= k.

    Register s[i][j] reads "at least j of the first i inputs are true".
    Any input assignment with at most k true inputs extends to at least one
    satisfying register assignment.  Size stays linear in both arguments:
    (n-1)*k auxiliaries and k+1 + (n-2)(2k+1) clauses, so a full instance
    needs O(k*n + n + m) clauses overall.  Returns (clauses, auxiliary
    vars); both are empty when k == len(vars_), the constraint being vacuous.
    """
    n = len(vars_)
    if not 1 <= k <= n:
        raise ValueError(f"cardinality bound k={k} out of range 1..{n}")
    if k == n:
        return [], []
    s = [[fresh() for _ in range(k)] for _ in range(n - 1)]
    aux = [var for row in s for var in row]
    clauses: list[list[int]] = []
    clauses.append([-vars_[0], s[0][0]])
    for j in range(1, k):
        clauses.append([-s[0][j]])
    for i in range(1, n - 1):
        clauses.append([-vars_[i], s[i][0]])
        clauses.append([-s[i - 1][0], s[i][0]])
        for j in range(1, k):
            clauses.append([-vars_[i], -s[i - 1][j - 1], s[i][j]])
            clauses.append([-s[i - 1][j], s[i][j]])
        clauses.append([-vars_[i], -s[i - 1][k - 1]])
    clauses.append([-vars_[n - 1], -s[n - 2][k - 1]])
    return clauses, aux


def cardinality_clause_count(n: int, k: int) -> int:
    """Closed-form clause count of encode_cardinality for n inputs."""
    if k >= n:
        return 0
    return k + 1 + (n - 2) * (2 * k + 1)


def cardinality_aux_count(n: int, k: int) -> int:
    if k >= n:
        return 0
    return (n - 1) * k


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
    f.add_clauses(detection)
    f.add_clauses(card)
    return EncodedInstance(graph=g, k=k, formula=f, x=x, y=y, aux=tuple(aux),
                           detection_clauses=len(detection),
                           cardinality_clauses=len(card))

