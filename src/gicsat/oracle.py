"""Brute-force ground truth, independent of the encoder and the solver.

Signatures are computed straight from the graph definition, sensor sets are
verified by enumerating every failure set up to size k, and the exhaustive
minimizer searches subsets in increasing size.  The only piece that touches
the CNF side is the truth-table checker, which enumerates projected models
and compares projections literally.

Node sets are manipulated as bitmasks internally; all public interfaces use
plain integer node ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Sequence

from .encoder import EncodedInstance
from .graph import Graph, closed_neighborhood_set, mask_to_set
from .satcore import enumerate_models_projected

EXHAUSTIVE_MAX_NODES = 16  # min_gics_exhaustive tries up to 2^16 sensor sets


class EnumerationBudgetError(RuntimeError):
    """The requested exhaustive check is beyond the configured desk budget."""


@dataclass(frozen=True)
class Signature:
    """What the sensors report for a failure set: red at t0, red at t1."""

    sigma0: frozenset[int]
    sigma1: frozenset[int]


def signature(g: Graph, sensors: Iterable[int], failed: Iterable[int]) -> Signature:
    sensors = set(sensors)
    failed = set(failed)
    for v in sensors | failed:
        g._check_node(v)
    return Signature(sigma0=frozenset(failed & sensors),
                     sigma1=frozenset(closed_neighborhood_set(g, failed) & sensors))


def failure_set_count(n: int, k: int) -> int:
    """Number of node subsets of size at most k."""
    return sum(comb(n, i) for i in range(k + 1))


def find_signature_collision(g: Graph, sensors: Iterable[int], k: int,
                             max_subsets: int = 2_000_000
                             ) -> tuple[frozenset[int], frozenset[int]] | None:
    """First pair of distinct failure sets (|.| <= k) with equal signatures."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range 1..{g.n}")
    total = failure_set_count(g.n, k)
    if total > max_subsets:
        raise EnumerationBudgetError(
            f"{total} failure sets exceed the budget of {max_subsets}")
    smask = 0
    for v in set(sensors):
        g._check_node(v)
        smask |= 1 << v
    closed = g.closed_masks
    seen: dict[tuple[int, int], int] = {}
    for size in range(k + 1):
        for combo in combinations(range(g.n), size):
            umask = nmask = 0
            for v in combo:
                umask |= 1 << v
                nmask |= closed[v]
            sig = (umask & smask, nmask & smask)
            if sig in seen:
                return (mask_to_set(seen[sig]), mask_to_set(umask))
            seen[sig] = umask
    return None


def is_gics(g: Graph, sensors: Iterable[int], k: int,
            max_subsets: int = 2_000_000) -> bool:
    """True iff every failure set of size <= k has a unique signature."""
    return find_signature_collision(g, sensors, k, max_subsets) is None


def min_gics_exhaustive(g: Graph, k: int) -> tuple[frozenset[int], int]:
    """Smallest sensor set that identifies all failure sets of size <= k.

    Increasing-size subset search; the lexicographically first set of the
    winning size is returned.
    """
    if g.n > EXHAUSTIVE_MAX_NODES:
        raise EnumerationBudgetError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_NODES} nodes, graph has {g.n}")
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if is_gics(g, combo, k):
                return frozenset(combo), size
    raise AssertionError("unreachable: the full node set always identifies")


def projected_models(inst: EncodedInstance,
                     cap: int = 1 << 20) -> list[tuple[int, ...]]:
    """All models of the instance formula projected on the x/y variables."""
    return enumerate_models_projected(inst.formula, inst.z_vars, cap=cap)


def find_gis_collision(inst: EncodedInstance, group_nodes: Iterable[int],
                       models: Sequence[tuple[int, ...]] | None = None
                       ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two projected models agreeing on the groups' support, if any exist.

    The enumerated rows are pairwise distinct on the full projection set, so
    a collision on the support is exactly a violation of the grouped
    independent-support biconditional, and None means the groups qualify.
    """
    if models is None:
        models = projected_models(inst)
    support = {var for v in group_nodes for var in inst.group_of(v)}
    positions = [i for i, var in enumerate(inst.z_vars) if var in support]
    # each group puts two positions in, so itemgetter returns tuples
    key_of = itemgetter(*positions) if positions else lambda row: ()
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for row in models:
        key = key_of(row)
        if key in seen:
            return (seen[key], row)
        seen[key] = row
    return None


def is_gis_bruteforce(inst: EncodedInstance, group_nodes: Iterable[int],
                      models: Sequence[tuple[int, ...]] | None = None) -> bool:
    """Truth-table check that the given node groups form a grouped
    independent support of the instance formula."""
    return find_gis_collision(inst, group_nodes, models) is None
