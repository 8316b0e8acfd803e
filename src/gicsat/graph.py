"""Undirected loop-free graphs with closed-neighborhood queries.

Nodes carry arbitrary textual labels from the input file and are reindexed
to dense integers 0..n-1 in first-appearance order, so downstream variable
numbering is deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence


class GraphParseError(ValueError):
    """Malformed graph input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: dense node indices, sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self.adjacency[v])

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    @cached_property
    def closed(self) -> tuple[tuple[int, ...], ...]:
        """N[v] for each node v, as an ascending node tuple."""
        return tuple(tuple(sorted((v, *nb))) for v, nb in enumerate(self.adjacency))

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """N[v] for each node v, as a node bitmask."""
        masks = [0] * self.n
        for v, nb in enumerate(self.closed):
            for u in nb:
                masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"node index {v} out of range 0..{self.n - 1}")


def build_graph(n: int, edge_pairs: Iterable[tuple[int, int]],
                labels: Sequence[str] | None = None) -> Graph:
    """Construct a Graph from index pairs, dropping self-loops and duplicates."""
    if n <= 0:
        raise GraphParseError("empty graph")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    elif len(labels) != n:
        raise ValueError("labels length must equal n")
    elif len(set(labels)) < n:
        raise ValueError(
            f"duplicate node label {Counter(labels).most_common(1)[0][0]!r}")
    edges = set()
    for u, v in edge_pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            continue
        edges.add((u, v) if u < v else (v, u))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(neigh)) for neigh in adj)
    return Graph(n=n, adjacency=adjacency, labels=tuple(labels))


def parse_graph(stream: IO[str], fmt: str = "edgelist") -> Graph:
    """Parse a graph from a text stream.

    Formats:
      edgelist -- one edge per line as two whitespace-separated tokens;
                  lines starting with '#' or '%' are comments.  Node tokens
                  are opaque labels (integers in either 0- or 1-based
                  conventions included) mapped to dense indices by first
                  appearance.
      mtx      -- Matrix Market coordinate format: '%' comments, one size
                  line 'rows cols entries', then exactly `entries` index
                  pairs, one per line (extra columns such as weights are
                  ignored).  Indices are
                  1-based by the format's spec and must lie in 1..rows; the
                  label of a node is its index.  Nodes are numbered by first
                  appearance, then the declared nodes without an entry
                  follow in ascending order, so n == rows.

    Self-loops are dropped and duplicate edges collapsed.
    """
    if fmt == "edgelist":
        return _parse_edgelist(stream)
    if fmt == "mtx":
        return _parse_mtx(stream)
    raise ValueError(f"unknown graph format {fmt!r}")


def parse_graph_file(path: str, fmt: str | None = None) -> Graph:
    """Parse a graph file, inferring the format from the extension when unset."""
    if fmt is None:
        fmt = "mtx" if path.endswith(".mtx") else "edgelist"
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return parse_graph(fp, fmt)
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"cannot read {path}: {exc}") from exc


def _node(index: dict[str, int], label: str) -> int:
    """Dense index of a label, assigned in first-appearance order."""
    i = index.get(label)
    if i is None:
        i = index[label] = len(index)
    return i


def _parse_edgelist(stream) -> Graph:
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(
                f"expected two node tokens, got {len(tokens)}", lineno)
        pairs.append((_node(index, tokens[0]), _node(index, tokens[1])))
    return build_graph(len(index), pairs, tuple(index))


def _parse_mtx(stream) -> Graph:
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    declared: tuple[int, int] | None = None  # (nodes, entries)
    entries = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line[0] in "%#":
            continue
        tokens = line.split()
        if declared is None:
            if len(tokens) != 3:
                raise GraphParseError(
                    "expected size line 'rows cols entries'", lineno)
            try:
                rows, cols, nnz = (int(t) for t in tokens)
            except ValueError:
                raise GraphParseError("non-integer size line", lineno) from None
            if rows != cols:
                raise GraphParseError(
                    f"adjacency matrix must be square, got {rows}x{cols}", lineno)
            if rows <= 0:
                raise GraphParseError("empty graph", lineno)
            if nnz < 0:
                raise GraphParseError("negative entry count", lineno)
            declared = (rows, nnz)
            continue
        if len(tokens) < 2:
            raise GraphParseError("expected an index pair", lineno)
        entries += 1
        if entries > declared[1]:
            raise GraphParseError(
                f"more than the declared {declared[1]} entries", lineno)
        try:
            ends = [int(t) for t in tokens[:2]]
        except ValueError:
            raise GraphParseError("non-integer node index", lineno) from None
        if not all(1 <= i <= declared[0] for i in ends):
            raise GraphParseError(
                f"node index out of range 1..{declared[0]}", lineno)
        pairs.append((_node(index, str(ends[0])), _node(index, str(ends[1]))))
    if declared is None:
        raise GraphParseError("missing Matrix Market size line")
    if entries < declared[1]:
        raise GraphParseError(
            f"file ends after {entries} of the declared {declared[1]} entries",
            lineno)
    for i in range(1, declared[0] + 1):
        _node(index, str(i))
    return build_graph(len(index), pairs, tuple(index))


def mask_to_set(mask: int) -> frozenset[int]:
    """The nodes of a node bitmask."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


def closed_neighborhood(g: Graph, v: int) -> set[int]:
    """N1+(v): the node itself plus its direct neighbors."""
    g._check_node(v)
    return {v, *g.adjacency[v]}


def closed_neighborhood_set(g: Graph, nodes: Iterable[int]) -> set[int]:
    """Union of closed neighborhoods over a set of nodes."""
    out: set[int] = set()
    for v in nodes:
        out |= closed_neighborhood(g, v)
    return out
