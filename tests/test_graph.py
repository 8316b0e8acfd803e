import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gicsat.graph import (GraphParseError, build_graph, closed_neighborhood,
                          closed_neighborhood_set, mask_to_set, parse_graph,
                          parse_graph_file)

FIG1_EDGES = "a b\na d\nb c\nb e\nc e\nd e\n"


def fig1():
    return parse_graph(io.StringIO(FIG1_EDGES))


def node(g, label):
    return g.index_of(label)


def test_parse_fig1():
    g = fig1()
    assert g.n == 5
    assert g.m == 6
    assert g.labels == ("a", "b", "d", "c", "e")  # first-appearance order


def test_parse_duplicate_and_symmetric_edges_collapse():
    g = parse_graph(io.StringIO("u v\nu v\nv u\n"))
    assert (g.n, g.m) == (2, 1)


def test_parse_self_loop_dropped():
    g = parse_graph(io.StringIO("x x\nx y\n"))
    assert (g.n, g.m) == (2, 1)


def test_parse_comments_and_blank_lines():
    g = parse_graph(io.StringIO("# comment\n% more\n\na b\n"))
    assert (g.n, g.m) == (2, 1)


def test_parse_malformed_line_reports_number():
    with pytest.raises(GraphParseError) as err:
        parse_graph(io.StringIO("a b\na b c\n"))
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_parse_empty_graph():
    with pytest.raises(GraphParseError):
        parse_graph(io.StringIO("# nothing\n"))


@pytest.mark.parametrize("name", ["bad.edges", "bad.mtx"])
def test_parse_file_non_utf8_is_parse_error(tmp_path, name):
    # a library caller that catches GraphParseError sees undecodable bytes too
    path = tmp_path / name
    path.write_bytes(b"1 1 1\n\xff 1\n")
    with pytest.raises(GraphParseError) as err:
        parse_graph_file(str(path))
    assert str(err.value).startswith(f"cannot read {path}: ")
    assert "utf-8" in str(err.value) and err.value.line is None


def test_parse_mtx():
    text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment\n"
            "5 5 6\n"
            "1 2\n1 4\n2 3\n2 5\n3 5\n4 5\n")
    g = parse_graph(io.StringIO(text), fmt="mtx")
    assert (g.n, g.m) == (5, 6)
    assert g.labels == ("1", "2", "4", "3", "5")


def test_parse_mtx_ignores_weight_column():
    text = "2 2 1\n1 2 3.5\n"
    g = parse_graph(io.StringIO(text), fmt="mtx")
    assert (g.n, g.m) == (2, 1)


def test_parse_mtx_too_many_entries():
    with pytest.raises(GraphParseError):
        parse_graph(io.StringIO("2 2 1\n1 2\n2 1\n"), fmt="mtx")


@pytest.mark.parametrize("text,line", [
    ("4 4 3\n1 2\n", 2),
    ("3 3 1\n", 1),
    ("3 3 2\n1 2\n% trailing comment\n", 3),
])
def test_parse_mtx_too_few_entries(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(io.StringIO(text), fmt="mtx")
    assert err.value.line == line


def test_parse_mtx_negative_entry_count():
    with pytest.raises(GraphParseError) as err:
        parse_graph(io.StringIO("3 3 -1\n"), fmt="mtx")
    assert err.value.line == 1


def test_parse_mtx_node_overflow():
    with pytest.raises(GraphParseError):
        parse_graph(io.StringIO("2 2 3\n1 2\n1 3\n3 2\n"), fmt="mtx")


@pytest.mark.parametrize("text", [
    "3 3 1\nfoo bar\n",   # not an integer
    "3 3 1\n1 7\n",       # above rows
    "3 3 1\n0 1\n",       # indices are 1-based
    "3 3 1\n-1 2\n",
    "3 3 1\n1.0 2\n",
    "3 3 1\n1\n",         # one token, no pair
    # a bad size line, which the comment puts on line 2
    "% size line second\n3 3\n",
    "% size line second\n3 x 1\n",
    "% size line second\n3 4 1\n",
    "% size line second\n0 0 0\n",
])
def test_parse_mtx_rejects_bad_index(text):
    with pytest.raises(GraphParseError) as err:
        parse_graph(io.StringIO(text), fmt="mtx")
    assert err.value.line == 2


@pytest.mark.parametrize("text,labels", [
    ("5 5 2\n1 2\n2 3\n", ("1", "2", "3", "4", "5")),
    ("4 4 1\n4 2\n", ("4", "2", "1", "3")),
    ("3 3 0\n", ("1", "2", "3")),
    ("2 2 1\n02 2\n", ("2", "1")),  # one node per index, labelled by it
])
def test_parse_mtx_keeps_declared_nodes(text, labels):
    g = parse_graph(io.StringIO(text), fmt="mtx")
    assert g.n == len(labels)
    assert g.labels == labels


def test_build_graph_rejects_duplicate_labels():
    # a repeated label would leave one of its nodes unreachable by index_of
    with pytest.raises(ValueError, match="duplicate node label 'a'"):
        build_graph(3, [(0, 1), (1, 2)], ["a", "a", "b"])


@pytest.mark.parametrize("edges,labels,message", [
    ([(0, 1)], ["a", "b"], "labels length"),
    ([(0, 3)], None, r"edge \(0,3\) out of range"),
    ([(-1, 0)], None, "out of range"),
])
def test_build_graph_rejects_bad_labels_and_edges(edges, labels, message):
    with pytest.raises(ValueError, match=message):
        build_graph(3, edges, labels)


def test_parse_graph_rejects_unknown_format_and_missing_size_line():
    with pytest.raises(ValueError, match="unknown graph format 'gml'"):
        parse_graph(io.StringIO("a b\n"), fmt="gml")
    with pytest.raises(GraphParseError, match="missing Matrix Market size line"):
        parse_graph(io.StringIO("% only a comment\n"), fmt="mtx")


def check_closed_tables(g):
    """The N[v] tables agree with the set-based closed_neighborhood."""
    assert len(g.closed) == len(g.closed_masks) == g.n
    for v in range(g.n):
        assert g.closed[v] == tuple(sorted(closed_neighborhood(g, v)))
        assert mask_to_set(g.closed_masks[v]) == closed_neighborhood(g, v)


@st.composite
def graphs_with_isolated_nodes(draw):
    """Edges, self-loops included, among the first n nodes, then up to three
    isolated nodes."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    return build_graph(n + draw(st.integers(0, 3)), edges)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graphs_with_isolated_nodes())
@example(build_graph(1, []))
@example(build_graph(3, [(2, 0), (0, 0)]))
def test_closed_tables_match_closed_neighborhood(g):
    check_closed_tables(g)


def test_closed_tables_mtx_declared_nodes_without_entries():
    g = parse_graph(io.StringIO("6 6 3\n4 2\n2 5\n5 4\n"), fmt="mtx")
    assert g.labels == ("4", "2", "5", "1", "3", "6")
    check_closed_tables(g)
    for label in "136":
        v = g.index_of(label)
        assert g.closed[v] == (v,) and g.closed_masks[v] == 1 << v


def test_adjacency_sorted_and_symmetric():
    g = fig1()
    for v in range(g.n):
        assert list(g.adjacency[v]) == sorted(g.adjacency[v])
        for u in g.adjacency[v]:
            assert v in g.adjacency[u]


def test_closed_neighborhood_fig1():
    g = fig1()
    b = node(g, "b")
    assert {g.labels[v] for v in closed_neighborhood(g, b)} == {"a", "b", "c", "e"}
    a = node(g, "a")
    assert {g.labels[v] for v in closed_neighborhood(g, a)} == {"a", "b", "d"}


def test_closed_neighborhood_isolated_node():
    g = build_graph(3, [(0, 1)])
    assert closed_neighborhood(g, 2) == {2}


def test_closed_neighborhood_out_of_range():
    g = fig1()
    with pytest.raises(ValueError):
        closed_neighborhood(g, 5)


def test_closed_neighborhood_set_fig1():
    g = fig1()
    got = closed_neighborhood_set(g, {node(g, "a"), node(g, "c")})
    assert {g.labels[v] for v in got} == {"a", "b", "c", "d", "e"}
    got = closed_neighborhood_set(g, {node(g, "d")})
    assert {g.labels[v] for v in got} == {"a", "d", "e"}


def test_closed_neighborhood_set_empty():
    g = fig1()
    assert closed_neighborhood_set(g, set()) == set()


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return build_graph(n, edges)


def test_neighborhood_properties_random():
    rng = random.Random(42)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
        for v in range(g.n):
            nb = closed_neighborhood(g, v)
            assert v in nb
            assert len(nb) == g.degree(v) + 1
            for u in nb:
                assert v in closed_neighborhood(g, u)
        # union distributes over closed neighborhoods
        nodes = list(range(g.n))
        cut = rng.randint(0, g.n)
        left, right = set(nodes[:cut]), set(nodes[cut:])
        assert (closed_neighborhood_set(g, left | right)
                == closed_neighborhood_set(g, left) | closed_neighborhood_set(g, right))


def test_label_index_bijection():
    g = fig1()
    for i, lab in enumerate(g.labels):
        assert g.index_of(lab) == i
    assert len(set(g.labels)) == g.n
