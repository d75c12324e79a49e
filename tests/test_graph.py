"""Edge-list ingestion and graph properties."""

import io
import random
from fractions import Fraction

import pytest

from commspread import Cover, Graph, GraphParseError, load_edge_list, modularity
from commspread.refine import _local_moves, reduce_graph

from conftest import graph, load_dataset
from oracles import edges, graph_from_edges, weighted_graph


def test_basic_parse():
    g = graph("a b\nb c\n")
    assert (g.n, g.m) == (3, 2)
    assert g.labels == ["a", "b", "c"]
    assert g.adj == [[1], [0, 2], [1]]
    assert g.weights == [[1.0], [1.0, 1.0], [1.0]]
    assert g.self_loops == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("name", ["karate", "lesmis", "walkthrough13"])
def test_nodes_of_equal_degree_share_one_unit_row(name):
    g = load_dataset(name)
    assert len({id(w) for w in g.weights}) == len(set(map(len, g.adj)))
    for v, row in enumerate(g.weights):
        assert row == [1.0] * len(g.adj[v])


@pytest.mark.parametrize("name", ["karate", "lesmis", "walkthrough13"])
def test_contraction_shares_one_float_per_cross_weight(name):
    g = load_dataset(name)
    reduced = reduce_graph(g, Cover(_local_moves(g))).graph
    cross = [w for ws in reduced.weights for w in ws]
    assert len({id(w) for w in cross}) == len(set(cross))
    assert all(type(w) is float for w in cross)
    # Rows of ones share one list per length: walkthrough13's three of length 2.
    ones = [ws for ws in reduced.weights if ws.count(1.0) == len(ws)]
    assert len({id(ws) for ws in ones}) == len(set(map(len, ones)))


def test_comments_and_blank_lines_ignored():
    g = graph("# header\n\na b\n   \n# trailer\nb c\n")
    assert (g.n, g.m) == (3, 2)


def test_malformed_line_reports_line_number():
    with pytest.raises(GraphParseError) as exc:
        graph("a b\na b c\n")
    assert exc.value.line_number == 2
    assert "expected 2 tokens" in str(exc.value)


def test_bad_line_number_counts_blank_and_comment_lines():
    with pytest.raises(GraphParseError) as exc:
        graph("# header\n\na b\n  # indented\n\t\nc\n")
    assert exc.value.line_number == 6
    assert str(exc.value) == "line 6: expected 2 tokens, found 1: 'c'"


def test_crlf_tabs_and_indented_comments():
    g = graph("a\tb\r\n  # comment\r\n\tb \t c\r\n\r\n")
    assert g.labels == ["a", "b", "c"]
    assert g.adj == [[1], [0, 2], [1]]


def long_edge_list(lines: int = 5000) -> list[tuple[str, str]]:
    """``lines`` seeded pairs on 800 labels, with some repeats and self-loops.

    One label in ten holds a ``#`` after its first character.
    """
    rng = random.Random(5000)
    labels = [str(k) if k % 10 else f"{k}#{k}" for k in range(800)]
    return [(rng.choice(labels), rng.choice(labels)) for _ in range(lines)]


@pytest.mark.parametrize(
    "bad, message",
    [
        ("7 8 9", "expected 2 tokens, found 3: '7 8 9'"),
        ("x7\t#8", "a label may not start with '#': 'x7\\t#8'"),
        ("17 #8", "a label may not start with '#': '17 #8'"),
    ],
)
def test_bad_line_near_the_end_of_a_long_file_is_named(bad, message):
    # Line 4990 of 5000; "17" is a label of earlier lines and "x7" is not.
    lines = [f"{a} {b}\n" for a, b in long_edge_list()]
    lines[4989] = bad + "\n"
    with pytest.raises(GraphParseError) as exc:
        load_edge_list(io.StringIO("".join(lines)))
    assert exc.value.line_number == 4990
    assert str(exc.value) == f"line 4990: {message}"


def test_lines_after_a_bad_line_are_not_read():
    # A stream that fails at line 4995, as a check of its encoding would,
    # is never asked for that line when line 4990 is malformed.
    lines = [f"{a} {b}\n" for a, b in long_edge_list()]
    lines[4989] = "7 8 9\n"

    def stream():
        for lineno, line in enumerate(lines, start=1):
            if lineno == 4995:
                raise GraphParseError(lineno, "unreadable")
            yield line

    with pytest.raises(GraphParseError) as exc:
        load_edge_list(stream())
    assert str(exc.value) == "line 4990: expected 2 tokens, found 3: '7 8 9'"


def test_blank_comment_crlf_and_tab_lines_load_like_from_edges():
    pairs = long_edge_list()
    lines = []
    for i, (a, b) in enumerate(pairs):
        if i % 97 == 0:
            lines.append("\n")
        if i % 89 == 0:
            lines.append("# comment 1 2\n" if i % 2 else "  #\tcomment\r\n")
        sep = "\t" if i % 3 == 0 else " "
        end = "\r\n" if i % 5 == 0 else "\n"
        lines.append(f"{a}{sep}{b}{end}")
    g = load_edge_list(io.StringIO("".join(lines)))
    expected = graph_from_edges(pairs)
    for field in ("adj", "weights", "self_loops", "labels", "load_report"):
        assert getattr(g, field) == getattr(expected, field), field
    assert g.load_report.self_loops > 0 and g.load_report.duplicate_edges > 0
    assert len({id(w) for w in g.weights}) == len(set(map(len, g.adj)))


def test_duplicates_and_self_loops_collapsed_and_counted():
    g = graph("a b\nb a\na a\na b\n")
    assert (g.n, g.m) == (2, 1)
    assert g.load_report.duplicate_edges == 2
    assert g.load_report.self_loops == 1


def test_empty_input_gives_empty_graph():
    g = graph("")
    assert (g.n, g.m) == (0, 0)


def test_first_appearance_ids_and_label_roundtrip():
    g = graph("x y\ny z\nz x\n")
    assert g.labels == ["x", "y", "z"]
    # "z" is isolated and takes an id between the edges' labels; "c#1" holds
    # an inner "#" and "n\u00e9" is not ASCII.
    g = graph("b a\nz z\nc#1 b\nd c#1\nn\u00e9 a\na d\n")
    assert g.labels == ["b", "a", "z", "c#1", "d", "n\u00e9"]
    assert sorted(edges(g)) == [(0, 1), (0, 3), (1, 4), (1, 5), (3, 4)]
    assert g.adj[2] == []


def test_edges_listed_once_sorted():
    g = graph("b a\nc a\nb c\n")
    assert sorted(edges(g)) == [(0, 1), (0, 2), (1, 2)]
    assert len(g.adj[0]) == 2


def test_extra_nodes_preserved_as_isolates():
    g = graph("a b\nc c\n")
    assert g.n == 3 and len(g.adj[2]) == 0


def test_weighted_graph_modularity_counts_self_loops_in_strength():
    # Node 0's self-loop counts in its strength and its internal weight:
    # the strengths are 6, 2.5 and 0.5, and their total is 9.
    g = weighted_graph({(1, 2): 0.5, (0, 1): 2.0}, [4.0, 0.0, 0.0])
    q = Fraction(4, 9) - Fraction(6, 9) ** 2 - Fraction(5, 18) ** 2 - Fraction(1, 18) ** 2
    assert modularity(g, Cover.singletons(g)) == pytest.approx(float(q), rel=1e-15)
    assert g.self_loops[0] == 4.0
    assert (g.adj[1], g.weights[1]) == ([0, 2], [2.0, 0.5])


def test_loaded_graphs_their_samples_and_the_empty_graph_are_unit(karate):
    assert karate.unit
    assert graph("").unit


def test_contraction_with_unit_cross_weights_is_unit_whatever_its_self_loops():
    # Path a-b-c-d: {a, b} and {c, d} each keep a self-loop of 2.0, and
    # the edge b-c becomes a cross weight of 1.0.
    reduced = reduce_graph(graph("a b\nb c\nc d\n"), Cover([0, 0, 2, 2])).graph
    assert reduced.self_loops == [2.0, 2.0]
    assert reduced.weights == [[1.0], [1.0]]
    assert reduced.unit


def test_a_shared_row_holding_a_two_is_not_unit():
    # Square a-b-c-d-a: every node has degree 2 and one row object.
    g = graph("a b\nb c\nc d\nd a\n")
    assert len({id(w) for w in g.weights}) == 1
    row = [1.0, 2.0]
    heavy = Graph(adj=g.adj, weights=[row] * g.n, self_loops=list(g.self_loops), labels=[])
    assert not heavy.unit


def test_contraction_above_one_and_fractional_copy_are_not_unit():
    # Star a-b, a-c: contracting {b, c} leaves a cross weight of 2.0.
    reduced = reduce_graph(graph("a b\na c\n"), Cover([0, 1, 1])).graph
    assert reduced.weights == [[2.0], [2.0]]
    assert not reduced.unit
    assert not weighted_graph({(0, 1): 1.0, (1, 2): 0.5}, [0.0, 0.0, 0.0]).unit
