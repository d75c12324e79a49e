"""Property tests over edge-case graph families and small random graphs."""

import copy
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commspread import (
    Cover,
    Graph,
    RunConfig,
    detect,
    load_edge_list,
    louvain,
    modularity,
    run_traversal,
)
from commspread.cover import UNASSIGNED
from commspread.refine import (
    MOVE_TOLERANCE,
    _excess_weights,
    _local_moves,
    initial_cover,
    post_process,
    reduce_graph,
    refine_cover,
)

import oracles
from conftest import labeled_graph
from oracles import allocate_brokers, delta_modularity, graph_from_edges, local_moves


def clique_edges(nodes):
    return [(u, v) for u in nodes for v in nodes if u < v]


FAMILIES = {
    "empty": lambda n: labeled_graph(0, []),
    "isolated": lambda n: labeled_graph(n, []),
    "disconnected": lambda n: labeled_graph(
        2 * n, clique_edges(range(n)) + clique_edges(range(n, 2 * n))
    ),
    "star": lambda n: labeled_graph(n + 1, [(0, v) for v in range(1, n + 1)]),
    "clique": lambda n: labeled_graph(n, clique_edges(range(n))),
    "path": lambda n: labeled_graph(n, [(v, v + 1) for v in range(n - 1)]),
}


@st.composite
def random_graphs(draw) -> Graph:
    n = draw(st.integers(1, 14))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return labeled_graph(n, [(u, v) for u, v in draw(st.lists(pairs, max_size=40)) if u != v])


@st.composite
def mid_random_graphs(draw) -> Graph:
    """Up to 40 nodes and 4n drawn pairs: enough to reach later closing passes."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 4 * n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    drawn = draw(st.lists(pairs, min_size=m, max_size=m))
    return labeled_graph(n, [(u, v) for u, v in drawn if u != v])


FAMILY_GRAPHS = st.builds(
    lambda kind, n: FAMILIES[kind](n), st.sampled_from(sorted(FAMILIES)), st.integers(1, 8)
)
GRAPHS = st.one_of(FAMILY_GRAPHS, random_graphs())
MIXED_GRAPHS = st.one_of(GRAPHS, mid_random_graphs())

ALGORITHMS = {
    "ins": lambda g: detect(g, RunConfig(method="ins", threshold=0.7)).cover,
    "cond": lambda g: detect(g, RunConfig(method="cond")).cover,
    "louvain": louvain,
}


def fractional_copy(g: Graph, data) -> Graph:
    """``g`` with a drawn weight in [0.01, 1] on every edge and every self-loop.

    Fractional weights make every float sum depend on its order.
    """
    weight = st.floats(0.01, 1.0)
    return oracles.weighted_graph(
        {e: data.draw(weight) for e in oracles.edges(g)}, [data.draw(weight) for _ in range(g.n)]
    )


def looped_copy(g: Graph, data) -> Graph:
    """``g``'s adjacency and unit rows with a drawn self-loop in [0.01, 4] on every node.

    The copy is a unit graph whose self-loops are fractional, so every
    float sum that includes one depends on its order.
    """
    loops = [data.draw(st.floats(0.01, 4.0)) for _ in range(g.n)]
    return Graph(adj=g.adj, weights=g.weights, self_loops=loops, labels=[])


def covers(g: Graph, unassigned: bool = False):
    """Random covers of ``g`` with up to four labels, optionally with -1."""
    low = UNASSIGNED if unassigned else 0
    return st.lists(st.integers(low, 3), min_size=g.n, max_size=g.n).map(Cover)


@settings(deadline=None)
@given(MIXED_GRAPHS, st.sampled_from(sorted(ALGORITHMS)))
def test_cover_is_dense_partition_with_bounded_modularity(g, name):
    cover = ALGORITHMS[name](g)
    assert len(cover.assignment) == g.n
    assert UNASSIGNED not in cover.assignment
    assert set(cover.assignment) == set(range(cover.k))
    assert -0.5 <= modularity(g, cover) <= 1.0


@settings(deadline=None)
@given(MIXED_GRAPHS, st.sampled_from(["ins", "cond"]))
def test_detect_is_deterministic(g, method):
    # Nodes of equal degree share one weight row, so a write into a row
    # would reweight all of them: every algorithm must leave g as it was.
    before = copy.deepcopy((g.adj, g.weights, g.self_loops, g.labels))
    q = {}
    for run_modmax in (True, False):
        cfg = RunConfig(method=method, threshold=0.7, run_modmax=run_modmax)
        cover = detect(g, cfg).cover
        assert detect(g, cfg).cover == cover
        q[run_modmax] = modularity(g, cover)
    # Maximization starts from the allocated cover and never lowers its Q.
    assert q[True] >= q[False] - 1e-12
    assert louvain(g) == louvain(g)
    assert (g.adj, g.weights, g.self_loops, g.labels) == before


def levels(g: Graph, data) -> tuple[Graph, Graph, Graph]:
    """``g``, the contraction of a random cover (integer weights and
    self-loops) and a fractional-weight copy of ``g``."""
    return g, reduce_graph(g, data.draw(covers(g))).graph, fractional_copy(g, data)


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_local_moves_converge_to_no_improving_move(g, data):
    for level in levels(g, data):
        partition = _local_moves(level)
        for v in range(level.n):
            for c in {partition[u] for u in level.adj[v]}:
                assert delta_modularity(level, partition, v, c) <= MOVE_TOLERANCE


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_local_moves_is_idempotent(g, data):
    for level in levels(g, data):
        partition = _local_moves(level, data.draw(covers(level)).assignment)
        assert _local_moves(level, partition) == partition


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_local_moves_never_lower_modularity(g, data):
    for level in levels(g, data):
        initial = data.draw(covers(level))
        partition = _local_moves(level, initial.assignment)
        assert modularity(level, Cover(partition)) >= modularity(level, initial) - 1e-12


def wide_covers(g: Graph):
    """Random covers of ``g`` with four labels, two of them above ``n``."""
    return st.lists(st.sampled_from([0, 1, g.n + 1, 2 * g.n + 3]), min_size=g.n, max_size=g.n)


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_refine_cover_depends_only_on_label_order(g, data):
    # Labels spread above n, within the bound refine_cover documents,
    # refine like the labels 0..3 they stand for.
    cover = data.draw(covers(g))
    spread = 2 * g.n + 3
    refined = refine_cover(g, cover).assignment
    got = refine_cover(g, Cover([spread * (c + 1) for c in cover.assignment])).assignment
    assert got == [spread * (c + 1) for c in refined]


@settings(deadline=None, max_examples=300)
@given(st.one_of(FAMILY_GRAPHS, mid_random_graphs()), st.data())
def test_local_moves_equal_the_full_pass_oracle(g, data):
    # Skipping clean vertices in closing passes must make the same moves as
    # evaluating every vertex: same partition from singletons and from a
    # cover with labels above n, on the graph, two weighted levels and a
    # unit copy with self-loops, whose strengths come from its degrees.
    looped = looped_copy(g, data)
    assert looped.unit
    for level in (*levels(g, data), looped):
        assert _local_moves(level) == local_moves(level)
        initial = data.draw(wide_covers(level))
        assert _local_moves(level, initial) == local_moves(level, initial)


@settings(deadline=None)
@given(
    MIXED_GRAPHS,
    st.sampled_from(["ins", "cond"]),
    st.sampled_from([0.5, 0.7, 1.0]),
)
def test_allocation_equals_brute_force_oracle(g, method, threshold):
    tr = run_traversal(g, RunConfig(method=method, threshold=threshold))
    cover = initial_cover(tr)
    expected = allocate_brokers(g, cover, tr.node_type).assignment
    assert post_process(g, cover, tr.node_type).assignment == expected


def shared_rows(g: Graph, data) -> Graph:
    """``g`` with one drawn row per degree, held by every vertex of that degree.

    A row's entries are 1.0, 2.0, 3.0 or 0.5, so an entry other than 1.0
    counts once per vertex that holds its row.
    """
    weight = st.sampled_from([1.0, 1.0, 1.0, 2.0, 3.0, 0.5])
    rows = {
        d: data.draw(st.lists(weight, min_size=d, max_size=d))
        for d in sorted(set(map(len, g.adj)))
    }
    return Graph(
        adj=g.adj,
        weights=[rows[len(nbrs)] for nbrs in g.adj],
        self_loops=list(g.self_loops),
        labels=[],
    )


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_excess_weights_equal_the_full_scan_oracle(g, data):
    # The input graph shares a unit row per degree, the drawn copy shares
    # non-unit rows, the contraction has integral weights and the copy
    # fractional ones; each is read with its own total and with 2**52.
    contracted = reduce_graph(g, data.draw(covers(g))).graph
    for level in (g, shared_rows(g, data), contracted, fractional_copy(g, data)):
        w2 = sum(map(sum, level.weights)) + sum(level.self_loops)
        for total in (w2, 2.0**52):
            assert _excess_weights(level, total) == oracles.excess_weights(level, total)


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_contraction_preserves_modularity(g, data):
    cover = data.draw(covers(g, unassigned=True))
    reduced = reduce_graph(g, cover).graph
    q = modularity(g, cover.with_singletons())
    assert modularity(reduced, Cover.singletons(reduced)) == pytest.approx(q, abs=1e-12)


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_contraction_equals_dict_and_sort_oracle(g, data):
    # Each level is contracted from a cover with unassigned nodes and from
    # one with labels above n.  The unit graph and its copy with self-loops
    # take the weightless body, the other two the weighted one.
    looped = looped_copy(g, data)
    assert g.unit and looped.unit
    fractional = fractional_copy(g, data)
    contracted = oracles.reduce_graph(fractional, data.draw(covers(fractional))).graph
    for level in (g, looped, fractional, contracted):
        with_unassigned = data.draw(covers(level, unassigned=True))
        for cover in (with_unassigned, Cover(data.draw(wide_covers(level)))):
            got, expected = reduce_graph(level, cover), oracles.reduce_graph(level, cover)
            for field in ("adj", "weights", "self_loops"):
                assert getattr(got.graph, field) == getattr(expected.graph, field), field
            assert got.member_map == expected.member_map
            # An int count would pass == against the oracle's float.
            floats = [*got.graph.self_loops, *(w for ws in got.graph.weights for w in ws)]
            assert all(type(w) is float for w in floats)


@settings(deadline=None)
@given(
    MIXED_GRAPHS,
    st.sampled_from(["ins", "cond"]),
    st.sampled_from([0.5, 0.7, 1.0]),
)
def test_untraced_traversal_equals_traced(g, method, threshold):
    cfg = RunConfig(method=method, threshold=threshold)
    plain, traced = run_traversal(g, cfg), run_traversal(g, cfg, trace=True)
    for field in ("community", "node_type", "inspections"):
        assert getattr(plain, field) == getattr(traced, field), field
    assert plain.ins == plain.discovery_order == plain.processing_order == []


@settings(deadline=None, max_examples=300)
@given(
    MIXED_GRAPHS,
    st.sampled_from(["ins", "cond"]),
    st.sampled_from([0.5, 0.7, 1.0]),
    st.data(),
)
def test_traversal_equals_brute_force_oracle(g, method, threshold, data):
    start = data.draw(st.none() | st.integers(0, g.n - 1)) if g.n else None
    cfg = RunConfig(method=method, threshold=threshold, start=start)
    got = run_traversal(g, cfg, trace=True)
    expected, roles = oracles.traversal(g, cfg)
    for field in ("community", "discovery_order", "processing_order", "ins", "inspections"):
        assert getattr(got, field) == getattr(expected, field), field
    # Every label is the id of a node that carries its own id.
    assert all(got.community[c] == c for c in got.community)
    # The roles read off the labels are the ones the oracle decided.
    assert got.node_type == roles


@settings(deadline=None)
@given(MIXED_GRAPHS, st.data())
def test_refine_cover_never_lowers_modularity(g, data):
    # A random cover mostly has Q <= 0, which merging every node into one
    # community already reaches; the full-pass oracle's cover has Q > 0.
    for cover in (data.draw(covers(g, unassigned=True)), Cover(local_moves(g))):
        before = modularity(g, cover.with_singletons())
        refined = refine_cover(g, cover)
        assert modularity(g, refined) >= before - 1e-12
        assert len(refined.assignment) == g.n and not refined.unassigned


# Few labels, so that random pairs repeat in both orientations and loop.
LABELS = st.sampled_from([str(i) for i in range(12)] + ["a", "b", "c#d"])
# The text around one edge line: an optional noise line before it, the
# leading space, the separator and the line end.
LINE_SHAPES = st.tuples(
    st.sampled_from(["", "", "\n", " \t\r\n", "# comment a b\n", "  #\tx y z\r\n", "#a b\r\n"]),
    st.sampled_from(["", "", " ", "\t"]),
    st.sampled_from([" ", "\t", " \t ", "   "]),
    st.sampled_from(["\n", "\r\n", " \n", "\t\r\n"]),
)


@settings(deadline=None)
@given(st.lists(st.tuples(LABELS, LABELS), max_size=60), st.data())
def test_load_edge_list_equals_dict_and_sort_oracle(drawn, data):
    pairs = drawn + [(b, a) for a, b in drawn[::3]] + [(a, a) for a, _ in drawn[::5]]
    pairs = data.draw(st.permutations(pairs))
    shapes = data.draw(st.lists(LINE_SHAPES, min_size=len(pairs), max_size=len(pairs)))
    text = "".join(
        f"{noise}{lead}{a}{sep}{b}{end}" for (a, b), (noise, lead, sep, end) in zip(pairs, shapes)
    )
    g = load_edge_list(io.StringIO(text))
    expected = graph_from_edges(pairs)
    for field in ("adj", "weights", "self_loops", "labels", "load_report"):
        assert getattr(g, field) == getattr(expected, field), field
    # Nodes of equal degree share one weight row.
    rows: dict[int, list[float]] = {}
    assert all(rows.setdefault(len(ws), ws) is ws for ws in g.weights)
