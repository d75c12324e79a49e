"""Property tests over edge-case graph families and small random graphs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commspread import (
    Cover,
    Graph,
    RunConfig,
    detect,
    label_propagation,
    louvain,
    modularity,
    run_traversal,
)
from commspread.cover import UNASSIGNED
from commspread.refine import (
    MOVE_TOLERANCE,
    _local_moves,
    initial_cover,
    post_process,
    reduce_graph,
    refine_cover,
)

import oracles
from oracles import allocate_brokers, delta_modularity, graph_from_edges, local_moves


def build(n: int, edges) -> Graph:
    return Graph.from_edges(
        [(str(u), str(v)) for u, v in edges], extra_nodes=[str(v) for v in range(n)]
    )


def clique_edges(nodes):
    return [(u, v) for u in nodes for v in nodes if u < v]


FAMILIES = {
    "empty": lambda n: build(0, []),
    "isolated": lambda n: build(n, []),
    "disconnected": lambda n: build(
        2 * n, clique_edges(range(n)) + clique_edges(range(n, 2 * n))
    ),
    "star": lambda n: build(n + 1, [(0, v) for v in range(1, n + 1)]),
    "clique": lambda n: build(n, clique_edges(range(n))),
    "path": lambda n: build(n, [(v, v + 1) for v in range(n - 1)]),
}


@st.composite
def random_graphs(draw) -> Graph:
    n = draw(st.integers(1, 14))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return build(n, [(u, v) for u, v in draw(st.lists(pairs, max_size=40)) if u != v])


@st.composite
def mid_random_graphs(draw) -> Graph:
    """Up to 40 nodes and 4n drawn pairs: enough to reach later closing passes."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 4 * n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return build(n, [(u, v) for u, v in draw(st.lists(pairs, min_size=m, max_size=m)) if u != v])


FAMILY_GRAPHS = st.builds(
    lambda kind, n: FAMILIES[kind](n), st.sampled_from(sorted(FAMILIES)), st.integers(1, 8)
)
GRAPHS = st.one_of(FAMILY_GRAPHS, random_graphs())

ALGORITHMS = {
    "ins": lambda g: detect(g, RunConfig(method="ins", threshold=0.7)).cover,
    "cond": lambda g: detect(g, RunConfig(method="cond")).cover,
    "louvain": louvain,
    "label_propagation": lambda g: label_propagation(g, seed=0),
}


def covers(g: Graph, unassigned: bool = False):
    """Random covers of ``g`` with up to four labels, optionally with -1."""
    low = UNASSIGNED if unassigned else 0
    return st.lists(st.integers(low, 3), min_size=g.n, max_size=g.n).map(Cover)


@settings(deadline=None)
@given(GRAPHS, st.sampled_from(sorted(ALGORITHMS)))
def test_cover_is_dense_partition_with_bounded_modularity(g, name):
    cover = ALGORITHMS[name](g)
    assert len(cover.assignment) == g.n
    assert UNASSIGNED not in cover.assignment
    assert set(cover.assignment) == set(range(cover.k))
    assert -0.5 <= modularity(g, cover) <= 1.0


@settings(deadline=None)
@given(GRAPHS, st.sampled_from(["ins", "cond"]), st.sampled_from([True, False]))
def test_detect_is_deterministic(g, method, run_modmax):
    cfg = RunConfig(method=method, threshold=0.7, run_modmax=run_modmax)
    assert detect(g, cfg).cover == detect(g, cfg).cover


@settings(deadline=None)
@given(GRAPHS, st.data())
def test_local_moves_converge_to_no_improving_move(g, data):
    # Contracting a random cover first gives weighted graphs with self-loops.
    for level in (g, reduce_graph(g, data.draw(covers(g))).graph):
        partition = _local_moves(level)
        for v in range(level.n):
            for c in {partition[u] for u in level.adj[v]}:
                assert delta_modularity(level, partition, v, c) <= MOVE_TOLERANCE


@settings(deadline=None)
@given(GRAPHS, st.data())
def test_local_moves_is_idempotent(g, data):
    for level in (g, reduce_graph(g, data.draw(covers(g))).graph):
        partition = _local_moves(level, data.draw(covers(level)).assignment)
        assert _local_moves(level, partition) == partition


@settings(deadline=None)
@given(GRAPHS, st.data())
def test_local_moves_never_lower_modularity(g, data):
    for level in (g, reduce_graph(g, data.draw(covers(g))).graph):
        initial = data.draw(covers(level))
        partition = _local_moves(level, initial.assignment)
        assert modularity(level, Cover(partition)) >= modularity(level, initial) - 1e-12


def wide_covers(g: Graph):
    """Random covers of ``g`` with four labels, two of them above ``n``."""
    return st.lists(st.sampled_from([0, 1, g.n + 1, 2 * g.n + 3]), min_size=g.n, max_size=g.n)


@settings(deadline=None)
@given(GRAPHS, st.data())
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
    # cover with labels above n, on the graph and a weighted contraction.
    for level in (g, reduce_graph(g, data.draw(covers(g))).graph):
        assert _local_moves(level) == local_moves(level)
        initial = data.draw(wide_covers(level))
        assert _local_moves(level, initial) == local_moves(level, initial)


@settings(deadline=None)
@given(
    st.one_of(GRAPHS, mid_random_graphs()),
    st.sampled_from(["ins", "cond"]),
    st.sampled_from([0.5, 0.7, 1.0]),
)
def test_allocation_equals_brute_force_oracle(g, method, threshold):
    tr = run_traversal(g, RunConfig(method=method, threshold=threshold))
    cover = initial_cover(tr)
    expected = allocate_brokers(g, cover, tr.node_type).assignment
    assert post_process(g, cover, tr.node_type).assignment == expected


@settings(deadline=None)
@given(GRAPHS, st.data())
def test_contraction_preserves_modularity(g, data):
    cover = data.draw(covers(g, unassigned=True))
    reduced = reduce_graph(g, cover).graph
    q = modularity(g, cover.with_singletons())
    assert modularity(reduced, Cover.singletons(reduced)) == pytest.approx(q, abs=1e-12)


@settings(deadline=None)
@given(GRAPHS, st.data())
def test_contraction_equals_dict_and_sort_oracle(g, data):
    # Fractional weights make every float sum depend on its order.  Each
    # level is contracted from a cover with unassigned nodes and from one
    # with labels above n.
    weight = st.floats(0.01, 1.0)
    fractional = oracles.weighted_graph(
        {e: data.draw(weight) for e in oracles.edges(g)}, [data.draw(weight) for _ in range(g.n)]
    )
    contracted = oracles.reduce_graph(fractional, data.draw(covers(fractional))).graph
    for level in (g, fractional, contracted):
        with_unassigned = data.draw(covers(level, unassigned=True))
        for cover in (with_unassigned, Cover(data.draw(wide_covers(level)))):
            got, expected = reduce_graph(level, cover), oracles.reduce_graph(level, cover)
            for field in ("adj", "weights", "self_loops"):
                assert getattr(got.graph, field) == getattr(expected.graph, field), field
            assert (got.label_map, got.member_map) == (expected.label_map, expected.member_map)


@settings(deadline=None)
@given(
    st.one_of(GRAPHS, mid_random_graphs()),
    st.data(),
    st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]),
    st.integers(0, 2**32),
)
def test_sample_edges_equals_dict_and_sort_oracle(g, data, fraction, seed):
    # The weighted level has fractional weights and self-loops.
    weight = st.floats(0.01, 1.0)
    weighted = oracles.weighted_graph(
        {e: data.draw(weight) for e in oracles.edges(g)}, [data.draw(weight) for _ in range(g.n)]
    )
    for level in (g, weighted):
        population = [
            (u, v, w)
            for u, nbrs in enumerate(level.adj)
            for v, w in zip(nbrs, level.weights[u])
            if u < v
        ]
        keep = random.Random(seed).sample(population, int(fraction * len(population)))
        expected = oracles.weighted_graph(
            {(u, v): w for u, v, w in keep}, list(level.self_loops)
        )
        got = level.sample_edges(fraction, seed)
        for field in ("adj", "weights", "self_loops"):
            assert getattr(got, field) == getattr(expected, field), field
        assert (got.labels, got.index) == (level.labels, level.index)


@settings(deadline=None)
@given(GRAPHS, st.sampled_from(["ins", "cond"]), st.sampled_from([0.5, 0.7, 1.0]))
def test_untraced_traversal_equals_traced(g, method, threshold):
    cfg = RunConfig(method=method, threshold=threshold)
    plain, traced = run_traversal(g, cfg), run_traversal(g, cfg, trace=True)
    for field in ("community", "node_type", "inspections"):
        assert getattr(plain, field) == getattr(traced, field), field
    assert plain.ins == plain.discovery_order == plain.processing_order == []


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(GRAPHS, mid_random_graphs()),
    st.sampled_from(["ins", "cond"]),
    st.sampled_from([0.5, 0.7, 1.0]),
    st.data(),
)
def test_traversal_equals_brute_force_oracle(g, method, threshold, data):
    start = data.draw(st.none() | st.integers(0, g.n - 1)) if g.n else None
    cfg = RunConfig(method=method, threshold=threshold, start=start)
    got = run_traversal(g, cfg, trace=True)
    expected, roles = oracles.traversal(g, cfg)
    for field in ("community", "processing_order", "ins", "inspections"):
        assert getattr(got, field) == getattr(expected, field), field
    # The roles read off the labels are the ones the oracle decided.
    assert got.node_type == roles


@settings(deadline=None)
@given(GRAPHS, st.data())
def test_refine_cover_never_lowers_modularity(g, data):
    cover = data.draw(covers(g, unassigned=True))
    before = modularity(g, cover.with_singletons())
    assert modularity(g, refine_cover(g, cover)) >= before - 1e-12


# Few labels, so that random pairs repeat in both orientations and loop.
LABELS = st.sampled_from([str(i) for i in range(12)] + ["a", "b", "#c"])


@settings(deadline=None)
@given(st.lists(st.tuples(LABELS, LABELS), max_size=60), st.lists(LABELS, max_size=8))
def test_from_edges_equals_dict_and_sort_oracle(edges, extra_nodes):
    g = Graph.from_edges(edges, extra_nodes=extra_nodes)
    expected = graph_from_edges(edges, extra_nodes=extra_nodes)
    for field in ("adj", "weights", "self_loops", "labels", "index", "load_report"):
        assert getattr(g, field) == getattr(expected, field), field
