"""Broker allocation, graph contraction and modularity maximization."""

import random
from collections import _count_elements

import pytest

from commspread import Cover, Graph, RunConfig, modularity, refine, run_traversal
from commspread.cover import UNASSIGNED
from commspread.refine import (
    MOVE_TOLERANCE,
    _excess_weights,
    _local_moves,
    initial_cover,
    maximize_modularity,
    post_process,
    reduce_graph,
    refine_cover,
)
from commspread.traversal import NodeType

import oracles
from conftest import graph, perfbench_module, random_graph, random_partition
from oracles import (
    communities,
    delta_modularity,
    graph_from_edges,
    local_moves,
    strength,
    weighted_graph,
)


def numbered(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Unit-weight graph whose node ids are the integers of ``edges``."""
    return weighted_graph({e: 1.0 for e in edges}, [0.0] * n)


def cover_by_label(g: Graph, labels: dict[str, int]) -> Cover:
    return Cover([labels[lab] for lab in g.labels])


def sparse_gnm() -> Graph:
    """A seeded G(n, m) with n = 3000 and m = 4.4 n, built like criterion 7's graph."""
    rng = random.Random(1)
    n, m = 3000, 13_200
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return weighted_graph(dict.fromkeys(edges, 1.0), [0.0] * n)


def test_initial_cover_copies_traversal_labels():
    g = graph("a b\nb c\n")
    res = run_traversal(g, RunConfig(threshold=0.5))
    cover = initial_cover(res)
    assert cover.assignment == res.community


def test_post_process_assigns_broker_to_best_community():
    # Brokers x: two neighbors in community 0 (size 3) vs one in community 1
    # (size 2): probabilities 2/3 vs 1/2, so x joins community 0.
    g = graph("a b\nb c\nd e\nx a\nx b\nx d\n")
    ids = {lab: g.labels.index(lab) for lab in "abcdex"}
    cover = cover_by_label(g, {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "x": ids["x"]})
    types = [NodeType.COMMUNITY] * g.n
    types[ids["x"]] = NodeType.BROKER
    out = post_process(g, cover, types)
    assert out.assignment[ids["x"]] == 0
    assert not out.unassigned


def test_post_process_tie_leaves_broker_unassigned():
    g = graph("a b\nc d\nx a\nx c\n")
    ids = {lab: g.labels.index(lab) for lab in "abcdx"}
    cover = cover_by_label(g, {"a": 0, "b": 0, "c": 1, "d": 1, "x": ids["x"]})
    types = [NodeType.COMMUNITY] * g.n
    types[ids["x"]] = NodeType.BROKER
    out = post_process(g, cover, types)
    assert out.unassigned == [ids["x"]]
    assert out.assignment[ids["x"]] == UNASSIGNED


def test_post_process_broker_only_cluster_not_eligible():
    # x's only neighbors form a broker-only cluster, which cannot receive it.
    g = graph("a b\nx a\n")
    ids = {lab: g.labels.index(lab) for lab in "abx"}
    cover = cover_by_label(g, {"a": 5, "b": 5, "x": ids["x"]})
    types = [NodeType.BROKER, NodeType.BROKER, NodeType.BROKER]
    out = post_process(g, cover, types)
    assert ids["x"] in out.unassigned


def test_post_process_seeding_broker_keeps_label():
    g = graph("a b\nb c\n")
    ids = {lab: g.labels.index(lab) for lab in "abc"}
    cover = cover_by_label(g, {"a": ids["a"], "b": ids["a"], "c": ids["a"]})
    types = [NodeType.BROKER, NodeType.COMMUNITY, NodeType.COMMUNITY]
    out = post_process(g, cover, types)
    assert out.assignment[ids["a"]] == ids["a"]


def test_reduce_graph_weights_and_conservation():
    # Two triangles joined by one edge, contracted to their triangles.
    g = graph("a b\nb c\nc a\nd e\ne f\nf d\nc d\n")
    cover = Cover([0, 0, 0, 1, 1, 1])
    rg = reduce_graph(g, cover)
    assert rg.graph.n == 2
    assert rg.graph.self_loops == [6.0, 6.0]  # 3 intra edges * 2
    assert (rg.graph.adj, rg.graph.weights) == ([[1], [0]], [[1.0], [1.0]])
    assert sum(strength(rg.graph, s) for s in range(rg.graph.n)) == 2 * g.m
    assert rg.member_map == [0, 0, 0, 1, 1, 1]


def test_reduce_graph_promotes_unassigned_to_singletons():
    g = graph("a b\nb c\n")
    cover = Cover([0, 0, UNASSIGNED])
    rg = reduce_graph(g, cover)
    assert rg.graph.n == 2
    assert rg.member_map == [0, 0, 1]


def test_reduce_graph_keeps_unassigned_apart_from_colliding_label():
    g = graph("a b\nb c\n")
    rg = reduce_graph(g, Cover([0, UNASSIGNED, 1]))
    assert rg.member_map == [0, 1, 2]


def test_reduce_graph_of_singletons_is_the_identity(karate):
    rg = reduce_graph(karate, Cover.singletons(karate))
    assert rg.member_map == list(range(karate.n))
    assert (rg.graph.adj, rg.graph.weights, rg.graph.self_loops) == (
        karate.adj,
        karate.weights,
        karate.self_loops,
    )


def test_reduce_graph_of_labeled_singletons_is_the_identity():
    g = graph("a b\nb c\n")
    rg = reduce_graph(g, Cover([5, 3, 9]))
    assert rg.member_map == [0, 1, 2]
    assert (rg.graph.adj, rg.graph.weights, rg.graph.self_loops) == (
        g.adj,
        g.weights,
        g.self_loops,
    )


def test_reduce_graph_orders_rows_by_integer_id():
    # 22 super-vertices: a row holding 9 and 10 is [9, 10] by integer order
    # but [10, 9] by string order, so a contraction that sorted its rows by
    # any other key than the id would differ from the oracle's.
    rng = random.Random(25)
    g = random_graph(rng, 60, 0.2)
    cover = Cover(random_partition(rng, g.n, 24))
    got, expected = reduce_graph(g, cover), oracles.reduce_graph(g, cover)
    assert got.graph.n == 22
    assert any(row != sorted(row, key=str) for row in expected.graph.adj)
    for field in ("adj", "weights", "self_loops"):
        assert getattr(got.graph, field) == getattr(expected.graph, field), field
    assert got.member_map == expected.member_map


def test_delta_modularity_matches_recompute():
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 15), rng.uniform(0.2, 0.9))
        if g.m == 0:
            continue
        part = random_partition(rng, g.n, rng.randrange(1, 5))
        v = rng.randrange(g.n)
        target = rng.randrange(4)
        before = modularity(g, Cover(part))
        moved = list(part)
        moved[v] = target
        after = modularity(g, Cover(moved))
        gain = delta_modularity(g, part, v, target)
        assert gain == pytest.approx(after - before, abs=1e-12)


def test_delta_modularity_same_community_is_zero():
    g = graph("a b\nb c\n")
    assert delta_modularity(g, [0, 0, 1], 0, 0) == 0.0


def test_local_moves_end_on_a_full_pass_without_moves():
    # Re-examining only the neighbors of moved vertices leaves vertex 1 with
    # an improving move into community 4: the last move, of vertex 2 (not a
    # neighbor of 1) into 1's community, raised that community's total.  The
    # closing full pass finds the move.
    g = graph("0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n2 4\n4 5\n")
    partition = _local_moves(g)
    for v in range(g.n):
        for c in set(partition):
            assert delta_modularity(g, partition, v, c) <= MOVE_TOLERANCE


# One graph per clause of the stay certificate and of the marks that sends
# a vertex back to evaluation, and one for the pop order of a refill pass:
# each partition is the full-pass oracle's, and dropping the clause changes
# it.


def test_closing_pass_revisits_neighbors_of_a_moved_vertex():
    # First closing pass: 4 stays in community 5 with vertex 5, its only
    # neighbor, so it has no alternative and its certificate never expires;
    # then 5 leaves for community 6.  4 is a neighbor of 5 outside 6, so the
    # move resets its certificate, and it must follow 5 into 6.
    g = numbered(7, [(0, 1), (0, 5), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (5, 6)])
    assert _local_moves(g) == local_moves(g) == [1, 1, 6, 6, 6, 6, 6]


def test_closing_pass_revisits_queued_neighbors_of_a_moved_vertex():
    # 7 ends the first pass in community 7 = {5, 6, 7} with a certificate
    # and is queued again by the refill.  Then 5, a neighbor of 7, leaves
    # for community 4.  7 is already queued, but the move must still reset
    # its certificate, and 7 follows 5 into 4.
    g = numbered(
        8, [(0, 2), (0, 3), (0, 6), (0, 7), (1, 4), (1, 7), (2, 3), (2, 4), (4, 5), (5, 7), (6, 7)]
    )
    assert _local_moves(g) == local_moves(g) == [3, 4, 3, 3, 4, 4, 3, 4]


def test_closing_pass_revisits_members_of_the_joined_community():
    # First closing pass: 0 stays in community 5, then 2, not a neighbor of
    # 0, joins 5 from community 4.  No move resets 0's certificate, but the
    # strength moved since outgrows its margin: the larger total of 5 sends
    # 0 to community 6 in the second closing pass.
    g = numbered(8, [(0, 5), (0, 6), (1, 2), (1, 4), (1, 7), (2, 5), (3, 6)])
    assert _local_moves(g) == local_moves(g) == [6, 4, 5, 6, 4, 5, 6, 4]


def test_closing_pass_revisits_vertices_next_to_the_left_community():
    # First closing pass: 2, adjacent to 0 and 1, stays in community 6 on a
    # tie with community 3 = {0, 1, 3}, a margin that covers no drift; then
    # 3, not a neighbor of 2, leaves 3 for 5.  The smaller total of 3 draws
    # 2 into it in the second closing pass.
    g = numbered(7, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 6), (3, 5), (4, 5), (4, 6)])
    assert _local_moves(g) == local_moves(g) == [3, 3, 3, 5, 6, 5, 6]


def test_closing_pass_revisits_unmarked_neighbors_ahead_of_the_scan():
    # 3 stays in the first closing pass, and no later move in that pass
    # touches it, so the second closing pass starts with 3 unmarked.  Then
    # 0 leaves community 3 = {0, 3} for community 2.  3 is a neighbor of 0
    # ahead of the scan, so the move must mark it, and 3 joins community 5
    # at its place in the scan.
    g = numbered(7, [(0, 2), (0, 3), (0, 6), (1, 2), (1, 5), (2, 6), (3, 5), (4, 5), (4, 6)])
    assert _local_moves(g) == local_moves(g) == [2, 5, 2, 5, 5, 5, 2]


def test_closing_pass_pops_a_neighbor_ahead_of_the_scan_once():
    # First closing pass: 4 leaves community 6 for 5.  Its neighbor 6 is
    # ahead of the scan and so already queued: it moves to 7 at its place
    # in the scan and must not join the tail as well.  The tail then starts
    # with 0, which follows 6 into 7; popping 6 first would move it back.
    g = numbered(
        9,
        [(0, 6), (1, 2), (1, 6), (1, 7), (1, 8), (2, 5), (2, 6), (2, 8), (3, 5), (3, 7)]
        + [(4, 5), (4, 6), (6, 7), (6, 8)],
    )
    assert _local_moves(g) == local_moves(g) == [7, 7, 7, 5, 5, 5, 7, 5, 7]


def test_closing_pass_revisits_vertices_behind_the_scan_next_to_a_twice_left_community():
    # First closing pass: 0 leaves community 1 for 8, and the sweep of 1
    # marks 3, which stays at its place in the scan.  Then 5 also leaves 1
    # for 8, and this second loss sweeps 1 at once.  3, behind the scan,
    # outside 1 and next to its members 2 and 6, is not a neighbor of 5, so
    # only that sweep marks it again; the smaller total of 1 draws 3, and 4
    # after it, into 1 in the second closing pass.
    g = numbered(
        9,
        [(0, 1), (0, 5), (0, 8), (1, 2), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (2, 8)]
        + [(3, 4), (3, 6), (4, 8), (5, 6), (5, 7), (5, 8), (7, 8)],
    )
    assert _local_moves(g) == local_moves(g) == [8, 1, 1, 1, 1, 8, 1, 8, 8]


@pytest.fixture(scope="module")
def gnm_levels() -> list[Graph]:
    """The input graph of :func:`sparse_gnm` and its first three contractions."""
    levels = [sparse_gnm()]
    for _ in range(3):
        levels.append(reduce_graph(levels[-1], Cover(_local_moves(levels[-1]))).graph)
    return levels


@pytest.mark.parametrize("depth, counted", [(1, True), (3, False)])
def test_integral_levels_equal_the_full_pass_oracle(gnm_levels, depth, counted):
    # Level 1 has 0.3 % of its adjacency entries of a weight other than 1.0,
    # so it counts neighbors and adds their excess weight; level 3 has 86 % and
    # sums weights in a loop.  Both must move as the oracle's weighted sums
    # do, from singletons and from a wide cover: n / 4 communities, each
    # labeled by a member and scattered over the level.
    level = gnm_levels[depth]
    entries = sum(map(len, level.weights))
    heavy = entries - sum(ws.count(1.0) for ws in level.weights)
    assert (0 < 4 * heavy <= entries) == counted
    rng = random.Random(3)
    seeds = rng.sample(range(level.n), level.n // 4)
    wide = [rng.choice(seeds) for _ in range(level.n)]
    for s in seeds:
        wide[s] = s
    for initial in (None, wide):
        assert _local_moves(level, initial) == local_moves(level, initial)


@pytest.mark.parametrize("depth, counted", [(0, True), (1, True), (3, False)])
def test_excess_weights_of_integral_levels_equal_the_full_scan_oracle(gnm_levels, depth, counted):
    # Level 1 lies below a quarter of entries other than 1.0 and level 3
    # above it (test_integral_levels_equal_the_full_pass_oracle).
    level = gnm_levels[depth]
    w2 = sum(map(sum, level.weights)) + sum(level.self_loops)
    expected = oracles.excess_weights(level, w2)
    assert (expected is not None) == counted
    assert _excess_weights(level, w2) == expected


@pytest.mark.parametrize("heavy, counted", [([1.0, 2.0], True), ([2.0, 2.0], False)])
def test_excess_weights_count_a_row_of_one_degree_once_per_holder(heavy, counted):
    # A ring of 8 vertices with the chords 0-4 and 1-5 has 20 adjacency
    # entries.  Its 4 vertices of degree 2 hold one row: one entry other
    # than 1.0 in it puts 4 on the level, a quarter or less; two put 8.
    ring = numbered(8, [(v, v + 1) for v in range(7)] + [(0, 7), (0, 4), (1, 5)])
    unit = [1.0] * 3
    g = Graph(
        adj=ring.adj,
        weights=[heavy if len(nbrs) == 2 else unit for nbrs in ring.adj],
        self_loops=[0.0] * 8,
        labels=[],
    )
    expected = oracles.excess_weights(g, 28.0)
    assert (expected is not None) == counted
    assert _excess_weights(g, 28.0) == expected


@pytest.mark.parametrize("holders", [4, 5])
def test_excess_weights_count_a_shared_row_once_per_holder(holders):
    # A ring of 8 vertices has 16 adjacency entries.  One row object with
    # an entry of 2.0, held by the first ``holders`` vertices beside a unit
    # row of the same length, puts ``holders`` entries other than 1.0 on
    # the level: a quarter or less for 4 holders, more for 5.
    ring = numbered(8, [(v, v + 1) for v in range(7)] + [(0, 7)])
    unit, heavy = [1.0, 1.0], [1.0, 2.0]
    g = Graph(
        adj=ring.adj,
        weights=[heavy if v < holders else unit for v in range(8)],
        self_loops=[0.0] * 8,
        labels=[],
    )
    expected = oracles.excess_weights(g, 20.0)
    if holders == 4:
        assert expected == {v: [(g.adj[v][1], 1.0)] for v in range(4)}
    else:
        assert expected is None
    assert _excess_weights(g, 20.0) == expected


def test_certificates_skip_vertices_that_stay(monkeypatch):
    # Each evaluation on a unit-weight level counts its neighbor labels
    # once.  The initial queue makes 3385 evaluations here and the one
    # closing pass 1000 when it evaluates every vertex, 4385 in all; the
    # certificates skip a third of that pass.
    edges, _ = perfbench_module("graphs").planted(20, 50, 0.2, 600, seed=7)
    g = graph_from_edges([(str(u), str(v)) for u, v in edges])
    assert (g.n, g.m) == (1000, 5553)
    evaluations = 0

    def counting(mapping, iterable):
        nonlocal evaluations
        evaluations += 1
        _count_elements(mapping, iterable)

    monkeypatch.setattr(refine, "_count_elements", counting)
    assert _local_moves(g) == local_moves(g)
    assert evaluations < 4385


def test_marks_confine_refill_passes_to_changed_vertices(monkeypatch):
    # Louvain's level 0 on a sparse G(n, 4.4 n), built like criterion 7's
    # graph: most vertices stay by a hair, so a few moves anywhere expire
    # most certificates.  Refill passes that pop every vertex made 30,677
    # evaluations here; popping only the vertices that a move marked makes
    # 15,449.
    g = sparse_gnm()
    evaluations = 0

    def counting(mapping, iterable):
        nonlocal evaluations
        evaluations += 1
        _count_elements(mapping, iterable)

    monkeypatch.setattr(refine, "_count_elements", counting)
    assert _local_moves(g) == local_moves(g)
    assert evaluations <= 16_000


def test_maximize_modularity_splits_two_cliques():
    edges = []
    for block in (list("abcd"), list("efgh")):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append(f"{block[i]} {block[j]}")
    edges.append("d e")
    g = graph("\n".join(edges) + "\n")
    cover = maximize_modularity(reduce_graph(g, Cover.singletons(g)))
    comms = sorted(sorted(m) for m in communities(cover).values())
    assert comms == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_refine_cover_seeds_from_cover():
    # A cover that is already optimal must survive refinement unchanged in
    # structure (two cliques stay two communities).
    g = graph("a b\nb c\nc a\nd e\ne f\nf d\nc d\n")
    cover = Cover([0, 0, 0, 1, 1, 1])
    refined = refine_cover(g, cover)
    comms = sorted(sorted(m) for m in communities(refined).values())
    assert comms == [[0, 1, 2], [3, 4, 5]]


def test_maximize_modularity_numbers_communities_by_smallest_member():
    # The labels of the contracted cover play no part in the result.
    g = graph("a b\nb c\nc a\nd e\ne f\nf d\nc d\n")
    cover = maximize_modularity(reduce_graph(g, Cover([5, 5, 5, 3, 3, 3])))
    assert cover.assignment == [0, 0, 0, 1, 1, 1]


def test_refine_cover_labels_each_community_by_its_smallest_member():
    # A 4-cycle and a separate edge.  The next level merges the cycle's two
    # level-0 communities, and the merged one takes node 0's label 2.
    g = numbered(6, [(0, 1), (0, 3), (1, 2), (2, 3), (4, 5)])
    cover = Cover([3, 2, 4, 1, 1, 5])
    assert _local_moves(g, cover.assignment) == [2, 2, 1, 1, 5, 5]
    assert refine_cover(g, cover).assignment == [2, 2, 2, 2, 5, 5]
