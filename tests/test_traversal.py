"""Traversal engine: frontier discipline, scoring, restarts, instrumentation."""

import random

import pytest

from commspread import Graph, RunConfig, detect, run_traversal
from commspread.traversal import NodeType, ins_score

from conftest import graph, random_graph


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(method="bogus")
    with pytest.raises(ValueError):
        RunConfig(threshold=1.5)


def test_ins_score_fraction_of_covered_neighbors():
    g = graph("a b\na c\na d\nd e\n")
    covered = bytearray(g.n)
    covered[g.id_of("b")] = 1
    assert ins_score(g, g.id_of("a"), covered) == pytest.approx(1 / 3)
    isolated = Graph.from_edges([], extra_nodes=["x"])
    assert ins_score(isolated, 0, bytearray(1)) == 0.0


def test_start_defaults_to_lowest_degree_node():
    g = graph("a b\nb c\nc d\nc a\n")  # degrees a2 b2 c3 d1
    res = run_traversal(g, RunConfig(), trace=True)
    assert res.processing_order[0] == g.id_of("d")
    assert res.node_type[g.id_of("d")] == NodeType.BROKER
    assert res.ins[g.id_of("d")] == 0.0


def test_start_override_and_range_check():
    g = graph("a b\nb c\n")
    res = run_traversal(g, RunConfig(start=g.id_of("b")), trace=True)
    assert res.processing_order[0] == g.id_of("b")
    with pytest.raises(ValueError):
        run_traversal(g, RunConfig(start=5))


def test_start_out_of_range_on_empty_graph():
    with pytest.raises(ValueError):
        run_traversal(Graph.from_edges([]), RunConfig(start=3))
    with pytest.raises(ValueError):
        detect(Graph.from_edges([]), RunConfig(start=3))


def test_every_node_categorized_both_methods():
    rng = random.Random(1)
    for method in ("ins", "cond"):
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 20), rng.random())
            res = run_traversal(g, RunConfig(method=method, threshold=0.6), trace=True)
            # Every label is the id of a node that carries its own id.
            assert all(res.community[c] == c for c in res.community)
            assert sorted(res.discovery_order) == list(range(g.n))


def test_disconnected_graph_restarts_from_lowest_degree():
    g = graph("a b\nb c\na c\nx y\n")  # component {a,b,c} and edge {x,y}
    res = run_traversal(g, RunConfig(), trace=True)
    assert all(res.community[c] == c for c in res.community)
    # The second component's entry node is again a broker with score 0.
    starts = [v for v in (g.id_of("x"), g.id_of("y")) if res.ins[v] == 0.0]
    assert starts, "restart node must carry score 0"


def test_queue_drains_before_stack():
    # c's two neighbors a and b each keep an uncovered pendant, so both score
    # 1/2 < 0.75 and go on the stack (a below b).  Popping b discovers the
    # community node y, which must be processed before a is popped.
    g = graph("c a\nc b\na x\nb y\n")
    res = run_traversal(g, RunConfig(threshold=0.75, start=g.id_of("c")), trace=True)
    # x is covered while a is processed, which completes the cover, so x
    # itself is never popped.
    ids = [g.id_of(x) for x in ("c", "b", "y", "a")]
    assert res.processing_order == ids


def test_threshold_is_strict_lower_bound():
    # A node with score exactly r is a community node (broker iff score < r).
    g = graph("a b\nb c\n")
    res = run_traversal(g, RunConfig(threshold=0.5, start=g.id_of("a")), trace=True)
    b = g.id_of("b")
    assert res.ins[b] == pytest.approx(0.5)
    assert res.node_type[b] == NodeType.COMMUNITY


def test_community_labels_follow_discovering_broker():
    g = graph("a b\na c\nb c\nc d\n")
    res = run_traversal(g, RunConfig(threshold=0.5, start=g.id_of("a")))
    a, b, c = g.id_of("a"), g.id_of("b"), g.id_of("c")
    assert res.community[b] == res.community[c] == res.community[a]


def test_inspection_counter_bound():
    rng = random.Random(2)
    for method in ("ins", "cond"):
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 25), rng.random())
            res = run_traversal(g, RunConfig(method=method), trace=True)
            expected = sum(1 + g.degree(v) for v in res.processing_order)
            assert res.inspections == expected
            assert res.inspections <= 2 * g.m + g.n


def test_traversal_deterministic():
    rng = random.Random(3)
    g = random_graph(rng, 30, 0.2)
    a = run_traversal(g, RunConfig(threshold=0.7), trace=True)
    b = run_traversal(g, RunConfig(threshold=0.7), trace=True)
    assert a.community == b.community
    assert a.discovery_order == b.discovery_order


def test_empty_graph():
    res = run_traversal(Graph.from_edges([]), RunConfig())
    assert res.community == [] and res.inspections == 0


def test_cond_method_covers_only_processed_frontier():
    # COND marks nodes covered when categorized, not by spreading; still every
    # node ends up categorized exactly once.
    g = graph("a b\nb c\nc d\nd a\n")
    res = run_traversal(g, RunConfig(method="cond"), trace=True)
    assert sorted(res.discovery_order) == list(range(g.n))
    assert res.ins.count(0.0) == 1 and res.ins.count(None) == 3
