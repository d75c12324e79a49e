"""Traversal engine: frontier discipline, scoring, restarts, instrumentation."""

import random

import pytest

from commspread import RunConfig, detect, run_traversal
from commspread.traversal import NodeType

from conftest import graph, random_graph
from oracles import graph_from_edges


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(method="bogus")
    with pytest.raises(ValueError):
        RunConfig(threshold=1.5)


def test_start_defaults_to_lowest_degree_node():
    g = graph("a b\nb c\nc d\nc a\n")  # degrees a2 b2 c3 d1
    res = run_traversal(g, RunConfig(), trace=True)
    assert res.processing_order[0] == g.labels.index("d")
    assert res.node_type[g.labels.index("d")] == NodeType.BROKER
    assert res.ins[g.labels.index("d")] == 0.0


def test_start_override_and_range_check():
    g = graph("a b\nb c\n")
    res = run_traversal(g, RunConfig(start=g.labels.index("b")), trace=True)
    assert res.processing_order[0] == g.labels.index("b")
    with pytest.raises(ValueError):
        run_traversal(g, RunConfig(start=5))


def test_start_out_of_range_on_empty_graph():
    with pytest.raises(ValueError):
        run_traversal(graph_from_edges([]), RunConfig(start=3))
    with pytest.raises(ValueError):
        detect(graph_from_edges([]), RunConfig(start=3))


def test_disconnected_graph_restarts_from_lowest_degree():
    g = graph("a b\nb c\na c\nx y\n")  # component {a,b,c} and edge {x,y}
    res = run_traversal(g, RunConfig(), trace=True)
    assert all(res.community[c] == c for c in res.community)
    # The second component's entry node is again a broker with score 0.
    starts = [v for v in (g.labels.index("x"), g.labels.index("y")) if res.ins[v] == 0.0]
    assert starts, "restart node must carry score 0"


def test_queue_drains_before_stack():
    # c's two neighbors a and b each keep an uncovered pendant, so both score
    # 1/2 < 0.75 and go on the stack (a below b).  Popping b discovers the
    # community node y, which must be processed before a is popped.
    g = graph("c a\nc b\na x\nb y\n")
    res = run_traversal(g, RunConfig(threshold=0.75, start=g.labels.index("c")), trace=True)
    # x is covered while a is processed, which completes the cover, so x
    # itself is never popped.
    ids = [g.labels.index(x) for x in ("c", "b", "y", "a")]
    assert res.processing_order == ids


def test_threshold_is_strict_lower_bound():
    # A node with score exactly r is a community node (broker iff score < r).
    g = graph("a b\nb c\n")
    res = run_traversal(g, RunConfig(threshold=0.5, start=g.labels.index("a")), trace=True)
    b = g.labels.index("b")
    assert res.ins[b] == pytest.approx(0.5)
    assert res.node_type[b] == NodeType.COMMUNITY


def test_community_labels_follow_discovering_broker():
    g = graph("a b\na c\nb c\nc d\n")
    res = run_traversal(g, RunConfig(threshold=0.5, start=g.labels.index("a")))
    a, b, c = g.labels.index("a"), g.labels.index("b"), g.labels.index("c")
    assert res.community[b] == res.community[c] == res.community[a]


def test_inspection_counter_bound():
    rng = random.Random(2)
    for method in ("ins", "cond"):
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 25), rng.random())
            res = run_traversal(g, RunConfig(method=method), trace=True)
            expected = sum(1 + len(g.adj[v]) for v in res.processing_order)
            assert res.inspections == expected
            assert res.inspections <= 2 * g.m + g.n


def test_empty_graph():
    res = run_traversal(graph_from_edges([]), RunConfig())
    assert res.community == [] and res.inspections == 0


def test_cond_method_covers_only_processed_frontier():
    # COND marks nodes covered when categorized, not by spreading; still every
    # node ends up categorized exactly once.
    g = graph("a b\nb c\nc d\nd a\n")
    res = run_traversal(g, RunConfig(method="cond"), trace=True)
    assert sorted(res.discovery_order) == list(range(g.n))
    assert res.ins.count(0.0) == 1 and res.ins.count(None) == 3
