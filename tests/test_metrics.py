"""Modularity and conductance measures against independent references."""

import random

import pytest

from commspread import Cover, Graph, cover_stats, louvain, modularity
from commspread.cover import UNASSIGNED

from conftest import graph, random_graph, random_partition
from oracles import communities, edges, exact_conductance, graph_from_edges, weighted_graph

nx = pytest.importorskip("networkx")


def to_networkx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges(g))
    return h


def test_modularity_hand_value():
    # Two triangles joined by one edge, split at the bridge:
    # Q = 6/7 - (7/14)^2 - (7/14)^2 = 5/14.
    g = graph("a b\nb c\nc a\nd e\ne f\nf d\nc d\n")
    cover = Cover([0, 0, 0, 1, 1, 1])
    assert modularity(g, cover) == pytest.approx(5 / 14)


def test_modularity_single_community_is_zero():
    g = graph("a b\nb c\n")
    assert modularity(g, Cover([0, 0, 0])) == pytest.approx(0.0)


def test_modularity_rejects_unassigned():
    g = graph("a b\n")
    with pytest.raises(ValueError):
        modularity(g, Cover([0, UNASSIGNED]))


def test_modularity_empty_graph_is_zero():
    g = graph_from_edges([], extra_nodes=["a"])
    assert modularity(g, Cover([0])) == 0.0


def test_modularity_matches_networkx_random():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 20), rng.uniform(0.1, 0.8))
        if g.m == 0:
            continue
        part = random_partition(rng, g.n, rng.randrange(1, 5))
        cover = Cover(part)
        groups = [set(mem) for mem in communities(cover).values()]
        expected = nx.algorithms.community.modularity(to_networkx(g), groups)
        assert modularity(g, cover) == pytest.approx(expected, abs=1e-12)


def set_partitions(n: int):
    """All partitions of range(n) as restricted-growth label strings."""

    def grow(labels: list[int], used: int):
        if len(labels) == n:
            yield tuple(labels)
            return
        for c in range(used + 1):
            labels.append(c)
            yield from grow(labels, max(used, c + 1))
            labels.pop()

    yield from grow([], 0)


def test_louvain_reaches_near_optimal_modularity_small():
    # Exhaustive search over all partitions of n <= 8 nodes gives the true
    # optimum; greedy maximization must land within 90% of it.
    rng = random.Random(22)
    trials = 0
    while trials < 8:
        g = random_graph(rng, rng.randrange(4, 9), rng.uniform(0.3, 0.8))
        if g.m == 0:
            continue
        trials += 1
        best = 0.0
        for labels in set_partitions(g.n):
            q = modularity(g, Cover(list(labels)))
            best = max(best, q)
        got = modularity(g, louvain(g))
        assert got >= 0.9 * best - 1e-12


def test_cover_stats_fields():
    g = graph("a b\nb c\nc a\nd e\ne f\nf d\nc d\n")
    cover = Cover([0, 0, 0, 1, 1, 1])
    stats = cover_stats(g, cover)
    assert len(stats.sizes) == 2
    assert stats.sizes == {0: 3, 1: 3}
    assert stats.modularity == pytest.approx(5 / 14)
    assert stats.conductances[0] == pytest.approx(1 / 7)
    assert stats.conductances[1] == pytest.approx(1 / 7)


def test_cover_stats_conductance_equals_exact_oracle():
    # Both sides are correctly rounded quotients of the same rationals, so
    # they compare exactly: the fractional copy's weights and self-loops are
    # multiples of 1/8, whose float sums here are exact.  One-community
    # covers leave volume 0 outside, and the last two nodes are isolated.
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randrange(1, 16)
        p = rng.uniform(0.0, 0.7)
        pairs = [(str(u), str(v)) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = graph_from_edges(pairs, extra_nodes=[str(v) for v in range(n + 2)])
        fractional = weighted_graph(
            {e: rng.randrange(1, 17) / 8 for e in edges(g)},
            [rng.randrange(0, 17) / 8 for _ in range(g.n)],
        )
        k = 1 if trial % 5 == 0 else rng.randrange(1, g.n + 1)
        cover = Cover(random_partition(rng, g.n, k))
        members = communities(cover)
        for level in (g, fractional):
            stats = cover_stats(level, cover)
            assert stats.sizes == {c: len(mem) for c, mem in members.items()}
            for c, mem in members.items():
                assert stats.conductances[c] == float(exact_conductance(level, mem))


def test_cover_stats_conductance_uses_strength_volumes():
    # Path a-b-c-d with weights 1, 3 and 1: each half has volume 5 of 10
    # and is cut by weight 3.
    g = weighted_graph({(0, 1): 1.0, (1, 2): 3.0, (2, 3): 1.0}, [0.0] * 4)
    assert cover_stats(g, Cover([0, 0, 1, 1])).conductances == {0: 3 / 5, 1: 3 / 5}
