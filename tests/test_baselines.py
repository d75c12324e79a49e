"""Reference algorithms: label propagation and greedy modularity baseline."""

import random

import pytest

from commspread import Cover, Graph, label_propagation, louvain, modularity

from conftest import graph, load_dataset, random_graph
from oracles import communities, edges


TWO_CLIQUES = (
    "a b\na c\na d\nb c\nb d\nc d\n"
    "e f\ne g\ne h\nf g\nf h\ng h\n"
    "d e\n"
)


def test_label_propagation_finds_cliques():
    g = graph(TWO_CLIQUES)
    cover = label_propagation(g, seed=0)
    comms = sorted(sorted(m) for m in communities(cover).values())
    assert comms == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_label_propagation_deterministic_per_seed():
    rng = random.Random(31)
    g = random_graph(rng, 40, 0.15)
    a = label_propagation(g, seed=7)
    b = label_propagation(g, seed=7)
    assert a.assignment == b.assignment


def test_label_propagation_covers_all_nodes():
    rng = random.Random(32)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(1, 30), rng.random())
        cover = label_propagation(g, seed=1)
        assert len(cover.assignment) == g.n
        assert not cover.unassigned


def test_louvain_finds_cliques():
    g = graph(TWO_CLIQUES)
    cover = louvain(g)
    comms = sorted(sorted(m) for m in communities(cover).values())
    assert comms == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_louvain_quality_on_karate(karate):
    q = modularity(karate, louvain(karate))
    assert q >= 0.40  # known greedy optimum is ~0.42


def test_louvain_empty_graph():
    assert louvain(Graph.from_edges([])).assignment == []


@pytest.mark.parametrize("name", ["karate", "lesmis", "walkthrough13"])
def test_louvain_matches_networkx(name):
    nx = pytest.importorskip("networkx")
    g = load_dataset(name)
    ng = nx.Graph(edges(g))
    ng.add_nodes_from(range(g.n))
    best = 0.0
    for seed in range(5):
        label = [0] * g.n
        for c, members in enumerate(nx.community.louvain_communities(ng, seed=seed)):
            for v in members:
                label[v] = c
        best = max(best, modularity(g, Cover(label)))
    assert modularity(g, louvain(g)) >= best - 0.01
