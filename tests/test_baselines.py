"""The Louvain baseline: greedy multilevel modularity maximization."""

import pytest

from commspread import Cover, louvain, modularity

from conftest import graph, load_dataset
from oracles import communities, edges, graph_from_edges


TWO_CLIQUES = (
    "a b\na c\na d\nb c\nb d\nc d\n"
    "e f\ne g\ne h\nf g\nf h\ng h\n"
    "d e\n"
)


def test_louvain_finds_cliques():
    g = graph(TWO_CLIQUES)
    cover = louvain(g)
    comms = sorted(sorted(m) for m in communities(cover).values())
    assert comms == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_louvain_quality_on_karate(karate):
    q = modularity(karate, louvain(karate))
    assert q >= 0.40  # known greedy optimum is ~0.42


def test_louvain_empty_graph():
    assert louvain(graph_from_edges([])).assignment == []


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
