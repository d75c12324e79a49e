"""End-to-end detection pipeline invariants."""

import random

from commspread import Graph, RunConfig, detect, modularity

from conftest import random_graph


def test_empty_graph():
    result = detect(Graph.from_edges([]), RunConfig())
    assert result.cover.assignment == [] and result.cover.k == 0


def test_cover_is_complete_and_dense_random():
    rng = random.Random(41)
    for method in ("ins", "cond"):
        for _ in range(10):
            g = random_graph(rng, rng.randrange(1, 40), rng.uniform(0.05, 0.5))
            result = detect(g, RunConfig(method=method, threshold=0.7))
            assert len(result.cover.assignment) == g.n
            labels = set(result.cover.assignment)
            assert labels == set(range(len(labels)))  # finalized 0..k-1


def test_modmax_never_hurts_random():
    rng = random.Random(42)
    for method in ("ins", "cond"):
        for _ in range(10):
            g = random_graph(rng, rng.randrange(2, 40), rng.uniform(0.05, 0.5))
            full = detect(g, RunConfig(method=method, threshold=0.7))
            skip = detect(g, RunConfig(method=method, threshold=0.7, run_modmax=False))
            assert modularity(g, full.cover) >= modularity(g, skip.cover) - 1e-12


def test_detect_deterministic(karate):
    a = detect(karate, RunConfig(threshold=0.75))
    b = detect(karate, RunConfig(threshold=0.75))
    assert a.cover.assignment == b.cover.assignment
