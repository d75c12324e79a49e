"""Reference community detection algorithms for comparative runs."""

from __future__ import annotations

import random

from .cover import Cover, finalize
from .graph import Graph
from .refine import maximize_modularity, reduce_graph

LPA_MAX_PASSES = 100


def label_propagation(g: Graph, seed: int) -> Cover:
    """Asynchronous label propagation with a seeded visit order.

    Each node adopts the most frequent label among its neighbors (ties go to
    the smallest label); iteration stops when a full pass changes nothing or
    after ``LPA_MAX_PASSES`` passes.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    labels = list(range(g.n))
    order = list(range(g.n))
    for _ in range(LPA_MAX_PASSES):
        rng.shuffle(order)
        changed = False
        for v in order:
            if not g.adj[v]:
                continue
            counts: dict[int, int] = {}
            for u in g.adj[v]:
                counts[labels[u]] = counts.get(labels[u], 0) + 1
            best = min(counts, key=lambda c: (-counts[c], c))
            if best != labels[v]:
                labels[v] = best
                changed = True
        if not changed:
            break
    return finalize(Cover(labels))


def louvain(g: Graph) -> Cover:
    """Greedy multilevel modularity maximization from the singleton cover."""
    return finalize(maximize_modularity(reduce_graph(g, Cover.singletons(g))))
