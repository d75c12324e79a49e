"""The Louvain baseline: greedy multilevel modularity maximization."""

from __future__ import annotations

from .cover import Cover, finalize
from .graph import Graph
from .refine import maximize_modularity, reduce_graph


def louvain(g: Graph) -> Cover:
    """Greedy multilevel modularity maximization from the singleton cover."""
    return finalize(maximize_modularity(reduce_graph(g, Cover.singletons(g))))
