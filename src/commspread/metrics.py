"""Cover quality measures: modularity and cover statistics."""

from __future__ import annotations

from dataclasses import dataclass

from .cover import UNASSIGNED, Cover
from .graph import Graph


def modularity(g: Graph, cover: Cover) -> float:
    """Newman modularity of a disjoint cover; 0 on graphs with no weight.

    On weighted graphs a self-loop contributes its full weight both to its
    community's internal weight and to its vertex strength, which makes
    modularity invariant under the contraction in
    :func:`commspread.refine.reduce_graph`.
    """
    assign = cover.assignment
    if UNASSIGNED in assign:
        raise ValueError("modularity requires every node to carry a label")
    w2 = g.total_weight()
    if w2 == 0:
        return 0.0
    internal: dict[int, float] = {}
    volume: dict[int, float] = {}
    adj, weights, loops = g.adj, g.weights, g.self_loops
    for v in range(g.n):
        c = assign[v]
        volume[c] = volume.get(c, 0.0) + g.strength(v)
        internal[c] = internal.get(c, 0.0) + loops[v]
        for u, w in zip(adj[v], weights[v]):
            if assign[u] == c:
                internal[c] = internal.get(c, 0.0) + w
    return sum(
        internal.get(c, 0.0) / w2 - (volume[c] / w2) ** 2 for c in volume
    )


@dataclass
class CoverStats:
    community_count: int
    sizes: dict[int, int]
    modularity: float
    conductances: dict[int, float]


def cover_stats(g: Graph, cover: Cover) -> CoverStats:
    """Size and quality statistics for a cover: one edge pass for the
    modularity, a second for the sizes, volumes and cuts.

    A community's conductance is its cut over the smaller of its volume and
    the rest of the volume, or 0 when that minimum is 0.
    """
    q = modularity(g, cover)  # rejects unassigned nodes
    assign = cover.assignment
    sizes: dict[int, int] = {}
    volume: dict[int, int] = {}
    cut: dict[int, int] = {}
    for v, c in enumerate(assign):
        nbrs = g.adj[v]
        sizes[c] = sizes.get(c, 0) + 1
        volume[c] = volume.get(c, 0) + len(nbrs)
        cut[c] = cut.get(c, 0) + sum(1 for u in nbrs if assign[u] != c)
    twom = 2 * g.m
    conductances = {}
    for c, vol in volume.items():
        denom = min(vol, twom - vol)
        conductances[c] = cut[c] / denom if denom > 0 else 0.0
    return CoverStats(
        community_count=len(sizes),
        sizes=sizes,
        modularity=q,
        conductances=conductances,
    )
