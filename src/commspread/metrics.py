"""Cover quality measures: modularity, conductance and cover statistics."""

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


def conductance_oracle(g: Graph, members: set[int]) -> float:
    """Set conductance by direct enumeration of the full edge set.

    Independent of any incremental cut bookkeeping; defined as 0 when the
    smaller side of the cut has volume 0.
    """
    cut = 0
    for u, v in g.edges():
        if (u in members) != (v in members):
            cut += 1
    volume = sum(g.degree(v) for v in members)
    denom = min(volume, 2 * g.m - volume)
    if denom <= 0:
        return 0.0
    return cut / denom


@dataclass
class CoverStats:
    community_count: int
    sizes: dict[int, int]
    modularity: float
    conductances: dict[int, float]


def cover_stats(g: Graph, cover: Cover) -> CoverStats:
    """Aggregate size and quality statistics for a cover."""
    members = cover.communities()
    return CoverStats(
        community_count=len(members),
        sizes={c: len(mem) for c, mem in members.items()},
        modularity=modularity(g, cover),
        conductances={c: conductance_oracle(g, mem) for c, mem in members.items()},
    )
