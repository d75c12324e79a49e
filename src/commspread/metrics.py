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
    return cover_stats(g, cover).modularity


@dataclass
class CoverStats:
    sizes: dict[int, int]
    modularity: float
    conductances: dict[int, float]


def cover_stats(g: Graph, cover: Cover) -> CoverStats:
    """Size and quality statistics for a cover from one pass over the edges.

    A community's volume is the sum of its members' strengths, self-loops
    included, as in the modularity.  Its conductance is its cut weight over
    the smaller of its volume and the rest of the volume, or 0 when that
    minimum is 0.
    """
    assign = cover.assignment
    if UNASSIGNED in assign:
        raise ValueError("modularity requires every node to carry a label")
    adj, weights, loops = g.adj, g.weights, g.self_loops
    strength = [sum(ws) + loop for ws, loop in zip(weights, loops)]
    w2 = sum(strength)
    sizes: dict[int, int] = {}
    volume: dict[int, float] = {}
    internal: dict[int, float] = {}
    cut: dict[int, float] = {}
    for v, c in enumerate(assign):
        sizes[c] = sizes.get(c, 0) + 1
        volume[c] = volume.get(c, 0.0) + strength[v]
        inside = internal.get(c, 0.0) + loops[v]
        outside = cut.get(c, 0.0)
        for u, w in zip(adj[v], weights[v]):
            if assign[u] == c:
                inside += w
            else:
                outside += w
        internal[c] = inside
        cut[c] = outside
    q = sum(internal[c] / w2 - (volume[c] / w2) ** 2 for c in volume) if w2 else 0.0
    conductances = {}
    for c, vol in volume.items():
        denom = min(vol, w2 - vol)
        conductances[c] = cut[c] / denom if denom > 0 else 0.0
    return CoverStats(
        sizes=sizes,
        modularity=q,
        conductances=conductances,
    )
