"""Post-traversal refinement: broker allocation, graph contraction and
greedy modularity maximization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cover import UNASSIGNED, Cover
from .graph import Graph
from .traversal import NodeType, TraversalResult

MOVE_TOLERANCE = 1e-12


def initial_cover(result: TraversalResult) -> Cover:
    """Cover induced by the traversal labels (brokers keep their own id)."""
    return Cover(list(result.community))


def post_process(g: Graph, cover: Cover, node_type: list[NodeType]) -> Cover:
    """Allocate brokers to seeded communities by belonging probability.

    A community is eligible when it contains at least one community-type
    node; its seeding broker retains its own label.  Every other broker joins
    the eligible community maximizing |neighbors in community| / |community|.
    A tie between maximizing communities, or the absence of any neighbor in
    an eligible community, leaves the broker unassigned for the modularity
    maximization stage.  Eligibility and probabilities are evaluated against
    the static initial cover.
    """
    labels = cover.assignment
    size = Counter(labels)
    eligible = {c for c, t in zip(labels, node_type) if t == NodeType.COMMUNITY}
    assignment = list(labels)
    for v, t in enumerate(node_type):
        if t != NodeType.BROKER or labels[v] in eligible:
            continue  # community nodes and seeding brokers keep their label
        hits = Counter(labels[u] for u in g.adj[v] if labels[u] in eligible)
        p = {c: h / size[c] for c, h in hits.items()}
        top = max(p.values(), default=0.0)
        best = [c for c in p if p[c] == top]
        assignment[v] = best[0] if len(best) == 1 else UNASSIGNED
    return Cover(assignment)


@dataclass
class ReducedGraph:
    """Weighted super-vertex graph obtained by contracting a cover.

    ``label_map[s]`` is the contracted community label of super-vertex ``s``,
    ``member_map[v]`` the super-vertex of the input graph's node ``v``.
    """

    graph: Graph
    label_map: list[int]
    member_map: list[int]


def reduce_graph(g: Graph, cover: Cover) -> ReducedGraph:
    """Contract each community to a super-vertex.

    Intra-community weight becomes a self-loop of twice the internal edge
    weight (pre-existing self-loops carry over), inter-community weight
    becomes a cross edge; total weight is conserved.  Unassigned nodes are
    promoted to singleton communities first.  Super-vertices are ordered by
    the smallest member id of their community.
    """
    # Ascending node order meets each community first at its smallest member.
    super_of_label: dict[int, int] = {}
    node_super = [
        super_of_label.setdefault(c, len(super_of_label))
        for c in cover.with_singletons().assignment
    ]

    self_loops = [0.0] * len(super_of_label)
    cross: dict[tuple[int, int], float] = {}
    adj, weights, loops = g.adj, g.weights, g.self_loops
    for v in range(g.n):
        cv = node_super[v]
        self_loops[cv] += loops[v]
        for u, w in zip(adj[v], weights[v]):
            if u < v:
                continue
            cu = node_super[u]
            if cu == cv:
                self_loops[cu] += 2.0 * w
            else:
                key = (cu, cv) if cu < cv else (cv, cu)
                cross[key] = cross.get(key, 0.0) + w

    return ReducedGraph(
        graph=Graph.weighted(len(self_loops), cross, self_loops),
        label_map=list(super_of_label),
        member_map=node_super,
    )


def _local_moves(g: Graph, initial: list[int] | None = None) -> list[int]:
    """One level of greedy moves starting from ``initial`` (default singletons).

    Sweeps vertices in ascending id; each vertex takes the neighbor community
    with the largest positive gain (ties: smallest community label).  Stops
    when a full sweep makes no move.
    """
    n = g.n
    partition = list(range(n)) if initial is None else list(initial)
    strength = [g.strength(v) for v in range(n)]
    tot: dict[int, float] = {}
    for v in range(n):
        tot[partition[v]] = tot.get(partition[v], 0.0) + strength[v]
    w2 = sum(strength)
    if w2 == 0:
        return partition

    adj, weights = g.adj, g.weights
    moved = True
    while moved:
        moved = False
        for v in range(n):
            cur = partition[v]
            weight_to: dict[int, float] = {}
            for u, w in zip(adj[v], weights[v]):
                weight_to[partition[u]] = weight_to.get(partition[u], 0.0) + w
            in_cur = weight_to.get(cur, 0.0)
            tot_cur_less = tot[cur] - strength[v]
            # Candidates in ascending label order, so the first maximal gain
            # seen is already the smallest-label tie winner.
            best_c, best_gain = cur, 0.0
            for c in sorted(weight_to):
                if c == cur:
                    continue
                gain = 2.0 * (weight_to[c] - in_cur) / w2 - 2.0 * strength[v] * (
                    tot[c] - tot_cur_less
                ) / (w2 * w2)
                if gain > best_gain + MOVE_TOLERANCE:
                    best_c, best_gain = c, gain
            if best_c != cur and best_gain > MOVE_TOLERANCE:
                partition[v] = best_c
                tot[cur] -= strength[v]
                tot[best_c] += strength[v]
                moved = True
    return partition


def refine_cover(g: Graph, cover: Cover) -> Cover:
    """Multilevel greedy modularity maximization seeded from ``cover``.

    Runs node-level move sweeps on ``g`` starting from the cover (unassigned
    nodes enter as singletons), then contracts the result and continues with
    super-vertex sweeps until no level improves.  Communities keep the label
    of their smallest original member's seed community.
    """
    partition = _local_moves(g, cover.with_singletons().assignment)
    return maximize_modularity(reduce_graph(g, Cover(partition)))


def maximize_modularity(rg: ReducedGraph) -> Cover:
    """Multilevel greedy modularity maximization over a reduced graph.

    Runs local move sweeps, contracts the resulting partition, and repeats
    until a level makes no move.  Returns a cover over the original node ids
    that entered :func:`reduce_graph`, labeled by community label of the
    smallest original member.
    """
    node_super = rg.member_map  # original node -> current-level vertex
    level = rg.graph
    while True:
        partition = _local_moves(level)
        if partition == list(range(level.n)):
            break
        contracted = reduce_graph(level, Cover(partition))
        node_super = [contracted.member_map[s] for s in node_super]
        level = contracted.graph

    # Label each final community by the traversal label of its smallest
    # member, which ascending node order meets first.
    label_of: dict[int, int] = {}
    for v, s in enumerate(node_super):
        label_of.setdefault(s, rg.label_map[rg.member_map[v]])
    return Cover([label_of[s] for s in node_super])
