"""Post-traversal refinement: broker allocation, graph contraction and
greedy modularity maximization."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, _count_elements, deque
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
    BROKER, COMMUNITY = NodeType.BROKER, NodeType.COMMUNITY
    eligible = {c for c, t in zip(labels, node_type) if t == COMMUNITY}
    assignment = list(labels)
    adj = g.adj
    label_of = labels.__getitem__
    for v, t in enumerate(node_type):
        if t != BROKER or labels[v] in eligible:
            continue  # community nodes and seeding brokers keep their label
        hits: dict[int, int] = {}
        _count_elements(hits, map(label_of, adj[v]))
        best, top, ties = UNASSIGNED, 0.0, 0
        for c, h in hits.items():
            if c in eligible:
                p = h / size[c]
                if p > top:
                    best, top, ties = c, p, 1
                elif p == top:
                    ties += 1
        assignment[v] = best if ties == 1 else UNASSIGNED
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
    the smallest member id of their community.  A cover of singletons
    contracts to ``g`` itself, not to a copy.
    """
    # Ascending node order meets each community first at its smallest member.
    super_of_label: dict[int, int] = {}
    node_super = [
        super_of_label.setdefault(c, len(super_of_label))
        for c in cover.with_singletons().assignment
    ]
    if len(super_of_label) == g.n:
        # Every community is one node: the contraction would copy g exactly.
        return ReducedGraph(graph=g, label_map=list(super_of_label), member_map=node_super)

    k = len(super_of_label)
    self_loops = [0.0] * k
    # rows[a][b] is the cross weight between super-vertices a < b, summed in
    # the order the edges are met: ascending v, then ascending u > v.
    rows: list[dict[int, float]] = [{} for _ in range(k)]
    adj, weights, loops = g.adj, g.weights, g.self_loops
    for v in range(g.n):
        cv = node_super[v]
        own = rows[cv]
        loop = self_loops[cv] + loops[v]
        nbrs = adj[v]
        above = bisect_right(nbrs, v)  # meet each edge once, from its lower end
        for u, w in zip(nbrs[above:], weights[v][above:]):
            cu = node_super[u]
            if cu == cv:
                loop += 2.0 * w
            elif cu > cv:
                own[cu] = own.get(cu, 0.0) + w
            else:
                row = rows[cu]
                row[cv] = row.get(cv, 0.0) + w
        self_loops[cv] = loop

    # Appending the rows in ascending (a, b) order leaves every list sorted:
    # list a holds its lower neighbors, appended from earlier rows, before
    # its own row.
    out_adj: list[list[int]] = [[] for _ in range(k)]
    out_weights: list[list[float]] = [[] for _ in range(k)]
    for a, row in enumerate(rows):
        ends = sorted(row)
        ws = list(map(row.__getitem__, ends))
        out_adj[a] += ends
        out_weights[a] += ws
        for b, w in zip(ends, ws):
            out_adj[b].append(a)
            out_weights[b].append(w)

    return ReducedGraph(
        graph=Graph(adj=out_adj, weights=out_weights, self_loops=self_loops, labels=[]),
        label_map=list(super_of_label),
        member_map=node_super,
    )


def _local_moves(g: Graph, initial: list[int] | None = None) -> list[int]:
    """One level of greedy moves starting from ``initial`` (default singletons).

    The labels of ``initial`` index a list of community totals, so they must
    be non-negative and not much above ``n``.

    A FIFO queue holds the vertices to evaluate, first ``0..n-1`` in
    ascending order.  A popped vertex takes the neighbor community with the
    largest gain over staying, if that gain exceeds the tolerance (ties:
    smallest community label); when it moves, its neighbors outside the
    new community join the queue unless already queued.  A move also changes
    a community total, which affects vertices that are not neighbors, so
    when the queue empties after a move it is refilled with ``0..n-1``: the
    level ends only after a full pass in which no vertex moved.

    Closing passes after the first evaluate only dirty vertices.  The first
    refill marks every vertex dirty, evaluating a vertex clears its mark,
    and from then on a move of ``y`` from community ``A`` to ``B`` marks
    (a) every neighbor of ``y``, whose weights to ``A`` and ``B`` changed;
    (b) every member of ``B``, ``y`` included, whose stay term fell as the
    total of ``B`` grew; (c) every vertex outside ``A`` adjacent to a
    member of ``A``, whose gain for joining ``A`` rose as its total fell.
    Any other vertex sees only its stay term rise or an alternative's total
    grow.  Float subtraction and multiplication are monotone, so it would
    again compute "stay", and skipping it makes the same moves in the same
    order as evaluating every vertex of every closing pass.
    """
    n = g.n
    partition = list(range(n)) if initial is None else list(initial)
    adj, weights = g.adj, g.weights
    strength = [sum(ws) + loop for ws, loop in zip(weights, g.self_loops)]
    # Totals are indexed by label.
    tot = [0.0] * (max(partition, default=-1) + 1)
    for c, s in zip(partition, strength):
        tot[c] += s
    w2 = sum(strength)
    if w2 == 0:
        return partition

    # Moving v from cur to c changes Q by 2/w2 times the difference of the
    # reduced gains k_{v,c} - s_v tot_c / w2 (totals exclude v), so the
    # tolerance on Q is MOVE_TOLERANCE * w2 / 2 on that scale.
    tolerance = MOVE_TOLERANCE * w2 / 2.0
    queue = deque(range(n))
    queued = [True] * n
    moved = False
    # Set at the first refill: the dirty marks and each community's members.
    dirty: bytearray | None = None
    members: dict[int, list[int]] = {}
    # On a unit-weight level the weight to a community is its neighbor
    # count, counted at C speed; integer counts convert to float exactly,
    # so every gain and tie is the one the weighted sum would give.
    unit = all(ws.count(1.0) == len(ws) for ws in weights)
    label_of = partition.__getitem__
    while queue or moved:
        if not queue:
            if dirty is None:
                dirty = bytearray(b"\x01") * n
                for u, c in enumerate(partition):
                    members.setdefault(c, []).append(u)
            queue.extend(range(n))
            queued = [True] * n
            moved = False
        v = queue.popleft()
        queued[v] = False
        if dirty is not None:
            if not dirty[v]:
                continue
            dirty[v] = 0
        cur = partition[v]
        weight_to: dict[int, float] = {}
        if unit:
            _count_elements(weight_to, map(label_of, adj[v]))
        else:
            for u, w in zip(adj[v], weights[v]):
                c = partition[u]
                weight_to[c] = weight_to.get(c, 0.0) + w
        s_frac = strength[v] / w2
        stay = weight_to.pop(cur, 0.0) - (tot[cur] - strength[v]) * s_frac
        best_c, best_gain = cur, stay
        for c, k in weight_to.items():
            gain = k - tot[c] * s_frac
            if gain > best_gain or (gain == best_gain and c < best_c):
                best_c, best_gain = c, gain
        if best_gain - stay > tolerance:
            partition[v] = best_c
            tot[cur] -= strength[v]
            tot[best_c] += strength[v]
            moved = True
            for u in adj[v]:
                if not queued[u] and partition[u] != best_c:
                    queued[u] = True
                    queue.append(u)
            if dirty is not None:
                for u in adj[v]:  # (a)
                    dirty[u] = 1
                joined = members[best_c]
                joined.append(v)
                for u in joined:  # (b)
                    dirty[u] = 1
                left = members[cur]
                left.remove(v)
                for x in left:  # (c)
                    for u in adj[x]:
                        if partition[u] != cur:
                            dirty[u] = 1
    return partition


def refine_cover(g: Graph, cover: Cover) -> Cover:
    """Multilevel greedy modularity maximization seeded from ``cover``.

    Runs the queue-driven local moves of :func:`_local_moves` on ``g``
    starting from the cover (unassigned nodes enter as singletons), then
    contracts the result and continues on the super-vertex levels of
    :func:`maximize_modularity`.  Communities keep the label of their
    smallest original member's seed community.  As in :func:`_local_moves`,
    labels must be non-negative and not much above ``n``.
    """
    partition = _local_moves(g, cover.with_singletons().assignment)
    return maximize_modularity(reduce_graph(g, Cover(partition)))


def maximize_modularity(rg: ReducedGraph) -> Cover:
    """Multilevel greedy modularity maximization over a reduced graph.

    Runs :func:`_local_moves` from singletons on each level, contracts the
    resulting partition, and repeats until a level ends with every vertex
    still a singleton, that is, after a full pass in which no vertex moved.
    Returns a cover over the original node ids that entered
    :func:`reduce_graph`, labeled by community label of the smallest
    original member.
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
