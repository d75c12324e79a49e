"""Post-traversal refinement: broker allocation, graph contraction and
greedy modularity maximization."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, _count_elements, defaultdict
from dataclasses import dataclass
from itertools import chain, compress
from math import inf
from operator import add
from typing import Iterable

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
    # Each node's label if that community is eligible, else UNASSIGNED.
    eligible_of = [c if c in eligible else UNASSIGNED for c in labels]
    assignment = list(labels)
    adj = g.adj
    eligible_label = eligible_of.__getitem__
    for v, t in enumerate(node_type):
        if t != BROKER or eligible_of[v] != UNASSIGNED:
            continue  # community nodes and seeding brokers keep their label
        hits: dict[int, int] = {}
        _count_elements(hits, map(eligible_label, adj[v]))
        hits.pop(UNASSIGNED, None)
        best, top, ties = UNASSIGNED, 0.0, 0
        for c, h in hits.items():
            p = h / size[c]
            if p > top:
                best, top, ties = c, p, 1
            elif p == top:
                ties += 1
        assignment[v] = best if ties == 1 else UNASSIGNED
    return Cover(assignment)


class _FloatOf(dict):
    """``table[k]`` is ``float(k)``, one float object per distinct ``k``."""

    def __missing__(self, k: int) -> float:
        w = self[k] = float(k)
        return w


@dataclass
class ReducedGraph:
    """Weighted super-vertex graph obtained by contracting a cover.

    ``member_map[v]`` is the super-vertex of the input graph's node ``v``.
    """

    graph: Graph
    member_map: list[int]


def reduce_graph(g: Graph, cover: Cover) -> ReducedGraph:
    """Contract each community to a super-vertex.

    Intra-community weight becomes a self-loop of twice the internal edge
    weight (pre-existing self-loops carry over), inter-community weight
    becomes a cross edge; total weight is conserved.  Unassigned nodes are
    promoted to singleton communities first.  Super-vertices are ordered by
    the smallest member id of their community.  A cover of singletons
    contracts to ``g`` itself, not to a copy.

    A unit graph (:attr:`Graph.unit`, such as every input graph) is
    contracted by a loop that reads no weight: it adds 2.0 to a self-loop
    per edge, in the same order as the weighted loop, and appends the other
    end of each cross edge to a list at both ends.  A second loop then turns
    each list into its row in one step, at its final size: it counts the
    list into a transient dict, frees the list and emits the sorted ends
    with their counts.  Each count ``k`` becomes ``float(k)``, the float
    sum of ``k`` ones, taken from a table of one float per distinct count,
    so the contracted graph holds the same floats as the weighted loop's
    and no float object per cross pair; the rows whose counts are all 1
    share one weight row per length.  No dict of cross weights outlives
    its row, and no row grows after it is built.
    """
    # Ascending node order meets each community first at its smallest member.
    super_of_label: dict[int, int] = {}
    node_super = [
        super_of_label.setdefault(c, len(super_of_label))
        for c in cover.with_singletons().assignment
    ]
    if len(super_of_label) == g.n:
        # Every community is one node: the contraction would copy g exactly.
        return ReducedGraph(graph=g, member_map=node_super)

    k = len(super_of_label)
    self_loops = [0.0] * k
    adj, weights, loops = g.adj, g.weights, g.self_loops
    if g.unit:
        # The loop below with w = 1.0, without reading a weight; crossing[a]
        # lists the far end of every cross edge at a, once per edge.
        crossing: list[list[int] | None] = [[] for _ in range(k)]
        for v in range(g.n):
            cv = node_super[v]
            own = crossing[cv]
            loop = self_loops[cv] + loops[v]
            nbrs = adj[v]
            above = bisect_right(nbrs, v)  # meet each edge once, from its lower end
            for u in nbrs[above:]:
                cu = node_super[u]
                if cu == cv:
                    loop += 2.0
                else:
                    own.append(cu)
                    crossing[cu].append(cv)
            self_loops[cv] = loop
        weight_of = _FloatOf().__getitem__
        ones = [weight_of(1)]
        # Rows of ones are shared per length, as the loader shares its rows.
        ones_rows: dict[int, list[float]] = {}
        out_adj: list[list[int]] = []
        out_weights: list[list[float]] = []
        for a, ends in enumerate(crossing):
            counts: dict[int, int] = {}
            _count_elements(counts, ends)
            crossing[a] = None
            row = sorted(counts)
            out_adj.append(row)
            d = len(row)
            if d == len(ends):  # every count is 1
                ws = ones_rows.get(d)
                if ws is None:
                    ws = ones_rows[d] = ones * d
            else:
                ws = list(map(weight_of, map(counts.__getitem__, row)))
            out_weights.append(ws)
    else:
        # rows[a][b] is the cross weight between super-vertices a < b, summed
        # in the order the edges are met: ascending v, then ascending u > v.
        rows: list[dict[int, float]] = [{} for _ in range(k)]
        for v in range(g.n):
            cv = node_super[v]
            own = rows[cv]
            loop = self_loops[cv] + loops[v]
            nbrs = adj[v]
            above = bisect_right(nbrs, v)
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

        # Appending the rows in ascending (a, b) order leaves every list
        # sorted: list a holds its lower neighbors, appended from earlier
        # rows, before its own row.
        out_adj = [[] for _ in range(k)]
        out_weights = [[] for _ in range(k)]
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
        member_map=node_super,
    )


def _excess_weights(g: Graph, w2: float) -> dict[int, list[tuple[int, float]]] | None:
    """Each vertex's entries of weight other than 1.0, as (neighbor, weight - 1.0).

    The dict is empty when every weight is 1.0, returned at once on a unit
    graph (:attr:`Graph.unit`) without reading a row.  ``None`` tells
    :func:`_local_moves` to sum weights in a loop instead: on a level with a
    weight that is fractional, negative or not finite, with a total ``w2``
    of ``2**52`` or more, or with more than a quarter of its adjacency
    entries of a weight other than 1.0.

    Every vertex's row is read, a row that several vertices share once per
    holder, until the count passes a quarter of the entries.
    """
    if g.unit:
        return {}
    weights = g.weights
    entries = 2 * g.m
    heavy = 0
    for ws in weights:
        heavy += len(ws) - ws.count(1.0)
        if 4 * heavy > entries:
            return None
    if not w2 < 2.0**52:
        return None
    excess = {}
    for v, (nbrs, ws) in enumerate(zip(g.adj, weights)):
        if ws.count(1.0) != len(ws):
            pairs = [(u, w) for u, w in zip(nbrs, ws) if w != 1.0]
            if not all(w >= 0.0 and w % 1.0 == 0.0 for _, w in pairs):
                return None
            excess[v] = [(u, w - 1.0) for u, w in pairs]
    return excess


def _mark_next_to(
    dirty: bytearray, c: int, members: list[int], adj: list[list[int]], partition: list[int]
) -> None:
    """Mark every vertex outside community ``c`` adjacent to one of its ``members``."""
    for x in members:
        for u in adj[x]:
            if partition[u] != c:
                dirty[u] = 1


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
    level ends only after a full pass in which no vertex moved.  Each pass
    is an ascending scan of ``0..n-1`` followed by a tail, the list of the
    vertices that its moves queue, iterated while it grows.

    Weights to communities.  On a level whose weights are non-negative
    integers, with a total below ``2**52`` and at most a quarter of its
    adjacency entries other than 1.0, one body counts each neighbor's
    community at C speed and adds ``w - 1.0`` per such entry, none on a
    unit level (:func:`_excess_weights`).  Every partial sum is then an
    integer below ``2**53``, exact in floats in any order, so every gain and
    tie is the one of the loop in adjacency order, which the other levels
    keep.  The cut-off is measured: er-ins super-vertex levels above 300
    vertices have 1.4-16 % such entries and count faster; planted ones have
    57-100 %, where counting took about twice as long as the loop.  A unit
    level (:attr:`Graph.unit`), every input graph's level 0, reads no
    weight row: a vertex's strength is ``float(degree)`` plus its
    self-loop, the exact sum of its row of ones.

    A popped vertex is skipped when it is unmarked or while its certificate
    holds.  Each test proves that it would stay, so the moves are those of
    evaluating every popped vertex.

    Marks.  The first refill marks every vertex, a pop clears its mark, and
    from then on a move of ``y`` from community ``A`` to ``B`` marks (a)
    every neighbor of ``y``, whose weights to ``A`` and ``B`` changed; (b)
    every member of ``B``, ``y`` included, whose stay term fell as the total
    of ``B`` grew; (c) every vertex outside ``A`` adjacent to a member of
    ``A``, whose gain for joining ``A`` rose as its total fell.  Rule (c)
    sweeps ``A`` at every loss; a vertex next to a later member of ``A``
    is marked by (a) when that member joins.  Any other vertex sees only
    its stay term rise or an alternative's total grow.
    Float subtraction and multiplication are monotone, so an unmarked
    vertex, which stayed or was proven to stay at its last pop, would stay
    again.  A refill pass therefore scans ``compress(range(n), dirty)``
    instead of ``0..n-1``.  The scan reads each mark only when it reaches
    it, so a vertex marked ahead of the scan is popped at its ascending
    position and one marked behind it waits for the next refill: the pops
    are those of the full pass, in the same order, less unmarked vertices.
    A vertex ahead of the scan is still to be popped, so a move resets its
    certificate as it would a queued vertex's and does not append it to the
    tail.  Every tail vertex was marked by (a) when a move appended it.

    The first pass pays for no marks and tests no certificate: each vertex
    in it is popped for the first time, or again after a move queued it and
    reset its certificate.  So a queued vertex, ahead of the scan or in the
    tail, holds a reset certificate, and a move resets only what it queues.

    Certificate.  It bounds the drift since ``v`` last stayed.  ``moved``
    counts the strength moved, exactly, in units of ``w2 / 2**40``: a move
    of strength ``s`` adds ``int(s * 2**40 / w2) + 2``, over ``s`` and a
    unit.  When ``v`` stays with margin ``M`` over its best alternative,
    ``expires[v] = moved + int(M * 2**39 / s_v)``, or infinity with no
    alternative or no strength.  A move to ``B`` resets the certificates
    of the mover's queued neighbors and of those outside ``B``, which it
    queues; the mover's own had expired.  Until a reset, any neighbor of
    ``v`` that moved joined its community, which with non-negative weights
    only favours staying, even in float sums: a sum in adjacency order is
    monotone in its set of terms.  A move shifts two totals by its
    strength, weighed by ``s_v / w2`` in stay minus a gain, so each unit
    moved costs at most ``s_v * 2**-39`` of the margin, and ``v`` is
    skipped only while ``moved < expires[v]``, a unit short of spending
    ``M``.  That unit, ``2**14 u s_v`` for unit roundoff ``u = 2**-53``,
    covers all rounding: stay and each gain are within ``8 u s_v`` at
    either evaluation; an update of a total rounds by at most
    ``w2 * 2**-52``, below the extra unit of its move; the scalings err by
    a relative ``u``, and ``int`` truncates.  This assumes no underflow or
    overflow, and fewer than ``2**48`` vertices and moves in a level, so
    no total, rounding included, exceeds ``2 w2``.
    """
    n = g.n
    partition = list(range(n)) if initial is None else list(initial)
    adj, weights = g.adj, g.weights
    # A unit row sums to its degree, exactly.
    row_sums = map(float, map(len, adj)) if g.unit else map(sum, weights)
    strength = list(map(add, row_sums, g.self_loops))
    # Equal strengths share one float, one per degree on an input graph, so
    # the level holds its distinct strengths instead of n floats.
    strength = list(map({}.setdefault, strength, strength))
    # Totals are indexed by label; from singletons each is one strength.
    if initial is None:
        tot = list(strength)
    else:
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
    moved = refilled_at = 0
    expires: list[float] = [-1] * n  # -1: evaluate when popped
    # queued[u]: u waits to be popped in this pass.  The first pass starts
    # with every flag set; a refill pass flags only its tail, and every
    # u > pos, ahead of the scan, counts as queued.
    queued = [True] * n
    scan: Iterable[int] = range(n)
    tail: list[int] = []
    pos = n
    # Set at the first refill: the marks and each community's members.
    dirty: bytearray | None = None
    members: defaultdict[int, list[int]] = defaultdict(list)
    excess = _excess_weights(g, w2)
    label_of = partition.__getitem__
    while True:
        for v in chain(scan, tail):
            queued[v] = False
            if dirty is not None:
                # The scan ascends and the tail's first vertex lies behind
                # its last, so the first descent ends the scan.
                pos = v if v > pos else n
                dirty[v] = 0
                if moved < expires[v]:
                    continue
            cur = partition[v]
            weight_to: dict[int, float] = {}
            if excess is None:
                for u, w in zip(adj[v], weights[v]):
                    c = partition[u]
                    weight_to[c] = weight_to.get(c, 0.0) + w
            else:
                _count_elements(weight_to, map(label_of, adj[v]))
                if excess and v in excess:
                    for u, x in excess[v]:
                        weight_to[partition[u]] += x
            s_v = strength[v]
            s_frac = s_v / w2
            stay = weight_to.pop(cur, 0.0) - (tot[cur] - s_v) * s_frac
            best_c, best_gain = cur, -inf
            for c, k in weight_to.items():
                gain = k - tot[c] * s_frac
                if gain >= best_gain and (gain > best_gain or c < best_c):
                    best_c, best_gain = c, gain
            if best_gain - stay > tolerance:
                partition[v] = best_c
                tot[cur] -= s_v
                tot[best_c] += s_v
                moved += int(s_v * 2.0**40 / w2) + 2
                if dirty is None:
                    for u in adj[v]:
                        if not queued[u] and partition[u] != best_c:
                            expires[u] = -1
                            queued[u] = True
                            tail.append(u)
                else:
                    for u in adj[v]:
                        dirty[u] = 1  # (a)
                        if u > pos or queued[u]:
                            expires[u] = -1
                        elif partition[u] != best_c:
                            expires[u] = -1
                            queued[u] = True
                            tail.append(u)
                    joined = members[best_c]
                    joined.append(v)
                    for u in joined:  # (b)
                        dirty[u] = 1
                    left = members[cur]
                    left.remove(v)
                    _mark_next_to(dirty, cur, left, adj, partition)  # (c)
            elif weight_to and s_v:
                expires[v] = moved + int((stay - best_gain) * 2.0**39 / s_v)
            else:
                expires[v] = inf
        if moved == refilled_at:
            return partition
        refilled_at = moved
        if dirty is None:
            dirty = bytearray(b"\x01") * n
            for u, c in enumerate(partition):
                members[c].append(u)
        scan = compress(range(n), dirty)
        tail = []
        pos = -1


def refine_cover(g: Graph, cover: Cover) -> Cover:
    """Multilevel greedy modularity maximization seeded from ``cover``.

    Runs the queue-driven local moves of :func:`_local_moves` on ``g``
    starting from the cover (unassigned nodes enter as singletons), then
    contracts the result and continues on the super-vertex levels of
    :func:`maximize_modularity`.  Each community takes the label that its
    smallest member held after the local moves on ``g``.  As in
    :func:`_local_moves`, labels must be non-negative and not much above
    ``n``.
    """
    partition = _local_moves(g, cover.with_singletons().assignment)
    communities = maximize_modularity(reduce_graph(g, Cover(partition))).assignment
    # Ascending node order meets each community first at its smallest member.
    label_of: dict[int, int] = {}
    for v, s in enumerate(communities):
        label_of.setdefault(s, partition[v])
    return Cover([label_of[s] for s in communities])


def maximize_modularity(rg: ReducedGraph) -> Cover:
    """Multilevel greedy modularity maximization over a reduced graph.

    Runs :func:`_local_moves` from singletons on each level, contracts the
    resulting partition, and repeats until a level ends with every vertex
    still a singleton, that is, after a full pass in which no vertex moved.
    Returns a cover over the original node ids that entered
    :func:`reduce_graph`, with communities numbered ``0..k-1`` by smallest
    original member: every contraction numbers its super-vertices in that
    order.
    """
    node_super = rg.member_map  # original node -> current-level vertex
    level = rg.graph
    while True:
        partition = _local_moves(level)
        if partition == list(range(level.n)):
            return Cover(node_super)
        contracted = reduce_graph(level, Cover(partition))
        node_super = [contracted.member_map[s] for s in node_super]
        level = contracted.graph
