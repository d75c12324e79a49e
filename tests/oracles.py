"""Brute-force references that tests compare product code against."""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from commspread import Cover, Graph
from commspread.cover import UNASSIGNED
from commspread.graph import LoadReport
from commspread.refine import MOVE_TOLERANCE, ReducedGraph
from commspread.traversal import NodeType, RunConfig, TraversalResult


def graph_from_edges(edges, extra_nodes=()) -> Graph:
    """Simple unit-weight graph built through one sorted key per edge.

    The rule of :func:`commspread.load_edge_list` over the lines' token
    pairs, evaluated directly: labels get ids in order of first appearance
    (``extra_nodes`` after the edges' labels), each undirected pair is one
    ``(u, v)`` key with u < v (a repeat counts as a duplicate, a self-loop
    is counted and dropped), and the keys are appended in sorted order,
    which leaves every adjacency list sorted.
    """
    index: dict[str, int] = {}

    def intern(lab: str) -> int:
        return index.setdefault(lab, len(index))

    report = LoadReport()
    keys: set[tuple[int, int]] = set()
    for a, b in edges:
        u, v = intern(a), intern(b)
        if u == v:
            report.self_loops += 1
        elif (min(u, v), max(u, v)) in keys:
            report.duplicate_edges += 1
        else:
            keys.add((min(u, v), max(u, v)))
    for lab in extra_nodes:
        intern(lab)
    n = len(index)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(keys):
        adj[u].append(v)
        adj[v].append(u)
    return Graph(
        adj=adj,
        weights=[[1.0] * len(nbrs) for nbrs in adj],
        self_loops=[0.0] * n,
        labels=list(index),
        load_report=report,
    )


def edges(g: Graph) -> list[tuple[int, int]]:
    """Each undirected edge once, as (u, v) with u < v, in adjacency order."""
    return [(u, v) for u, nbrs in enumerate(g.adj) for v in nbrs if u < v]


def communities(cover: Cover) -> dict[int, set[int]]:
    """Inverse index: community label -> member set (unassigned nodes left out)."""
    index: dict[int, set[int]] = {}
    for v, c in enumerate(cover.assignment):
        if c != UNASSIGNED:
            index.setdefault(c, set()).add(v)
    return index


def strength(g: Graph, v: int) -> float:
    """Weighted degree of ``v``, its self-loop weight included."""
    return sum(g.weights[v]) + g.self_loops[v]


def exact_conductance(g: Graph, members: set[int]) -> Fraction:
    """Rational weighted set conductance; 0 when the smaller side has volume 0.

    Every weight is summed as a ``Fraction``: the cut weight over the smaller
    of the members' strength volume, self-loops included, and the rest.
    """
    cut = sum(
        Fraction(w)
        for u in members
        for v, w in zip(g.adj[u], g.weights[u])
        if v not in members
    )
    volume = [
        sum(map(Fraction, g.weights[v])) + Fraction(g.self_loops[v]) for v in range(g.n)
    ]
    inside = sum(volume[v] for v in members)
    denom = min(inside, sum(volume) - inside)
    if denom <= 0:
        return Fraction(0)
    return cut / denom


def lowers_conductance(g: Graph, members: set[int], target: int) -> bool:
    """Does absorbing ``target`` strictly lower the conductance of ``members``?"""
    return exact_conductance(g, members | {target}) < exact_conductance(g, members)


def conductance_args(g: Graph, members: set[int], target: int) -> tuple[int, int, int, int, int]:
    """``(k_t, k_ts, k_s, k_o, alpha)`` of absorbing ``target`` into ``members``, counted afresh.

    The arguments of :func:`commspread.traversal.classify_by_conductance`:
    target degree, target edges into the cluster, cluster volume, outside
    volume without the target, and cut edges not incident on the target.
    """
    k_t = len(g.adj[target])
    k_ts = sum(1 for u in g.adj[target] if u in members)
    volume = sum(len(g.adj[v]) for v in members)
    cut = sum(1 for u, v in edges(g) if (u in members) != (v in members))
    return k_t, k_ts, volume, 2 * g.m - volume - k_t, cut - k_ts


def traversal(g: Graph, cfg: RunConfig) -> tuple[TraversalResult, list[NodeType]]:
    """Traced traversal with every score and decision computed from scratch.

    The rule of :func:`commspread.run_traversal`, evaluated directly: a
    broker stack and a community queue, drained before the stack is popped;
    restarts at ``cfg.start`` while it is uncovered, else at the uncovered
    node of lowest degree (ties: smallest id), which becomes a broker with
    score 0; every fresh neighbour of a processed node is covered before
    any of them is classified.  An ins score counts covered neighbours
    anew, and a cond decision is :func:`lowers_conductance` of the current
    cluster members.  Each node's role is recorded as it is decided and
    returned next to the result.  The discovery order lists each restart
    node, and per step the new brokers in the order they will be popped
    (reversed) followed by the new community nodes.
    """
    n = g.n
    covered = [False] * n
    community = list(range(n))
    node_type: list[NodeType | None] = [None] * n
    ins: list[float | None] = [None] * n
    members: dict[int, set[int]] = {}
    processing: list[int] = []
    discovery: list[int] = []
    inspections = 0
    stack: list[int] = []
    queue: deque[int] = deque()
    while not all(covered):
        if queue:
            v = queue.popleft()
        elif stack:
            v = stack.pop()
        else:
            if cfg.start is not None and not covered[cfg.start]:
                v = cfg.start
            else:
                v = min((u for u in range(n) if not covered[u]), key=lambda u: (len(g.adj[u]), u))
            covered[v] = True
            node_type[v] = NodeType.BROKER
            ins[v] = 0.0
            discovery.append(v)
        processing.append(v)
        inspections += 1 + len(g.adj[v])
        fresh = [u for u in g.adj[v] if not covered[u]]
        for u in fresh:
            covered[u] = True
        seed = community[v]
        cluster = members.setdefault(seed, {seed})
        new_brokers, new_members = [], []
        for u in fresh:
            if cfg.method == "ins":
                ins[u] = sum(covered[w] for w in g.adj[u]) / len(g.adj[u])
                joins = ins[u] >= cfg.threshold
            else:
                joins = lowers_conductance(g, cluster, u)
            if joins:
                node_type[u] = NodeType.COMMUNITY
                community[u] = seed
                cluster.add(u)
                queue.append(u)
                new_members.append(u)
            else:
                node_type[u] = NodeType.BROKER
                stack.append(u)
                new_brokers.append(u)
        discovery += new_brokers[::-1] + new_members
    result = TraversalResult(
        community=community,
        ins=ins,
        discovery_order=discovery,
        processing_order=processing,
        inspections=inspections,
    )
    return result, node_type


def delta_modularity(g: Graph, partition: list[int], v: int, target: int) -> float:
    """Weighted-modularity gain of moving ``v`` into community ``target``.

    ``partition`` assigns a community label to every vertex of ``g``.  The
    value equals Q(after move) - Q(before move), with every community total
    summed afresh in O(n); moving to the current community is a no-op with
    gain 0.
    """
    current = partition[v]
    if target == current:
        return 0.0
    w2 = sum(strength(g, u) for u in range(g.n))
    if w2 == 0:
        return 0.0
    k_v = strength(g, v)
    tot_cur = sum(strength(g, u) for u in range(g.n) if partition[u] == current)
    tot_tgt = sum(strength(g, u) for u in range(g.n) if partition[u] == target)
    in_cur = 0.0
    in_tgt = 0.0
    for u, w in zip(g.adj[v], g.weights[v]):
        if partition[u] == current:
            in_cur += w
        elif partition[u] == target:
            in_tgt += w
    return 2.0 * (in_tgt - in_cur) / w2 - 2.0 * k_v * (tot_tgt - tot_cur + k_v) / (
        w2 * w2
    )


def allocate_brokers(g: Graph, cover: Cover, node_type: list[NodeType]) -> Cover:
    """Broker allocation scored against every eligible community in turn.

    The rule of :func:`commspread.refine.post_process`, evaluated directly
    in O(brokers x communities): each broker outside an eligible community
    joins the one maximizing |neighbors in community| / |community|, and
    stays unassigned on a tie or with no neighbor in an eligible community.
    """
    eligible = {
        c: mem
        for c, mem in communities(cover).items()
        if any(node_type[v] == NodeType.COMMUNITY for v in mem)
    }
    assignment = list(cover.assignment)
    for v in range(g.n):
        if node_type[v] != NodeType.BROKER or cover.assignment[v] in eligible:
            continue
        best_c = None
        best_p = 0.0
        tied = False
        for c in sorted(eligible):
            mem = eligible[c]
            hits = sum(1 for u in g.adj[v] if u in mem)
            if hits == 0:
                continue
            p = hits / len(mem)
            if p > best_p:
                best_c, best_p, tied = c, p, False
            elif p == best_p:
                tied = True
        assignment[v] = UNASSIGNED if best_c is None or tied else best_c
    return Cover(assignment)


def local_moves(g: Graph, initial: list[int] | None = None) -> list[int]:
    """Queue-driven local moves whose every closing pass evaluates all of ``0..n-1``.

    The rule of :func:`commspread.refine._local_moves` without its stay
    certificates: a FIFO queue starts as ``0..n-1``; a popped vertex takes the
    neighbor community with the largest gain over staying if that gain
    exceeds the tolerance (ties: smallest label) and then queues its
    neighbors outside the new community; when the queue empties after a
    move it is refilled with ``0..n-1``.
    """
    n = g.n
    partition = list(range(n)) if initial is None else list(initial)
    adj, weights = g.adj, g.weights
    strength = [sum(ws) + loop for ws, loop in zip(weights, g.self_loops)]
    tot: dict[int, float] = {}
    for c, s in zip(partition, strength):
        tot[c] = tot.get(c, 0.0) + s
    w2 = sum(strength)
    if w2 == 0:
        return partition

    tolerance = MOVE_TOLERANCE * w2 / 2.0
    queue = deque(range(n))
    queued = [True] * n
    moved = False
    while queue:
        v = queue.popleft()
        queued[v] = False
        cur = partition[v]
        weight_to: dict[int, float] = {}
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
        if not queue and moved:
            queue.extend(range(n))
            queued = [True] * n
            moved = False
    return partition


def excess_weights(g: Graph, w2: float) -> dict[int, list[tuple[int, float]]] | None:
    """The rule of :func:`commspread.refine._excess_weights`, read off every row.

    Every vertex's row is read, whether or not its row object is shared
    with other vertices, so each entry other than 1.0 counts once per
    vertex that holds it.
    """
    weights = g.weights
    entries = sum(map(len, weights))
    heavy = 0
    for ws in weights:
        heavy += len(ws) - ws.count(1.0)
        if 4 * heavy > entries:
            return None
    if not heavy:
        return {}
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


def weighted_graph(edges: dict[tuple[int, int], float], self_loops: list[float]) -> Graph:
    """Unlabeled weighted graph on ``len(self_loops)`` nodes from ``{(u, v): weight}``, u < v.

    Appending the edges in ascending ``(u, v)`` order leaves every adjacency
    list sorted.
    """
    n = len(self_loops)
    adj: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[float]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        w = edges[u, v]
        adj[u].append(v)
        weights[u].append(w)
        adj[v].append(u)
        weights[v].append(w)
    return Graph(adj=adj, weights=weights, self_loops=self_loops, labels=[])


def reduce_graph(g: Graph, cover: Cover) -> ReducedGraph:
    """Contraction through one ``(a, b)`` key per super-edge and a global sort.

    The rule of :func:`commspread.refine.reduce_graph`, evaluated directly:
    super-vertices are numbered by smallest member, every edge is met once
    from its lower end in ascending order and adds its weight to a
    self-loop (twice) or to the cross key of its two super-vertices, and
    :func:`weighted_graph` appends the keys in sorted order.
    """
    super_of_label: dict[int, int] = {}
    node_super = [
        super_of_label.setdefault(c, len(super_of_label))
        for c in cover.with_singletons().assignment
    ]
    self_loops = [0.0] * len(super_of_label)
    cross: dict[tuple[int, int], float] = {}
    for v in range(g.n):
        cv = node_super[v]
        self_loops[cv] += g.self_loops[v]
        for u, w in zip(g.adj[v], g.weights[v]):
            if u < v:
                continue
            cu = node_super[u]
            if cu == cv:
                self_loops[cu] += 2.0 * w
            else:
                key = (cu, cv) if cu < cv else (cv, cu)
                cross[key] = cross.get(key, 0.0) + w
    return ReducedGraph(graph=weighted_graph(cross, self_loops), member_map=node_super)
