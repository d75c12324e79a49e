"""Traversal engine: broker/community classification in a single linear pass.

The traversal keeps a LIFO stack of broker nodes and a FIFO queue of
community nodes.  The queue drains completely before the stack is popped,
which interleaves breadth-first exploration inside a community with
depth-first hops between communities.  Two classification rules are
supported: a threshold on the fraction of already-covered neighbors (the
"ins" method), and a strict-decrease test on cluster conductance (the
"cond" method).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import filterfalse
from typing import Optional

from .graph import Graph


class NodeType(IntEnum):
    UNCATEGORIZED = 0
    BROKER = 1
    COMMUNITY = 2


@dataclass
class RunConfig:
    """Settings for one traversal run.

    ``method`` is ``"ins"`` or ``"cond"``.  ``threshold`` applies to the ins
    method only.  ``start`` overrides the default lowest-degree starting node
    (ties broken by smallest internal id).  The traversal is deterministic.
    """

    method: str = "ins"
    threshold: float = 0.75
    start: Optional[int] = None
    run_modmax: bool = True

    def __post_init__(self):
        if self.method not in ("ins", "cond"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")


@dataclass
class TraversalResult:
    """Per-node outcome of a traversal plus its optional trace.

    ``ins``, ``discovery_order`` and ``processing_order`` are filled only by
    a traced run (``run_traversal(..., trace=True)``) and are empty
    otherwise; ``inspections`` is always counted.
    """

    community: list[int]
    node_type: list[NodeType]
    ins: list[Optional[float]] = field(default_factory=list)
    discovery_order: list[int] = field(default_factory=list)
    processing_order: list[int] = field(default_factory=list)
    inspections: int = 0


def ins_score(g: Graph, v: int, covered: bytearray) -> float:
    """Fraction of ``v``'s neighbors already covered (0 for isolated nodes)."""
    d = g.degree(v)
    if d == 0:
        return 0.0
    return sum(map(covered.__getitem__, g.adj[v])) / d


def classify_by_conductance(
    k_t: int, k_ts: int, k_s: int, k_o: int, alpha: int
) -> bool:
    """Decide whether absorbing a target node strictly lowers conductance.

    Arguments are the target degree ``k_t``, its edge count into the cluster
    ``k_ts``, the cluster volume ``k_s``, the remaining outside volume
    ``k_o`` (excluding the target) and the cut edges not incident on the
    target ``alpha``.  Returns True for a community node, False for a broker.
    All comparisons are exact integer arithmetic; equality means broker.

    Precondition, met by the traversal by construction and not checked:
    ``k_ts <= k_t``, ``k_o >= 0`` (the target lies outside the cluster) and
    ``alpha >= 0`` (the cut includes the target's ``k_ts`` edges).
    """
    # Degenerate volumes: conductance is defined as 0 when the smaller side
    # has volume 0, so it can only strictly decrease when the old value was
    # positive and the new one hits a zero-volume complement.
    if k_s == 0 or k_t + k_o == 0:
        return False
    if k_o == 0:
        return alpha + k_ts > 0

    if k_s >= k_t + k_o:
        return k_ts * (2 * k_o + k_t) > k_t * (alpha + k_t + k_o)
    if k_s + k_t < k_o:
        return k_ts * (2 * k_s + k_t) > k_t * (k_s - alpha)
    return k_ts * (k_s + k_o) > k_s * k_t + alpha * (k_s - k_o)


def run_traversal(g: Graph, cfg: RunConfig, trace: bool = False) -> TraversalResult:
    """Classify every node as broker or community node in one linear pass.

    The starting node (and each restart node on disconnected graphs) is the
    lowest-degree uncovered node and is always a broker with score 0.  With
    ``trace`` set the result also records the processing order, every ins
    score, and the discovery order, which lists, per processing step, the
    new brokers in the order they will be popped followed by the new
    community nodes in queue order.  Without it those fields stay empty and
    cost nothing.
    """
    n = g.n
    # Bound once: a class-attribute lookup of an enum member per node costs
    # several times a local one.
    UNCATEGORIZED, BROKER, COMMUNITY = (
        NodeType.UNCATEGORIZED,
        NodeType.BROKER,
        NodeType.COMMUNITY,
    )
    result = TraversalResult(
        community=list(range(n)),
        node_type=[UNCATEGORIZED] * n,
        ins=[None] * n if trace else [],
    )
    start = cfg.start
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start node {start} out of range")
    if n == 0:
        return result

    covered = bytearray(n)
    is_covered = covered.__getitem__
    stack: list[int] = []
    queue: deque[int] = deque()
    cover_count = 0
    inspections = 0
    adj = g.adj
    comm = result.community
    ntype = result.node_type
    ins = result.ins
    discovery = result.discovery_order
    processing = result.processing_order
    degree = list(map(len, adj))

    # A node belongs to cluster c exactly when comm[node] == c: community
    # nodes carry their seed's label, and every other node keeps its own id,
    # which names a processed seed only for that seed itself.  Cluster c's
    # volume and cut are volume[c] and cut[c].  They start as the degree of
    # c, the one-node cluster it seeds, and change only once c is processed.
    if cfg.method == "cond":
        twom = 2 * g.m
        volume = degree[:]
        cut = degree[:]
        label_of = comm.__getitem__

        def joins(v: int, u: int) -> bool:
            c = comm[v]
            k_s = volume[c]
            k_t = degree[u]
            k_ts = list(map(label_of, adj[u])).count(c)
            if classify_by_conductance(k_t, k_ts, k_s, twom - k_s - k_t, cut[c] - k_ts):
                # The cut loses u's edges into the cluster and gains the rest.
                volume[c] = k_s + k_t
                cut[c] += k_t - 2 * k_ts
                return True
            return False

    else:
        r = cfg.threshold

        def joins(v: int, u: int) -> bool:
            score = ins_score(g, u, covered)
            if trace:
                ins[u] = score
            return score >= r

    # Restart nodes come from a degree-sorted list walked by a monotone
    # cursor, so selecting all of them costs O(n) total even on graphs with
    # many components.  The sort is stable, so ties keep ascending ids.
    by_degree = sorted(range(n), key=degree.__getitem__)
    cursor = 0

    while cover_count < n:
        if queue:
            v = queue.popleft()
        elif stack:
            v = stack.pop()
        else:
            if start is not None and not covered[start]:
                v = start
            else:
                while covered[by_degree[cursor]]:
                    cursor += 1
                v = by_degree[cursor]
            covered[v] = 1
            cover_count += 1
            ntype[v] = BROKER
            if trace:
                ins[v] = 0.0
                discovery.append(v)
        nbrs = adj[v]
        inspections += 1 + len(nbrs)
        # Influence reaches the whole neighborhood before any of it is
        # classified.  A node is covered exactly when it is classified, so
        # the uncovered neighbors are the ones left to classify.
        fresh = list(filterfalse(is_covered, nbrs))
        for u in fresh:
            covered[u] = 1
        cover_count += len(fresh)
        if trace:
            processing.append(v)
            brokers_before, comms_before = len(stack), len(queue)
        c = comm[v]
        for u in fresh:
            if joins(v, u):
                ntype[u] = COMMUNITY
                comm[u] = c
                queue.append(u)
            else:
                ntype[u] = BROKER
                stack.append(u)
        if trace:
            discovery.extend(reversed(stack[brokers_before:]))
            discovery.extend(queue[i] for i in range(comms_before, len(queue)))
    result.inspections = inspections
    return result
