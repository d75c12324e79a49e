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
class ClusterAccumulator:
    """Incremental cut/volume state for one growing cluster."""

    volume: int
    cut: int

    @classmethod
    def seeded(cls, g: Graph, v: int) -> "ClusterAccumulator":
        d = g.degree(v)
        return cls(volume=d, cut=d)

    def add(self, degree: int, edges_into_cluster: int) -> None:
        """Absorb a node; the cut loses its edges into the cluster and gains
        its outward edges."""
        self.volume += degree
        self.cut += degree - 2 * edges_into_cluster


@dataclass
class TraversalResult:
    """Per-node outcome of a traversal plus bookkeeping for analysis."""

    community: list[int]
    node_type: list[NodeType]
    ins: list[Optional[float]]
    discovery_order: list[int] = field(default_factory=list)
    processing_order: list[int] = field(default_factory=list)
    inspections: int = 0


def ins_score(g: Graph, v: int, covered: bytearray) -> float:
    """Fraction of ``v``'s neighbors already covered (0 for isolated nodes)."""
    d = g.degree(v)
    if d == 0:
        return 0.0
    return sum(1 for u in g.adj[v] if covered[u]) / d


def classify_by_conductance(
    k_t: int, k_ts: int, k_s: int, k_o: int, alpha: int
) -> bool:
    """Decide whether absorbing a target node strictly lowers conductance.

    Arguments are the target degree ``k_t``, its edge count into the cluster
    ``k_ts``, the cluster volume ``k_s``, the remaining outside volume
    ``k_o`` (excluding the target) and the cut edges not incident on the
    target ``alpha``.  Returns True for a community node, False for a broker.
    All comparisons are exact integer arithmetic; equality means broker.
    """
    if min(k_t, k_ts, k_s, k_o, alpha) < 0:
        raise ValueError("all conductance parameters must be non-negative")
    if k_ts > k_t:
        raise ValueError("edges into the cluster cannot exceed the target degree")

    # Degenerate volumes: conductance is defined as 0 when the smaller side
    # has volume 0, so it can only strictly decrease when the old value was
    # positive and the new one hits a zero-volume complement.
    if min(k_s, k_t + k_o) == 0:
        return False
    if k_o == 0:
        return alpha + k_ts > 0

    if k_s >= k_t + k_o:
        return k_ts * (2 * k_o + k_t) > k_t * (alpha + k_t + k_o)
    if k_s + k_t < k_o:
        return k_ts * (2 * k_s + k_t) > k_t * (k_s - alpha)
    return k_ts * (k_s + k_o) > k_s * k_t + alpha * (k_s - k_o)


def run_traversal(g: Graph, cfg: RunConfig) -> TraversalResult:
    """Classify every node as broker or community node in one linear pass.

    The starting node (and each restart node on disconnected graphs) is the
    lowest-degree uncovered node and is always a broker with score 0.  The
    discovery order lists, per processing step, the new brokers in the order
    they will be popped followed by the new community nodes in queue order.
    """
    n = g.n
    result = TraversalResult(
        community=list(range(n)),
        node_type=[NodeType.UNCATEGORIZED] * n,
        ins=[None] * n,
    )
    if n == 0:
        return result

    if cfg.start is not None and not 0 <= cfg.start < n:
        raise ValueError(f"start node {cfg.start} out of range")

    covered = bytearray(n)
    stack: list[int] = []
    queue: deque[int] = deque()
    cover_count = 0
    adj = g.adj
    comm = result.community
    ntype = result.node_type

    # A node belongs to cluster c exactly when comm[node] == c: community
    # nodes carry their seed's label, and every other node keeps its own id,
    # which names a processed seed only for that seed itself.
    if cfg.method == "cond":
        twom = 2 * g.m
        clusters: dict[int, ClusterAccumulator] = {}

        def joins(v: int, u: int) -> bool:
            c = comm[v]
            acc = clusters.get(c)
            if acc is None:  # v is the seed of its cluster
                acc = clusters[c] = ClusterAccumulator.seeded(g, v)
            k_t = len(adj[u])
            k_ts = sum(1 for w in adj[u] if comm[w] == c)
            if classify_by_conductance(
                k_t, k_ts, acc.volume, twom - acc.volume - k_t, acc.cut - k_ts
            ):
                acc.add(k_t, k_ts)
                return True
            return False

    else:
        r = cfg.threshold

        def joins(v: int, u: int) -> bool:
            score = result.ins[u] = ins_score(g, u, covered)
            return score >= r

    # Restart nodes come from a degree-sorted list walked by a monotone
    # cursor, so selecting all of them costs O(n) total even on graphs with
    # many components.
    by_degree = sorted(range(n), key=lambda v: (len(adj[v]), v))
    cursor = 0

    def start_node() -> int:
        nonlocal cursor
        if cfg.start is not None and not covered[cfg.start]:
            return cfg.start
        while covered[by_degree[cursor]]:
            cursor += 1
        return by_degree[cursor]

    def open_component() -> int:
        nonlocal cover_count
        v = start_node()
        covered[v] = 1
        cover_count += 1
        ntype[v] = NodeType.BROKER
        result.ins[v] = 0.0
        result.discovery_order.append(v)
        return v

    def process(v: int) -> None:
        nonlocal cover_count
        # Influence reaches the whole neighborhood before any of it is
        # classified.
        for u in adj[v]:
            if not covered[u]:
                covered[u] = 1
                cover_count += 1
        new_brokers: list[int] = []
        new_comms: list[int] = []
        for u in adj[v]:
            if ntype[u] != NodeType.UNCATEGORIZED:
                continue
            if joins(v, u):
                ntype[u] = NodeType.COMMUNITY
                comm[u] = comm[v]
                queue.append(u)
                new_comms.append(u)
            else:
                ntype[u] = NodeType.BROKER
                stack.append(u)
                new_brokers.append(u)
        result.discovery_order.extend(reversed(new_brokers))
        result.discovery_order.extend(new_comms)

    while cover_count < n:
        if queue:
            v = queue.popleft()
        elif stack:
            v = stack.pop()
        else:
            v = open_component()
        result.processing_order.append(v)
        result.inspections += 1 + len(adj[v])
        process(v)
    return result
