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
from itertools import chain, filterfalse
from operator import countOf
from typing import Optional

from .graph import Graph


class NodeType(IntEnum):
    BROKER = 1
    COMMUNITY = 2


@dataclass
class RunConfig:
    """Settings for one traversal run.

    ``method`` is ``"ins"`` or ``"cond"``.  ``threshold`` applies to the ins
    method only.  ``start`` overrides the default lowest-degree starting node
    (ties broken by smallest internal id).  The traversal is deterministic.
    ``run_modmax=False`` makes ``detect`` skip maximization (``--skip-modmax``).
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
    ins: list[Optional[float]] = field(default_factory=list)
    discovery_order: list[int] = field(default_factory=list)
    processing_order: list[int] = field(default_factory=list)
    inspections: int = 0

    @property
    def node_type(self) -> list[NodeType]:
        """Every node's role, read off its label: a broker keeps its own id
        and a community node takes its seed broker's, so ``v`` is a broker
        exactly when ``community[v] == v``."""
        BROKER, COMMUNITY = NodeType.BROKER, NodeType.COMMUNITY
        return [BROKER if c == v else COMMUNITY for v, c in enumerate(self.community)]


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
    # Conductance is the cut over the smaller side's volume, and 0 when that
    # volume is 0.  Both ratios are compared by one cross-multiplication.
    cut = alpha + k_ts
    before = k_s if k_s < k_t + k_o else k_t + k_o
    after = k_s + k_t if k_s + k_t < k_o else k_o
    if before == 0:
        return False
    if after == 0:
        return cut > 0
    return (cut + k_t - 2 * k_ts) * before < cut * after


def run_traversal(g: Graph, cfg: RunConfig, trace: bool = False) -> TraversalResult:
    """Classify every node as broker or community node in one linear pass.

    The starting node (and each restart node on disconnected graphs) is
    ``cfg.start`` while it is uncovered, else the lowest-degree uncovered
    node, and is always a broker with score 0.  With ``trace`` set the
    result also records the processing order, every ins score, and the
    discovery order, which lists, per processing step, the new brokers in
    the order they will be popped followed by the new community nodes in
    queue order.  Without it those fields stay empty and cost nothing.
    """
    n = g.n
    result = TraversalResult(community=list(range(n)), ins=[None] * n if trace else [])
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
            k_ts = countOf(map(label_of, adj[u]), c)
            if classify_by_conductance(k_t, k_ts, k_s, twom - k_s - k_t, cut[c] - k_ts):
                # The cut loses u's edges into the cluster and gains the rest.
                volume[c] = k_s + k_t
                cut[c] += k_t - 2 * k_ts
                return True
            return False

    else:
        r = cfg.threshold

        def joins(v: int, u: int) -> bool:
            # u is a fresh neighbour of v, so its degree is at least 1.
            score = sum(map(is_covered, adj[u])) / degree[u]
            if trace:
                ins[u] = score
            return score >= r

    # Restart nodes come from one list walked by a monotone cursor, so
    # selecting all of them costs O(n) total even on graphs with many
    # components: cfg.start first, then every node by degree.  The degree
    # buckets fill in ascending id order, so ties keep ascending ids, and
    # building the order costs O(n), not a sort's O(n log n).
    buckets: list[list[int]] = [[] for _ in range(max(degree) + 1)]
    for v, d in enumerate(degree):
        buckets[d].append(v)
    order = list(chain.from_iterable(buckets))
    if start is not None:
        order.insert(0, start)
    cursor = 0

    while cover_count < n:
        if queue:
            v = queue.popleft()
        elif stack:
            v = stack.pop()
        else:
            while covered[order[cursor]]:
                cursor += 1
            v = order[cursor]
            covered[v] = 1
            cover_count += 1
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
        c = comm[v]
        for u in fresh:
            if joins(v, u):
                comm[u] = c
                queue.append(u)
            else:
                stack.append(u)
        if trace:
            # A fresh node keeps its own id exactly when it became a broker.
            processing.append(v)
            discovery.extend([u for u in reversed(fresh) if comm[u] == u])
            discovery.extend([u for u in fresh if comm[u] != u])
    result.inspections = inspections
    return result
