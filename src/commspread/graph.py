"""Immutable undirected weighted graph storage and edge-list ingestion.

Every graph, input or contracted, has one layout: sorted adjacency lists,
parallel edge weights and a per-node self-loop weight.  Input graphs are
simple, so they carry unit weights and zero self-loops; the reduced graphs
produced by :mod:`commspread.refine` carry contracted weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


class GraphParseError(ValueError):
    """Raised when an edge-list line cannot be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class LoadReport:
    """Counts of input irregularities silently handled by the loader."""

    duplicate_edges: int = 0
    self_loops: int = 0


@dataclass
class Graph:
    """Undirected weighted graph in compressed adjacency form.

    ``adj[v]`` is the sorted list of internal neighbor ids of ``v`` (never
    ``v`` itself) and ``weights[v]`` is parallel to it.  ``self_loops[v]`` is
    the self-loop weight of ``v``.  ``labels`` maps dense internal ids back
    to the external string labels and ``index`` maps them forward; both are
    empty on contracted graphs, whose nodes are known only by id.
    """

    adj: list[list[int]]
    weights: list[list[float]]
    self_loops: list[float]
    labels: list[str]
    load_report: LoadReport = field(default_factory=LoadReport, repr=False)
    index: Optional[dict[str, int]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.index is None:
            self.index = {lab: i for i, lab in enumerate(self.labels)}
        self._m = sum(len(a) for a in self.adj) // 2

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self._m

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def strength(self, v: int) -> float:
        """Weighted degree including the self-loop weight."""
        return sum(self.weights[v]) + self.self_loops[v]

    def total_weight(self) -> float:
        """Sum of strengths over all nodes (equals 2m on input graphs)."""
        return sum(self.strength(v) for v in range(self.n))

    def id_of(self, label: str) -> int:
        return self.index[label]

    def label_of(self, v: int) -> str:
        return self.labels[v]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Sequence[str]],
        extra_nodes: Sequence[str] = (),
    ) -> "Graph":
        """Build a simple unit-weight graph from labeled edges.

        Duplicate edges collapse to one and self-loops are dropped; both are
        counted in the load report.  Internal ids follow first appearance.
        Each edge is appended to both endpoints' lists as it is read; the
        lists are then sorted and deduplicated, and a repeated edge shrinks
        each of its two endpoints' lists by one.
        """
        index: dict[str, int] = {}
        adj: list[list[int]] = []
        self_loops = 0
        for a, b in edges:
            u = index.get(a)
            if u is None:
                u = index[a] = len(adj)
                adj.append([])
            v = index.get(b)
            if v is None:
                v = index[b] = len(adj)
                adj.append([])
            if u == v:
                self_loops += 1
            else:
                adj[u].append(v)
                adj[v].append(u)
        for lab in extra_nodes:
            if lab not in index:
                index[lab] = len(adj)
                adj.append([])

        shrinkage = 0
        weights: list[list[float]] = []
        for u, nbrs in enumerate(adj):
            unique = adj[u] = sorted(set(nbrs))
            shrinkage += len(nbrs) - len(unique)
            weights.append([1.0] * len(unique))
        report = LoadReport(duplicate_edges=shrinkage // 2, self_loops=self_loops)
        return cls(
            adj=adj,
            weights=weights,
            self_loops=[0.0] * len(adj),
            labels=list(index),
            load_report=report,
            index=index,
        )

    # -- operations ---------------------------------------------------------

    def sample_edges(self, fraction: float, seed: int) -> "Graph":
        """Uniform edge sample without replacement over the same node set.

        Keeps ``floor(fraction * m)`` edges with their weights, and every
        node with its self-loop weight.  Deterministic for a fixed seed.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        all_edges = [
            (u, v, w)
            for u in range(self.n)
            for v, w in zip(self.adj[u], self.weights[u])
            if u < v
        ]
        k = int(fraction * len(all_edges))
        rng = random.Random(seed)
        keep = all_edges if k == len(all_edges) else rng.sample(all_edges, k)
        # Appending the kept edges in ascending (u, v) order leaves every
        # adjacency list sorted.
        adj: list[list[int]] = [[] for _ in range(self.n)]
        weights: list[list[float]] = [[] for _ in range(self.n)]
        for u, v, w in sorted(keep):
            adj[u].append(v)
            weights[u].append(w)
            adj[v].append(u)
            weights[v].append(w)
        return Graph(
            adj=adj,
            weights=weights,
            self_loops=list(self.self_loops),
            labels=self.labels,
            index=self.index,
        )


def load_edge_list(stream: Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list into a :class:`Graph`.

    One edge per line, two tokens per line; lines starting with ``#`` and
    blank lines are ignored.  No label starts with ``#``, as a cover file
    could not list it.  ``stream`` yields text lines, from a file
    opened in text mode or any iterable of strings.  Raises
    :class:`GraphParseError` with the offending line number on a malformed
    line.  Empty input yields an empty graph.
    """

    def lines():
        for lineno, line in enumerate(stream, start=1):
            tokens = line.split()
            if not tokens or tokens[0][0] == "#":
                continue
            if len(tokens) != 2:
                raise GraphParseError(
                    lineno, f"expected 2 tokens, found {len(tokens)}: {line.strip()!r}"
                )
            if tokens[1][0] == "#":
                raise GraphParseError(lineno, f"a label may not start with '#': {line.strip()!r}")
            yield tokens

    return Graph.from_edges(lines())
