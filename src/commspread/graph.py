"""Immutable undirected weighted graph storage and edge-list ingestion.

Every graph, input or contracted, has one layout: sorted adjacency lists,
parallel edge weights and a per-node self-loop weight.  Input graphs have
one builder, :func:`load_edge_list`.  They are simple, so they carry unit
weights and zero self-loops, and all nodes of one degree share a single
unit-weight row; the reduced graphs produced by :mod:`commspread.refine`
carry contracted weights.  Nothing mutates a graph's lists once it is
built, so :attr:`Graph.unit` is computed once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable


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
    ``v`` itself), so ``len(adj[v])`` is its degree, and ``weights[v]`` is
    parallel to it.  Rows may be shared: on an input graph, every node of
    degree ``d`` holds the same ``[1.0] * d`` list, so no code may mutate a
    row.  ``self_loops[v]`` is the self-loop weight of ``v``.  ``labels``
    maps dense internal ids to the external string labels, and
    ``labels.index(label)`` finds the id of a label by a linear search; it
    is empty on contracted graphs, whose nodes are known only by id.
    :attr:`unit` is derived, never passed.
    """

    adj: list[list[int]]
    weights: list[list[float]]
    self_loops: list[float]
    labels: list[str]
    load_report: LoadReport = field(default_factory=LoadReport, repr=False)

    def __post_init__(self):
        self._m = sum(map(len, self.adj)) // 2

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        """Number of undirected edges (each counted once)."""
        return self._m

    @cached_property
    def unit(self) -> bool:
        """True when every adjacency weight is 1.0, whatever the self-loops.

        Reads each distinct row object once: a few dozen on an input graph.
        A unit row sums exactly to its degree, so refinement reads no row of
        a unit graph.
        """
        weights = self.weights
        rows = dict(zip(map(id, weights), weights)).values()
        return all(ws.count(1.0) == len(ws) for ws in rows)


def load_edge_list(stream: Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list into a :class:`Graph`.

    One edge per line, two tokens per line; lines starting with ``#`` and
    blank lines are ignored.  No label starts with ``#``, as a cover file
    could not list it.  ``stream`` yields text lines, from a file
    opened in text mode or any iterable of strings.  Raises
    :class:`GraphParseError` with the offending line number on a malformed
    line.  Empty input yields an empty graph.

    This is the only builder of input graphs.  Internal ids follow first
    appearance, a self-loop line is counted and dropped (its label still
    gets an id), and a repeated edge is counted and kept once.  The graph
    is built in the same single pass that checks the lines: each line is
    taken from ``stream`` only after the previous one is in the graph, so
    the first bad line in file order raises, whether the loader or
    ``stream`` finds it.  A label that is already known does not start
    with ``#``, so only a first appearance is checked for one.

    Each edge is appended to both endpoints' lists as it is read.  Each
    list is then sorted in place, with no second copy, and only a list
    that repeats a neighbor is replaced by a deduplicated one: a repeated
    edge shrinks each of its two endpoints' lists by one.  Nodes of equal
    degree share one unit-weight row, so the rows hold at most 2m entries
    in all.
    """
    index: dict[str, int] = {}
    adj: list[list[int]] = []
    self_loops = 0
    get = index.get
    for lineno, line in enumerate(stream, start=1):
        try:
            a, b = line.split()
        except ValueError:
            tokens = line.split()
            if not tokens or tokens[0][0] == "#":
                continue
            raise GraphParseError(
                lineno, f"expected 2 tokens, found {len(tokens)}: {line.strip()!r}"
            ) from None
        u = get(a)
        if u is None:
            if a[0] == "#":
                continue  # a comment of two tokens
            u = index[a] = len(adj)
            adj.append([])
        v = get(b)
        if v is None:
            if b[0] == "#":
                raise GraphParseError(lineno, f"a label may not start with '#': {line.strip()!r}")
            v = index[b] = len(adj)
            adj.append([])
        if u == v:
            self_loops += 1
        else:
            adj[u].append(v)
            adj[v].append(u)
    shrinkage = 0
    degrees: list[int] = []
    for u, nbrs in enumerate(adj):
        nbrs.sort()
        unique = set(nbrs)
        if len(unique) != len(nbrs):
            adj[u] = sorted(unique)
            shrinkage += len(nbrs) - len(unique)
        degrees.append(len(unique))
    rows = {d: [1.0] * d for d in set(degrees)}
    return Graph(
        adj=adj,
        weights=list(map(rows.__getitem__, degrees)),
        self_loops=[0.0] * len(adj),
        labels=list(index),
        load_report=LoadReport(duplicate_edges=shrinkage // 2, self_loops=self_loops),
    )
