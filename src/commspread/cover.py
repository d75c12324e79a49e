"""Community covers: node-to-label assignment plus file serialization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .graph import Graph

UNASSIGNED = -1


@dataclass
class Cover:
    """Assignment of nodes to community labels.

    ``assignment[v]`` is the non-negative community label of node ``v``, or
    ``UNASSIGNED`` for a broker left without a label after a
    belonging-probability tie.
    """

    assignment: list[int]

    @property
    def unassigned(self) -> list[int]:
        """Nodes without a label, in ascending id order."""
        return [v for v, c in enumerate(self.assignment) if c == UNASSIGNED]

    @property
    def k(self) -> int:
        return len(set(self.assignment) - {UNASSIGNED})

    def with_singletons(self) -> "Cover":
        """Promote every unassigned node to its own singleton community.

        An unassigned node ``v`` takes label ``v`` unless some node already
        carries it; such nodes take fresh labels above the largest label, in
        ascending node order.
        """
        labels = self.assignment
        if UNASSIGNED not in labels:
            return self
        carried = set(labels)
        promoted = [
            v if c == UNASSIGNED and v not in carried else c for v, c in enumerate(labels)
        ]
        fresh = max(promoted) + 1
        for v, c in enumerate(promoted):
            if c == UNASSIGNED:
                promoted[v] = fresh
                fresh += 1
        return Cover(promoted)

    @classmethod
    def singletons(cls, g: Graph) -> "Cover":
        return cls(list(range(g.n)))


def finalize(cover: Cover) -> Cover:
    """Renumber community labels densely to 0..k-1 in ascending label order.

    Requires every node to carry a label (promote singletons first if needed).
    """
    if UNASSIGNED in cover.assignment:
        raise ValueError("finalize requires every node to carry a label")
    mapping = {c: i for i, c in enumerate(sorted(set(cover.assignment)))}
    return Cover([mapping[c] for c in cover.assignment])


def write_cover_file(g: Graph, cover: Cover, stream: IO) -> None:
    """Write ``external_label<TAB>community_id`` lines sorted by node label."""
    if UNASSIGNED in cover.assignment:
        raise ValueError("cannot serialize a cover with unassigned nodes")
    labels, assignment = g.labels, cover.assignment
    # Labels are distinct, so ordering the ids by label alone orders the lines.
    order = sorted(range(len(labels)), key=labels.__getitem__)
    stream.write("".join([f"{labels[v]}\t{assignment[v]}\n" for v in order]))


def read_cover_file(g: Graph, stream: Iterable[str]) -> Cover:
    """Parse a cover file written by :func:`write_cover_file`.

    ``stream`` yields text lines.  Every node of ``g`` must appear exactly
    once, with a non-negative integer community id.  A malformed line raises
    a ValueError naming its number.
    """
    index = {label: v for v, label in enumerate(g.labels)}
    assignment = [UNASSIGNED] * g.n
    unknown: list[str] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected label<TAB>community id: {line!r}")
        label, comm = fields
        try:
            c = int(comm)
        except ValueError:
            raise ValueError(f"line {lineno}: community id is not an integer: {comm!r}") from None
        if c < 0:
            raise ValueError(f"line {lineno}: community id must be non-negative: {c}")
        v = index.get(label)
        if v is None:
            unknown.append(label)
        elif assignment[v] != UNASSIGNED:
            raise ValueError(f"line {lineno}: node {label!r} listed twice")
        else:
            assignment[v] = c
    if unknown:
        raise ValueError(f"unknown node labels in cover: {', '.join(sorted(unknown))}")
    missing = [g.labels[v] for v, c in enumerate(assignment) if c == UNASSIGNED]
    if missing:
        raise ValueError(f"cover is missing nodes: {', '.join(sorted(missing))}")
    return Cover(assignment)
