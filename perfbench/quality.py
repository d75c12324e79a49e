"""Output checks computed by the benchmark itself, independent of commspread.

Nothing here imports the package under test: the cover check, modularity
and NMI are recomputed from the generated edge list and the cover file.
"""

from __future__ import annotations

import math
from collections import Counter


def parse_cover(text: str, nodes: set[str]) -> dict[str, int]:
    """Parse a ``label<TAB>community`` cover file and check it is a partition.

    Every node of ``nodes`` must appear exactly once, no other label may
    appear, and the community ids must be exactly ``0..k-1``.  Raises
    ``ValueError`` naming the first violation.
    """
    labels: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        node, sep, comm = line.partition("\t")
        if not sep or not comm.isdigit():
            raise ValueError(f"cover line {lineno} is malformed: {line!r}")
        if node in labels:
            raise ValueError(f"cover line {lineno} repeats node {node!r}")
        labels[node] = int(comm)
    if labels.keys() != nodes:
        extra = len(labels.keys() - nodes)
        missing = len(nodes - labels.keys())
        raise ValueError(f"cover has {extra} unknown and {missing} missing nodes")
    if set(labels.values()) != set(range(len(set(labels.values())))):
        raise ValueError("community ids are not dense in 0..k-1")
    return labels


def modularity(edges: list[tuple[int, int]], label: dict[str, int]) -> float:
    """Newman modularity of a partition of a simple unweighted graph."""
    m = len(edges)
    internal: Counter[int] = Counter()
    degree: Counter[int] = Counter()
    for u, v in edges:
        cu, cv = label[str(u)], label[str(v)]
        degree[cu] += 1
        degree[cv] += 1
        if cu == cv:
            internal[cu] += 1
    return sum(internal[c] / m - (degree[c] / (2 * m)) ** 2 for c in degree)


def nmi(a: list, b: list) -> float:
    """Normalized mutual information 2 I(A;B) / (H(A) + H(B)).

    ``a`` and ``b`` give the cluster of each item in the same item order.
    Two single-cluster partitions are identical and score 1.
    """
    if len(a) != len(b) or not a:
        raise ValueError("partitions must be non-empty and of equal length")
    n = len(a)
    count_a, count_b = Counter(a), Counter(b)
    joint = Counter(zip(a, b))

    def entropy(counts: Counter) -> float:
        return -sum(c / n * math.log(c / n) for c in counts.values())

    h_a, h_b = entropy(count_a), entropy(count_b)
    if h_a + h_b == 0.0:
        return 1.0
    mutual = sum(
        c / n * math.log(c * n / (count_a[x] * count_b[y]))
        for (x, y), c in joint.items()
    )
    return 2.0 * mutual / (h_a + h_b)
