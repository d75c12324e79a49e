"""Seeded planted-partition graphs for the benchmark workloads.

The generator is a pure function of its parameters and seed, so the same
seed always yields the same edge-list bytes.
"""

from __future__ import annotations

import math
import random


def planted(
    groups: int, size: int, p_in: float, cross: int, seed: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """Planted partition: ``groups`` blocks of ``size`` nodes.

    Each pair inside a block is an edge with probability ``p_in``; then
    ``cross`` distinct edges join uniformly drawn nodes of different blocks.
    Returns the edges and the block of every node.
    """
    rng = random.Random(seed)
    n = groups * size
    truth = [v // size for v in range(n)]
    edges = []
    # Batagelj-Brandes skipping: jump straight to the next present pair of
    # each block, so the cost is linear in the edges rather than the pairs.
    log_q = math.log(1.0 - p_in)
    for b in range(groups):
        base = b * size
        v, w = 1, -1
        while v < size:
            w += 1 + int(math.log(1.0 - rng.random()) / log_q)
            while w >= v and v < size:
                w -= v
                v += 1
            if v < size:
                edges.append((base + w, base + v))
    seen: set[tuple[int, int]] = set()
    while len(seen) < cross:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (u, v) if u < v else (v, u)
        if truth[u] != truth[v] and key not in seen:
            seen.add(key)
            edges.append(key)
    return edges, truth


def edge_list_bytes(edges: list[tuple[int, int]], seed: int) -> bytes:
    """Serialize ``edges`` as ``u v`` lines with a few loader irregularities.

    One line in 200 is repeated in reverse orientation and one self-loop is
    written per 1000 lines, all after the edges themselves, so the loader's
    drop counters see work while the loaded graph and its internal ids stay
    exactly those of ``edges``.
    """
    rng = random.Random(seed ^ 0x5EED)
    lines = [f"{u} {v}\n" for u, v in edges]
    lines += [f"{v} {u}\n" for u, v in rng.sample(edges, len(edges) // 200)]
    lines += [f"{u} {u}\n" for u, _ in rng.sample(edges, len(edges) // 1000)]
    return "".join(lines).encode("ascii")
