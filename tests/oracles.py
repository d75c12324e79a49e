"""Brute-force references that tests compare product code against."""

from __future__ import annotations

from fractions import Fraction

from commspread import Graph


def exact_conductance(g: Graph, members: set[int]) -> Fraction:
    """Rational set conductance; 0 when the smaller side has volume 0."""
    cut = sum(1 for u, v in g.edges() if (u in members) != (v in members))
    volume = sum(g.degree(v) for v in members)
    denom = min(volume, 2 * g.m - volume)
    if denom <= 0:
        return Fraction(0)
    return Fraction(cut, denom)


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
    w2 = g.total_weight()
    if w2 == 0:
        return 0.0
    k_v = g.strength(v)
    tot_cur = sum(g.strength(u) for u in range(g.n) if partition[u] == current)
    tot_tgt = sum(g.strength(u) for u in range(g.n) if partition[u] == target)
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
