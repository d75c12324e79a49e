"""Conductance classification rule on hand-checked cases.

Acceptance criterion 5 compares it with an exact rational oracle.
"""

from commspread import Cover, cover_stats
from commspread.traversal import classify_by_conductance

from oracles import graph_from_edges


def test_regression_large_outside_volume_joins():
    # Cluster volume 5, target degree 3 with one edge inside, two stray cut
    # edges, outside volume 32: the closed-form bound is 9/13 < 1 -> absorb.
    assert classify_by_conductance(3, 1, 5, 32, 2) is True


def test_regression_bound_exactly_met_is_broker():
    # Bound evaluates exactly to the target's inside-edge count: equality
    # means no strict decrease, so the node stays a broker.
    assert classify_by_conductance(4, 1, 8, 28, 3) is False


def test_degenerate_volumes():
    assert classify_by_conductance(0, 0, 5, 7, 1) is False  # isolated target
    assert classify_by_conductance(2, 0, 0, 4, 0) is False  # empty cluster
    assert classify_by_conductance(2, 2, 6, 0, 1) is True  # absorbs the rest
    assert classify_by_conductance(2, 0, 2, 0, 0) is False  # no cut to remove


def test_single_node_cluster_conductance_is_one():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    labels = [0] * g.n
    labels[g.labels.index("a")] = 1
    assert cover_stats(g, Cover(labels)).conductances[1] == 1.0
