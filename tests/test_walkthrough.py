"""Golden test on the committed 13-node example network.

With threshold 0.66 and the pendant node N as start, the traversal must
reproduce the documented discovery sequence (node, score, category, initial
label) row-for-row, and the full pipeline must land on the three planted
groups.
"""

import pytest

from commspread import RunConfig, detect, modularity, run_traversal
from commspread.traversal import NodeType

from oracles import communities

# (node, score to 2 decimals, category, initial community label)
GOLDEN_ROWS = [
    ("N", 0.00, NodeType.BROKER, "N"),
    ("L", 0.25, NodeType.BROKER, "L"),
    ("I", 0.25, NodeType.BROKER, "I"),
    ("K", 1.00, NodeType.COMMUNITY, "L"),
    ("M", 0.67, NodeType.COMMUNITY, "L"),
    ("C", 0.33, NodeType.BROKER, "C"),
    ("D", 0.33, NodeType.BROKER, "D"),
    ("B", 0.25, NodeType.BROKER, "B"),
    ("A", 1.00, NodeType.COMMUNITY, "D"),
    ("E", 1.00, NodeType.COMMUNITY, "D"),
    ("F", 0.50, NodeType.BROKER, "F"),
    ("G", 1.00, NodeType.COMMUNITY, "F"),
    ("H", 1.00, NodeType.COMMUNITY, "F"),
]

FINAL_COMMUNITIES = [
    ["A", "B", "C", "D", "E"],
    ["F", "G", "H", "I"],
    ["K", "L", "M", "N"],
]


def run(walkthrough):
    cfg = RunConfig(method="ins", threshold=0.66, start=walkthrough.id_of("N"))
    return cfg, run_traversal(walkthrough, cfg, trace=True)


def test_discovery_sequence_matches_golden_rows(walkthrough):
    g = walkthrough
    _, res = run(g)
    assert len(res.discovery_order) == g.n == 13
    for v, (node, score, category, label) in zip(res.discovery_order, GOLDEN_ROWS):
        assert g.label_of(v) == node
        assert round(res.ins[v], 2) == pytest.approx(score)
        assert res.node_type[v] == category
        assert g.label_of(res.community[v]) == label


def test_final_cover_matches_planted_groups(walkthrough):
    g = walkthrough
    cfg, _ = run(g)
    result = detect(g, cfg)
    comms = sorted(
        sorted(g.label_of(v) for v in mem)
        for mem in communities(result.cover).values()
    )
    assert comms == FINAL_COMMUNITIES
    assert modularity(g, result.cover) == pytest.approx(0.505, abs=0.005)


def test_final_labels_before_renumbering(walkthrough):
    # The three surviving communities keep the labels of the brokers that
    # seeded them: L, D and F.
    g = walkthrough
    cfg, res = run(g)
    result = detect(g, cfg)
    seeds = {min(mem) for mem in communities(result.cover).values()}
    labels = {g.label_of(v) for v in res.discovery_order[:1]}  # sanity: N first
    assert labels == {"N"}
    # finalize() renumbers densely to 0..2.
    assert set(result.cover.assignment) == {0, 1, 2}
    assert seeds == {g.id_of("A"), g.id_of("F"), g.id_of("K")}
