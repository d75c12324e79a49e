"""Tests of the benchmark's own output checks: ``python3 -m pytest perfbench``."""

import math

import pytest

from quality import modularity, nmi, parse_cover


def test_nmi_hand_computed():
    # H(A) = ln 2, H(B) = 3/4 ln 4/3 + 1/4 ln 4, I(A;B) = 3/4 ln 4/3.
    expected = 1.5 * math.log(4 / 3) / (1.5 * math.log(2) + 0.75 * math.log(4 / 3))
    assert nmi([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.343711, abs=1e-6)


def test_nmi_identical_partitions_score_one_under_relabeling():
    a = [0, 0, 1, 1, 2, 2, 2]
    assert nmi(a, a) == pytest.approx(1.0)
    assert nmi(a, [5, 5, 9, 9, 1, 1, 1]) == pytest.approx(1.0)
    assert nmi([3] * 4, [7] * 4) == 1.0


def test_nmi_independent_partitions_score_zero():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert nmi([0, 0, 0, 0], [0, 1, 2, 3]) == pytest.approx(0.0, abs=1e-12)


def test_modularity_two_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    label = {"0": 0, "1": 0, "2": 0, "3": 1, "4": 1, "5": 1}
    assert modularity(edges, label) == pytest.approx(2 * (3 / 7 - 0.25))


@pytest.mark.parametrize(
    "text, error",
    [
        ("a\t0\nb\t0\n", "missing"),
        ("a\t0\nb\t1\nc\t1\nd\t0\n", "unknown"),
        ("a\t0\na\t1\nb\t0\n", "repeats"),
        ("a\t0\nb\t2\nc\t0\n", "dense"),
        ("a 0\nb\t0\nc\t0\n", "malformed"),
    ],
)
def test_parse_cover_rejects_non_partitions(text, error):
    with pytest.raises(ValueError, match=error):
        parse_cover(text, {"a", "b", "c"})


def test_parse_cover_accepts_dense_partition():
    assert parse_cover("a\t1\nb\t0\nc\t1\n", {"a", "b", "c"}) == {"a": 1, "b": 0, "c": 1}
