"""Cover containers, dense renumbering and cover-file serialization."""

import io

import pytest

from commspread import Cover, read_cover_file, write_cover_file
from commspread.cover import UNASSIGNED, finalize

from oracles import communities, graph_from_edges


def test_communities_and_k():
    c = Cover([5, 5, 9])
    assert communities(c) == {5: {0, 1}, 9: {2}}
    assert c.k == 2
    assert c.assignment[2] == 9


def test_with_singletons_promotes_unassigned():
    c = Cover([5, 5, UNASSIGNED, UNASSIGNED])
    assert c.unassigned == [2, 3]
    assert communities(c) == {5: {0, 1}}
    assert c.k == 1
    full = c.with_singletons()
    assert full.assignment == [5, 5, 2, 3]
    assert not full.unassigned
    assert c.assignment == [5, 5, UNASSIGNED, UNASSIGNED]  # original untouched
    assert Cover([1]).with_singletons().assignment == [1]


def test_with_singletons_never_joins_an_existing_community():
    # Node 1's own id is node 2's label, so node 1 takes a fresh label.
    assert Cover([0, UNASSIGNED, 1]).with_singletons().assignment == [0, 2, 1]
    # Fresh labels start above every label, including the kept node ids.
    assert Cover([1, UNASSIGNED, UNASSIGNED]).with_singletons().assignment == [1, 3, 2]


def test_singletons_constructor():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    assert Cover.singletons(g).assignment == [0, 1, 2]


def test_finalize_renumbers_by_ascending_label():
    c = Cover([7, 3, 3, 9])
    assert finalize(c).assignment == [1, 0, 0, 2]


def test_finalize_rejects_unassigned():
    with pytest.raises(ValueError):
        finalize(Cover([1, UNASSIGNED]))


def test_cover_file_roundtrip():
    g = graph_from_edges([("b", "a"), ("a", "c")])
    cover = Cover([0, 1, 0])
    out = io.StringIO()
    write_cover_file(g, cover, out)
    # Sorted by external label: a, b, c.
    assert out.getvalue() == "a\t1\nb\t0\nc\t0\n"
    back = read_cover_file(g, io.StringIO(out.getvalue()))
    assert back.assignment == cover.assignment


def test_write_rejects_unassigned():
    g = graph_from_edges([("a", "b")])
    with pytest.raises(ValueError):
        write_cover_file(g, Cover([0, UNASSIGNED]), io.StringIO())


def test_read_rejects_unknown_labels():
    g = graph_from_edges([("a", "b")])
    with pytest.raises(ValueError, match="unknown node labels.*z"):
        read_cover_file(g, io.StringIO("a\t0\nb\t0\nz\t1\n"))


def test_read_rejects_missing_nodes():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="missing nodes.*c"):
        read_cover_file(g, io.StringIO("a\t0\nb\t0\n"))


@pytest.mark.parametrize(
    "text,message",
    [
        ("a\t0\nb 0\nc\t0\n", "line 2: expected label<TAB>community id"),
        ("a\t0\nb\tx\nc\t0\n", "line 2: community id is not an integer"),
        ("a\t0\nb\t-1\nc\t0\n", "line 2: community id must be non-negative"),
        ("a\t0\nb\t0\na\t1\nc\t0\n", "line 3: node 'a' listed twice"),
    ],
    ids=["no-tab", "non-integer", "negative", "duplicate"],
)
def test_read_rejects_malformed_line_naming_it(text, message):
    g = graph_from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match=message):
        read_cover_file(g, io.StringIO(text))
