"""Graph construction, predicates, and the text format."""

import pytest

from regcount import graphs
from regcount import (
    DivisibilityError,
    DomainError,
    GraphError,
    ScaleError,
    bipartition,
    build_graph,
    build_hardcore_target,
    build_kdd,
    build_kdd_union,
    disjoint_union,
    graph_from_text,
    graph_to_text,
    has_perfect_matching,
    max_matching_size,
    regular_degree,
)


def test_build_graph_basics(c4):
    assert c4.vertex_count == 4
    assert c4.edge_count == 4
    assert c4.degree(0) == 2
    assert c4.has_edge(0, 1) and c4.has_edge(1, 0)
    assert not c4.has_edge(0, 2)
    assert c4.degree_sequence() == [2, 2, 2, 2]


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        build_graph(-1, [])
    # loops allowed only when asked for
    g = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
    assert g.edge_count == 2


def test_regular_degree():
    assert regular_degree(build_graph(3, [])) == 0
    assert regular_degree(build_graph(0, [])) == 0
    assert regular_degree(build_kdd(3)) == 3
    path = build_graph(3, [(0, 1), (1, 2)])
    assert regular_degree(path) is None


def test_bipartition_deterministic(c4, k33, prism):
    b = bipartition(c4)
    assert b.class_a == frozenset({0, 2})
    assert b.class_b == frozenset({1, 3})
    b = bipartition(k33)
    assert b.class_a == frozenset({0, 1, 2})
    assert bipartition(prism) is None
    # odd cycle
    assert bipartition(build_graph(3, [(0, 1), (1, 2), (0, 2)])) is None
    # empty graph: everything in class_a
    b = bipartition(build_graph(3, []))
    assert b.class_a == frozenset({0, 1, 2}) and b.class_b == frozenset()


def test_max_matching_and_perfect_matching(c4, c8, prism, petersen):
    assert max_matching_size(c4) == 2
    assert max_matching_size(c8) == 4
    assert max_matching_size(prism) == 3
    assert max_matching_size(petersen) == 5
    assert has_perfect_matching(c4)
    assert has_perfect_matching(petersen)
    path = build_graph(3, [(0, 1), (1, 2)])
    assert max_matching_size(path) == 1
    assert not has_perfect_matching(path)
    # empty graph has the empty perfect matching
    assert has_perfect_matching(build_graph(0, []))


def test_max_matching_memo_is_capped(monkeypatch, petersen):
    monkeypatch.setattr(graphs, "MATCHING_MEMO_LIMIT", 10)
    with pytest.raises(ScaleError):
        max_matching_size(petersen)


def test_build_kdd_shape():
    g = build_kdd(2)
    assert g.vertex_count == 4 and g.edge_count == 4
    assert regular_degree(g) == 2
    b = bipartition(g)
    assert b.class_a == frozenset({0, 1})
    with pytest.raises(DomainError):
        build_kdd(0)


def test_build_kdd_union():
    g = build_kdd_union(8, 2)
    assert g.vertex_count == 8 and g.edge_count == 8
    assert regular_degree(g) == 2
    with pytest.raises(DivisibilityError):
        build_kdd_union(6, 2)
    with pytest.raises(DivisibilityError):
        build_kdd_union(8, 0)


def test_build_hardcore_target():
    # independent part first, then the looped clique, fully joined
    h = build_hardcore_target(2, 2)
    assert h.vertex_count == 4
    assert not h.has_edge(0, 1)           # independent pair
    assert h.has_edge(2, 2) and h.has_edge(3, 3)  # loops on the clique
    assert h.has_edge(2, 3)
    assert all(h.has_edge(i, j) for i in (0, 1) for j in (2, 3))
    # zero independent vertices: just the looped clique
    h = build_hardcore_target(2, 0)
    assert h.vertex_count == 2 and h.edge_count == 3


def test_disjoint_union(c4):
    g = disjoint_union(c4, c4)
    assert g.vertex_count == 8 and g.edge_count == 8
    assert g.has_edge(4, 5) or g.has_edge(4, 7)
    assert not any(g.has_edge(u, v) for u in range(4) for v in range(4, 8))


def test_text_roundtrip(c4, prism):
    for g in (c4, prism):
        assert graph_from_text(graph_to_text(g)) == g
    h = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
    assert graph_from_text(graph_to_text(h)) == h


def test_text_rejects_malformed():
    with pytest.raises(GraphError):
        graph_from_text("")
    with pytest.raises(GraphError):
        graph_from_text("2 1\n0 1")
    with pytest.raises(GraphError):
        graph_from_text("2 2 0\n0 1")
    with pytest.raises(GraphError):
        graph_from_text("2 1 0\n1 0")  # not normalized
    with pytest.raises(GraphError):
        graph_from_text("3 2 0\n1 2\n0 1")  # not sorted
    with pytest.raises(GraphError):
        graph_from_text("2 1 2\n0 1")  # bad loops flag
    with pytest.raises(GraphError):
        graph_from_text("2 1 0\n0 x")
