"""Graph construction, predicates, and the text format."""

import pickle
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcount import (
    DivisibilityError,
    DomainError,
    GraphError,
    ScaleError,
    bipartition,
    build_graph,
    build_hardcore_target,
    build_kdd,
    graph_from_text,
    graph_to_text,
    matching_polynomial,
    regular_degree,
)
from regcount.generate import _complement
from regcount.verify import GraphProfile

from conftest import build_kdd_union, disjoint_union


def test_build_graph_basics(c4):
    assert c4.vertex_count == 4
    assert c4.edge_count == 4
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


def oracle_max_matching_size(g):
    """Maximum matching size by branching on the lowest vertex that still has
    a neighbor: it stays unmatched or is matched to one of its neighbors.
    Shares no code with the matching-polynomial DP."""
    nbrs = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    @lru_cache(maxsize=None)
    def best(active):
        v = min((v for v in active if nbrs[v] & active), default=None)
        if v is None:
            return 0
        rest = active - {v}
        return max([best(rest)] + [1 + best(rest - {u}) for u in nbrs[v] & rest])

    return best(frozenset(range(g.vertex_count)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_matching_polynomial_degree_is_max_matching_size(data):
    n = data.draw(st.integers(min_value=0, max_value=10))
    pairs = list(combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, k in zip(pairs, keep) if k])
    assert matching_polynomial(g).degree == oracle_max_matching_size(g)


def test_max_matching_and_perfect_matching(c4, c8, prism, petersen):
    def nu(g):
        return matching_polynomial(g).degree

    def has_pm(g):
        return GraphProfile(g).has_perfect_matching

    assert nu(c4) == 2
    assert nu(c8) == 4
    assert nu(prism) == 3
    assert nu(petersen) == 5
    assert has_pm(c4)
    assert has_pm(petersen)
    path = build_graph(3, [(0, 1), (1, 2)])
    assert nu(path) == 1
    assert not has_pm(path)
    # empty graph has the empty perfect matching
    assert has_pm(build_graph(0, []))
    # the circulant C_40(1, 20): 40 vertices, read off the matching polynomial
    c40 = build_graph(40, {tuple(sorted((i, (i + s) % 40))) for i in range(40) for s in (1, 20)})
    assert regular_degree(c40) == 3
    assert nu(c40) == 20 and has_pm(c40)


def test_adjacency_masks_mark_loops_on_their_own_bit():
    g = build_graph(3, [(0, 0), (0, 1), (1, 2)], allow_loops=True)
    assert g.adj == (0b011, 0b101, 0b010)


@st.composite
def edge_lists(draw, loops=st.booleans()):
    """(n, edges, allow_loops): distinct edges in random order, each pair in
    a random orientation, loops among them only when allow_loops is set."""
    n = draw(st.integers(min_value=0, max_value=8))
    allow_loops = draw(loops)
    pairs = [(u, v) for u in range(n) for v in range(u if allow_loops else u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)], allow_loops


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_views_read_the_edges_back(case):
    n, edges, allow_loops = case
    g = build_graph(n, edges, allow_loops)
    normal = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert g.vertex_count == n
    assert g.edges == normal and g.edge_count == len(edges)
    present = set(normal)
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((min(u, v), max(u, v)) in present)
    degrees = [0] * n
    for u, v in normal:
        degrees[u] += 1
        if v != u:
            degrees[v] += 1
    assert g.degree_sequence() == degrees
    assert graph_from_text(graph_to_text(g)) == g
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(g, protocol)) == g


@settings(max_examples=200, deadline=None)
@given(edge_lists(loops=st.just(False)))
def test_complement_twice_is_the_graph(case):
    n, edges, _ = case
    g = build_graph(n, edges)
    h = _complement(g)
    assert h.edge_count == n * (n - 1) // 2 - len(edges)
    assert not set(h.edges) & set(g.edges)
    assert _complement(h) == g


def reference_two_colouring(g):
    """(class_a, class_b) by flood fill over neighbour sets, each component
    coloured from its lowest vertex; None if an edge joins one colour."""
    nbrs = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    colour = {}
    for root in range(g.vertex_count):
        if root in colour:
            continue
        colour[root] = 0
        todo = [root]
        while todo:
            u = todo.pop()
            for w in nbrs[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    todo.append(w)
    if any(colour[u] == colour[v] for u, v in g.edges):
        return None
    return (
        frozenset(v for v, c in colour.items() if c == 0),
        frozenset(v for v, c in colour.items() if c == 1),
    )


@st.composite
def near_bipartite_graphs(draw):
    """Up to 12 vertices, edges drawn across a random split (so most graphs
    are bipartite and many disconnected), at times with an odd cycle added."""
    n = draw(st.integers(0, 12))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cross = [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
    edges = draw(st.sets(st.sampled_from(cross))) if cross else set()
    if n >= 3 and draw(st.booleans()):
        k = draw(st.sampled_from(range(3, n + 1, 2)))
        cycle = draw(st.permutations(range(n)))[:k]
        edges |= {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(k)}
    return build_graph(n, sorted(edges))


@settings(max_examples=300, deadline=None)
@given(near_bipartite_graphs())
def test_bipartition_matches_reference_two_colouring(g):
    b = bipartition(g)
    assert (None if b is None else (b.class_a, b.class_b)) == reference_two_colouring(g)


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
    # Tabs separate fields as spaces do, and CRLF line ends are read as LF.
    crlf = graph_to_text(c4).replace(" ", "\t").replace("\n", "\r\n")
    assert graph_from_text(crlf) == c4


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
    # Fields are runs of 0-9, though int() reads most of the fields below.
    for text in (
        "2 1 0\n0 x",
        "\u0663 0 0",  # Arabic-Indic three
        "+3 0 0",
        "1_0 0 0",
        "-1 0 0",
        "2 1 0\n0 \uff11",  # full-width one
        "2 1 0\n+0 1",
        "1" * 5000 + " 0 0",  # past int()'s digit limit
        # Fields are separated by spaces and tabs only, though str.split()
        # also splits on the characters below.
        "2 1\x1c0\n0 1",  # file separator
        "2 1 0\n0\x0b1",  # vertical tab
        "2 1 0\n0\xa01",  # no-break space
    ):
        with pytest.raises(GraphError):
            graph_from_text(text)


def test_text_refuses_more_vertices_than_the_dp_before_building(monkeypatch):
    # The header alone decides: no mask per vertex is allocated first.
    from regcount.counting import DP_STATE_LIMIT

    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr("regcount.graphs.build_graph", no_build)
    for n in (DP_STATE_LIMIT + 1, 10_000_000):
        with pytest.raises(ScaleError, match=f"{n} vertices"):
            graph_from_text(f"{n} 0 0\n")
    with pytest.raises(AssertionError, match="the graph was built"):
        graph_from_text(f"{DP_STATE_LIMIT} 0 0\n")
