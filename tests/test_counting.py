"""Exact counting: polynomials, partition evaluation, homomorphisms.

The polynomial oracles are conftest's; the homomorphism oracle here is
written the same way, over itertools, with no bitmasks and no recursion, so
neither shares anything with the package's counting paths.
"""

import math
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcount import (
    DomainError,
    GenSpec,
    GraphError,
    ScaleError,
    build_graph,
    build_hardcore_target,
    count_homomorphisms,
    eval_partition,
    generate,
    graph_from_text,
    independence_polynomial,
    matching_polynomial,
)
from regcount.counting import MATCHING, CountPolynomial
from regcount.verify import hom_targets

from conftest import (
    disjoint_union,
    oracle_independent_counts,
    oracle_matching_counts,
    pairing_model,
    random_graph,
)


def oracle_hom_count(g, h):
    """Homomorphisms by checking every vertex map."""
    total = 0
    for image in product(range(h.vertex_count), repeat=g.vertex_count):
        if all(h.has_edge(image[u], image[v]) for u, v in g.edges):
            total += 1
    return total


def test_polynomials_match_oracle_on_random_graphs():
    rng = random.Random(7041)
    for n in range(0, 8):
        for p in (0.25, 0.5, 0.75):
            for _ in range(4):
                g = random_graph(rng, n, p)
                assert list(matching_polynomial(g).coefficients) == oracle_matching_counts(g)
                assert list(independence_polynomial(g).coefficients) == oracle_independent_counts(g)


def _low_coefficient_graphs():
    """Every (10,3) and (8,4) census graph, the circular ladder on 24
    vertices, and pairing-model graphs the counting DP takes milliseconds
    on."""
    yield from generate(GenSpec(10, 3))
    yield from generate(GenSpec(8, 4))
    ladder = Path(__file__).parent / "golden" / "circular-ladder-24.txt"
    yield graph_from_text(ladder.read_text())
    for seed, (n, d) in enumerate(((30, 3), (36, 3), (24, 4), (20, 5))):
        yield pairing_model(n, d, random.Random(seed))


def test_low_coefficients_match_edge_and_degree_counts():
    # m_1 = |E|; m_2 = binom(|E|, 2) less the pairs of edges sharing a
    # vertex, binom(deg v, 2) at each v; i_1 = n; i_2 = binom(n, 2) - |E|.
    for g in _low_coefficient_graphs():
        n, edges = g.vertex_count, g.edge_count
        degree = [0] * n
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        touching = sum(math.comb(k, 2) for k in degree)
        m = matching_polynomial(g).coefficients
        i = independence_polynomial(g).coefficients
        assert m[1:3] == (edges, math.comb(edges, 2) - touching), g
        assert i[1:3] == (n, math.comb(n, 2) - edges), g


def test_known_polynomials(c4, c8, k33, prism, petersen):
    assert matching_polynomial(c4).coefficients == (1, 4, 2)
    assert independence_polynomial(c4).coefficients == (1, 4, 2)
    assert matching_polynomial(c8).coefficients == (1, 8, 20, 16, 2)
    assert independence_polynomial(c8).coefficients == (1, 8, 20, 16, 2)
    assert matching_polynomial(k33).coefficients == (1, 9, 18, 6)
    assert independence_polynomial(k33).coefficients == (1, 6, 6, 2)
    assert matching_polynomial(prism).coefficients == (1, 9, 18, 4)
    assert independence_polynomial(prism).coefficients == (1, 6, 6)
    # cross-checked against the subset oracle rather than any published value
    assert list(matching_polynomial(petersen).coefficients) == oracle_matching_counts(petersen)


def test_polynomial_helpers(c4):
    poly = matching_polynomial(c4)
    assert poly.kind == MATCHING
    assert poly.degree == 2
    assert poly.coefficient(0) == 1
    assert poly.coefficient(17) == 0
    assert poly.to_json_strings() == ["1", "4", "2"]


def test_polynomials_reject_loops():
    g = build_graph(2, [(0, 0), (0, 1)], allow_loops=True)
    with pytest.raises(GraphError):
        matching_polynomial(g)
    with pytest.raises(GraphError):
        independence_polynomial(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_disjoint_union_multiplies_polynomials(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    g1 = random_graph(rng, data.draw(st.integers(min_value=0, max_value=5)), 0.5)
    g2 = random_graph(rng, data.draw(st.integers(min_value=0, max_value=5)), 0.5)
    u = disjoint_union(g1, g2)
    for which in (matching_polynomial, independence_polynomial):
        a = which(g1).coefficients
        b = which(g2).coefficients
        conv = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        assert list(which(u).coefficients) == conv


def test_eval_partition(c4):
    poly = matching_polynomial(c4)
    assert eval_partition(poly, Fraction(1)) == 7
    assert eval_partition(poly, Fraction(1, 2)) == Fraction(7, 2)
    assert eval_partition(poly, Fraction(0)) == 1
    lam = Fraction(2, 3)
    assert eval_partition(poly, lam) == sum(c * lam**k for k, c in enumerate(poly.coefficients))
    assert eval_partition(CountPolynomial((), MATCHING), lam) == 0
    with pytest.raises(DomainError):
        eval_partition(poly, Fraction(-1))


def test_hom_counts_match_oracle():
    rng = random.Random(551)
    targets = []
    # small targets, some with loops
    targets.append(build_graph(1, [(0, 0)], allow_loops=True))
    targets.append(build_graph(2, [(0, 1)]))
    targets.append(build_graph(2, [(0, 0), (0, 1)], allow_loops=True))
    targets.append(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
    targets.append(build_graph(3, [(0, 0), (0, 1), (1, 2)], allow_loops=True))
    for n in range(0, 5):
        for _ in range(4):
            g = random_graph(rng, n, 0.5)
            for h in targets:
                assert count_homomorphisms(g, h) == oracle_hom_count(g, h)


def test_hom_count_conventions(c4):
    empty = build_graph(0, [])
    k2 = build_graph(2, [(0, 1)])
    assert count_homomorphisms(empty, k2) == 1
    assert count_homomorphisms(empty, build_graph(0, [])) == 1
    # no homomorphism into a target with no edges from a graph with edges
    assert count_homomorphisms(k2, build_graph(2, [])) == 0
    # source with loops is rejected
    looped = build_graph(1, [(0, 0)], allow_loops=True)
    with pytest.raises(GraphError):
        count_homomorphisms(looped, k2)
    # isolated source vertices contribute a free factor
    iso = build_graph(3, [(0, 1)])
    assert count_homomorphisms(iso, k2) == 2 * 2


def test_hom_path_longer_than_recursion_limit():
    n = 3000
    path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    assert count_homomorphisms(path, build_graph(1, [(0, 0)], allow_loops=True)) == 1
    assert count_homomorphisms(path, build_graph(2, [(0, 1)])) == 2


def test_hom_complete_graph_into_hardcore_target():
    # A map from K_n into hardcore(c, a) sends at most one vertex to the a
    # unlooped vertices, which are pairwise non-adjacent, and the rest to the
    # c looped clique vertices: c^n + n * a * c^(n-1) maps.
    for n, c, a, maps in ((1, 1, 0, 1), (5, 2, 3, 272), (12, 4, 4, 218_103_808)):
        k = build_graph(n, list(combinations(range(n), 2)))
        assert maps == c**n + n * a * c ** (n - 1)
        assert count_homomorphisms(k, build_hardcore_target(c, a)) == maps


def test_hom_dp_raises_scale_error_fast(large_cubic):
    triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    start = time.perf_counter()
    with pytest.raises(ScaleError):
        count_homomorphisms(large_cubic, triangle)
    assert time.perf_counter() - start < 10


def _components_and_bipartite(g):
    """Component count and bipartiteness by a plain two-colouring search."""
    neighbours = {v: [] for v in range(g.vertex_count)}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour = {}
    components, bipartite = 0, True
    for root in range(g.vertex_count):
        if root in colour:
            continue
        components += 1
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in neighbours[u]:
                if v not in colour:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
                elif colour[v] == colour[u]:
                    bipartite = False
    return components, bipartite


def _closed_form_sources():
    """The circular ladder on 24 vertices, pairing-model graphs on 24 to 60
    vertices, and disjoint unions of them, all beyond the brute-force
    oracle's reach."""
    ladder = Path(__file__).parent / "golden" / "circular-ladder-24.txt"
    ladder = graph_from_text(ladder.read_text())
    rng = random.Random(2460)
    sizes = ((24, 3), (40, 3), (60, 3), (30, 4), (24, 5))
    cubic24, cubic40, cubic60, quartic30, quintic24 = (pairing_model(n, d, rng) for n, d in sizes)
    return [
        ladder, cubic24, cubic40, cubic60, quartic30, quintic24,
        disjoint_union(ladder, cubic24),
        disjoint_union(build_graph(3, []), cubic60),
    ]


def test_hom_counts_match_closed_forms():
    # hom(G, K2) = 2^(components) if G is bipartite and 0 otherwise;
    # hom(G, K1 with a loop) = 1.  Neither form shares code with the DP.
    k2 = build_graph(2, [(0, 1)])
    k1_loop = build_graph(1, [(0, 0)], allow_loops=True)
    bipartite_seen = set()
    for g in _closed_form_sources():
        components, bipartite = _components_and_bipartite(g)
        bipartite_seen.add(bipartite)
        assert count_homomorphisms(g, k2) == (2**components if bipartite else 0)
        assert count_homomorphisms(g, k1_loop) == 1
    assert bipartite_seen == {True, False}


def test_hom_cycles_into_complete_graphs():
    # hom(C_n, K_q) = (q - 1)^n + (-1)^n (q - 1), the chromatic polynomial
    # of the cycle.
    for n in (24, 25, 41, 60):
        cycle = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        for q in (2, 3, 4):
            k = build_graph(q, list(combinations(range(q), 2)))
            assert count_homomorphisms(cycle, k) == (q - 1) ** n + (-1) ** n * (q - 1)


@st.composite
def small_targets(draw, max_vertices=4):
    """Targets with loops allowed on any vertex."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k], allow_loops=True)


@st.composite
def small_graphs(draw, max_vertices=8):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_subset_dp_matches_oracles(g):
    assert list(matching_polynomial(g).coefficients) == oracle_matching_counts(g)
    assert list(independence_polynomial(g).coefficients) == oracle_independent_counts(g)


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_vertices=7), small_targets())
def test_hom_dp_matches_oracle(g, h):
    assert count_homomorphisms(g, h) == oracle_hom_count(g, h)


def test_subset_dp_edge_cases(c4, prism):
    empty = build_graph(0, [])
    assert matching_polynomial(empty).coefficients == (1,)
    assert independence_polynomial(empty).coefficients == (1,)
    k1 = build_graph(1, [])
    assert matching_polynomial(k1).coefficients == (1,)
    assert independence_polynomial(k1).coefficients == (1, 1)
    rng = random.Random(3301)
    cases = [
        build_graph(5, []),
        build_graph(6, [(1, 4)]),
        disjoint_union(c4, build_graph(2, [])),
        disjoint_union(build_graph(3, []), prism),
        disjoint_union(random_graph(rng, 5, 0.5), random_graph(rng, 6, 0.4)),
        disjoint_union(disjoint_union(c4, build_graph(1, [])), c4),
    ]
    for g in cases:
        assert list(matching_polynomial(g).coefficients) == oracle_matching_counts(g)
        assert list(independence_polynomial(g).coefficients) == oracle_independent_counts(g)


@pytest.fixture(scope="module")
def fourteen():
    """A fixed 14-vertex graph and its oracle counts."""
    g = random_graph(random.Random(1414), 14, 0.17)
    return g, oracle_matching_counts(g), oracle_independent_counts(g)


@settings(max_examples=40, deadline=None)
@given(perm=st.permutations(range(14)))
def test_coefficients_do_not_depend_on_vertex_order(fourteen, perm):
    g, matchings, independent = fourteen
    h = build_graph(14, [(perm[u], perm[v]) for u, v in g.edges])
    assert list(matching_polynomial(h).coefficients) == matchings
    assert list(independence_polynomial(h).coefficients) == independent


@pytest.fixture(scope="module")
def fourteen_homs(fourteen):
    """Each hom_targets target with its count from the fixed 14-vertex
    graph: up to 4^14 vertex maps, too many to check one by one."""
    g = fourteen[0]
    return [(h, count_homomorphisms(g, h)) for _, h, _ in hom_targets(0)]


@settings(max_examples=40, deadline=None)
@given(perm=st.permutations(range(14)))
def test_hom_counts_do_not_depend_on_vertex_order(fourteen, fourteen_homs, perm):
    g = fourteen[0]
    h_perm = build_graph(14, [(perm[u], perm[v]) for u, v in g.edges])
    assert [count_homomorphisms(h_perm, h) for h, _ in fourteen_homs] == [
        count for _, count in fourteen_homs
    ]


def test_path_longer_than_recursion_limit():
    n = sys.getrecursionlimit() + 100
    path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    # k-matchings of P_n: C(n-k, k); independent k-sets: C(n-k+1, k)
    assert matching_polynomial(path).coefficients == tuple(
        math.comb(n - k, k) for k in range(n // 2 + 1)
    )
    assert independence_polynomial(path).coefficients == tuple(
        math.comb(n - k + 1, k) for k in range((n + 1) // 2 + 1)
    )


def test_edgeless_graph_counts_fast():
    # Relabelling reads each mask's set bits, so 20,000 isolated vertices
    # cost one DP state each and no vertex-by-vertex mask scan (which took
    # over 10 s here).
    start = time.perf_counter()
    assert matching_polynomial(build_graph(20_000, [])).coefficients == (1,)
    assert time.perf_counter() - start < 5


def test_large_graph_raises_scale_error_fast(large_cubic):
    for count in (matching_polynomial, independence_polynomial):
        start = time.perf_counter()
        with pytest.raises(ScaleError):
            count(large_cubic)
        assert time.perf_counter() - start < 30
