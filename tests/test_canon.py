"""Canonical labeling: permutation invariance and separation.

The oracles here are a brute-force minimum and maximum over all vertex
permutations, computed with plain tuples and no bit tricks, so they exercise
none of the code paths they check.  The census labels are pinned by digest,
so a change to any label fails here, not only in the benchmark.
"""

import hashlib
import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from regcount import GenSpec, build_graph, canonical_form, generate
from regcount._canon import better_codes, min_code

from conftest import random_graph


def oracle_code(g, perm):
    """The column code of g under the ordering perm."""
    cols = []
    for level, v in enumerate(perm):
        # loop bit first, then adjacency to earlier vertices, so the loop
        # bit ends at position `level` and perm[i]'s bit at level-1-i
        col = 1 if g.has_edge(v, v) else 0
        for i in range(level):
            col <<= 1
            if g.has_edge(perm[i], v):
                col |= 1
        cols.append(col)
    return tuple(cols)


def oracle_codes(g):
    """The column code of g under each of its n! orderings."""
    for perm in permutations(range(g.vertex_count)):
        yield oracle_code(g, perm)


def oracle_min_code(g):
    """Lexicographically minimal column code over all n! orderings."""
    return min(oracle_codes(g))


def package_min_code(g):
    return min_code(g.vertex_count, g.adj)


def test_min_code_matches_bruteforce_oracle():
    rng = random.Random(20240817)
    for n in range(1, 7):
        for p in (0.2, 0.5, 0.8):
            for _ in range(6):
                g = random_graph(rng, n, p)
                assert package_min_code(g) == oracle_min_code(g), g


def test_min_code_with_loops_matches_oracle():
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randint(1, 5)
        edges = set()
        for u in range(n):
            for v in range(u, n):
                if rng.random() < 0.4:
                    edges.add((u, v))
        g = build_graph(n, sorted(edges), allow_loops=True)
        assert package_min_code(g) == oracle_min_code(g), g


def raises_from(g, incumbent):
    """Run the search from `incumbent`; return its yields and final code."""
    best = list(incumbent)
    raises = [tuple(best) for _ in better_codes(g.adj, best)]
    return raises, tuple(best)


def assert_search_from(g, incumbent):
    # It yields iff some ordering beats the incumbent, each yield beats the
    # one before, and it ends at the maximum code whether it yielded or not.
    top = max(oracle_codes(g))
    raises, final = raises_from(g, incumbent)
    assert bool(raises) == (top > tuple(incumbent)), g
    assert all(a < b for a, b in zip([tuple(incumbent)] + raises, raises)), g
    assert final == top, g


def test_max_code_matches_bruteforce_maximum():
    # The search, run to the end from an incumbent below every code, raises
    # it to the maximum, and every raise yields a strictly greater code.
    rng = random.Random(7)
    for n in range(0, 8):
        for p in (0.2, 0.5, 0.8):
            for _ in range(6 if n < 7 else 2):
                edges = [
                    (u, v)
                    for u in range(n)
                    for v in range(u, n)
                    if rng.random() < (0.4 if u == v else p)
                ]
                assert_search_from(build_graph(n, edges, allow_loops=True), [-1] * n)


@st.composite
def twin_heavy_graphs(draw):
    """Blocks of up to three vertices that share their neighbours outside
    the block, each block a clique or an independent set, with loops drawn
    per block and then flipped on a few vertices, which splits their block."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    block = [b for b, size in enumerate(sizes) for _ in range(size)][:7]
    n, k = len(block), len(sizes)
    clique = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    linked = draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
    looped = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    flipped = draw(st.sets(st.integers(0, n - 1), max_size=2))
    edges = [(v, v) for v in range(n) if looped[block[v]] != (v in flipped)]
    for u in range(n):
        for v in range(u + 1, n):
            bu, bv = block[u], block[v]
            if clique[bu] if bu == bv else (bu, bv) in linked or (bv, bu) in linked:
                edges.append((u, v))
    return build_graph(n, edges, allow_loops=True)


@settings(max_examples=80, deadline=None)
@given(twin_heavy_graphs(), st.data())
def test_search_from_any_ordering_code(g, data):
    perm = data.draw(st.permutations(range(g.vertex_count)))
    assert_search_from(g, oracle_code(g, perm))


def test_search_on_the_smallest_and_looped_graphs():
    paw = [(0, 1), (1, 2), (0, 2), (2, 3)]
    graphs = [
        build_graph(0, []),
        build_graph(1, []),
        build_graph(1, [(0, 0)], allow_loops=True),
        # every vertex looped: the search starts from one cell of column 1
        build_graph(4, paw + [(v, v) for v in range(4)], allow_loops=True),
        # mixed loops: the search starts from two cells
        build_graph(5, paw + [(3, 4), (0, 0), (3, 3)], allow_loops=True),
    ]
    for g in graphs:
        n = g.vertex_count
        assert_search_from(g, [-1] * n)
        assert_search_from(g, oracle_code(g, range(n)))
    # an incumbent above every code is left alone
    assert raises_from(build_graph(2, [(0, 1)]), [1, -1]) == ([], (1, -1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_permutation_invariant(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    g = build_graph(n, edges)
    perm = data.draw(st.permutations(range(n)))
    relabeled = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
    assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_form_separates_nonisomorphic(c4):
    path4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    star4 = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    labels = {canonical_form(g) for g in (c4, path4, star4)}
    assert len(labels) == 3


def test_canonical_form_distinguishes_loops():
    plain = build_graph(1, [])
    looped = build_graph(1, [(0, 0)], allow_loops=True)
    assert canonical_form(plain) != canonical_form(looped)


def test_canonical_form_of_the_smallest_graphs():
    assert canonical_form(build_graph(0, [])) == "0:0"
    assert canonical_form(build_graph(1, [])) == "1:0"


def label_digest(graphs):
    text = "\n".join(canonical_form(g) for g in graphs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_census_labels_are_pinned(corpus):
    # verify-roots and verify-hom name graphs by these labels, so they are
    # part of those reports: a change here renames graphs there.
    assert label_digest(corpus[(12, 3)]) == (
        "d20d54caa26db54e0e34a3a7b341ae7d35619b2c432b507e5a1c966225ee651d"
    )
    assert label_digest(generate(GenSpec(10, 4))) == (
        "2dc0f878f791d0ef886eeafe7387f7440e7cefaed77f49ebaf4de5111c365a87"
    )
