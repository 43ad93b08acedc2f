"""Exhaustive d-regular generation, proven against oracles that share no code
with the generator:

* plain edge-subset filtering with factorial-time canonical dedup (n <= 6),
* the cycle-partition recurrence for labeled 2-regular counts,
* a residual-degree-multiset DP for labeled counts at any degree,
* an automorphism-counting completeness identity, sum over emitted classes of
  n!/|Aut| = labeled total, which simultaneously rules out duplicated and
  missing isomorphism classes,
* pairwise-distinct canonical labels over each census, each unchanged by a
  random relabelling,
* a brute-force maximum over all orderings for the canonicity test, for the
  adjacent-swap test that skips prefixes before it, and for the carry-down
  fact that lets generation search a prefix only where it branches (a
  beaten prefix stays beaten when extended),
* pinned SHA-256 digests of the emission order, which census names such as
  12v-3r-0042 index, for (10,4), (11,4), (12,3), (12,4) and (14,3),
* pinned counts of canonicity searches on (10,3) and (12,3), so a return to
  one search per prefix fails.
"""

import hashlib
import math
import random
import sys
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcount import (
    DomainError,
    GenSpec,
    ScaleError,
    bipartition,
    build_graph,
    build_kdd,
    canonical_form,
    generate,
)
from regcount._canon import better_codes

ALL_PAIRS = {n: list(combinations(range(n), 2)) for n in range(1, 7)}


def oracle_labeled_graphs(n, d):
    """Every labeled d-regular graph on n vertices by edge-subset filtering."""
    pairs = ALL_PAIRS[n]
    want_edges = n * d // 2
    out = []
    for mask in range(1 << len(pairs)):
        if mask.bit_count() != want_edges:
            continue
        degs = [0] * n
        edges = []
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                degs[u] += 1
                degs[v] += 1
                edges.append((u, v))
        if all(x == d for x in degs):
            out.append(frozenset(edges))
    return out


def oracle_canon(n, edges):
    """Minimal relabeling of an edge set over all n! permutations."""
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def labeled_two_regular(n):
    """Cycle-partition recurrence: the cycle through the last vertex has some
    length l >= 3, chosen companions in binom(n-1, l-1) ways and arranged in
    (l-1)!/2 ways."""
    if n == 0:
        return 1
    if n < 3:
        return 0
    total = 0
    for l in range(3, n + 1):
        total += (
            math.comb(n - 1, l - 1)
            * (math.factorial(l - 1) // 2)
            * labeled_two_regular(n - l)
        )
    return total


def labeled_regular_dp(n, d):
    """Labeled d-regular count by recursion on the residual-degree multiset.

    Fix one vertex of maximal residual r; it connects to r distinct others
    with positive residual.  The count of completions depends only on the
    multiset of residuals, so choices group by residual class.
    """

    @lru_cache(maxsize=None)
    def count(state):
        state = tuple(x for x in state if x > 0)
        if not state:
            return 1
        r = state[0]
        rest = state[1:]
        classes = sorted(set(rest), reverse=True)
        sizes = [sum(1 for x in rest if x == c) for c in classes]

        def split(i, need, ways, picked):
            if need == 0:
                reduced = []
                for c, size, k in zip(classes, sizes, picked + [0] * (len(classes) - len(picked))):
                    reduced.extend([c - 1] * k)
                    reduced.extend([c] * (size - k))
                return ways * count(tuple(sorted(reduced, reverse=True)))
            if i == len(classes):
                return 0
            total = 0
            for k in range(min(need, sizes[i]) + 1):
                total += split(i + 1, need - k, ways * math.comb(sizes[i], k), picked + [k])
            return total

        return split(0, r, 1, [])

    return count(tuple([d] * n))


def aut_count(g):
    """Order of the automorphism group by permutation backtracking."""
    n = g.vertex_count
    adj = [set() for _ in range(n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    perm = [-1] * n
    used = [False] * n
    found = 0

    def extend(i):
        nonlocal found
        if i == n:
            found += 1
            return
        for cand in range(n):
            if used[cand] or len(adj[cand]) != len(adj[i]):
                continue
            if all((j in adj[i]) == (perm[j] in adj[cand]) for j in range(i)):
                perm[i] = cand
                used[cand] = True
                extend(i + 1)
                used[cand] = False
        perm[i] = -1

    extend(0)
    return found


def oracle_is_bipartite(g):
    color = {}
    for start in range(g.vertex_count):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in range(g.vertex_count):
                if g.has_edge(u, v):
                    if v not in color:
                        color[v] = 1 - color[u]
                        queue.append(v)
                    elif color[v] == color[u]:
                        return False
    return True


@lru_cache(maxsize=None)
def gen_list(n, d, bipartite_only=False, isomorph_reject=True):
    return list(
        generate(GenSpec(n, d, bipartite_only=bipartite_only, isomorph_reject=isomorph_reject))
    )


def test_genspec_validation():
    with pytest.raises(DomainError):
        GenSpec(0, 0)
    with pytest.raises(DomainError):
        GenSpec(4, 4)
    with pytest.raises(DomainError):
        GenSpec(4, -1)
    with pytest.raises(DomainError):
        GenSpec(5, 3)
    with pytest.raises(ScaleError):
        GenSpec(15, 2)
    with pytest.raises(DomainError):
        GenSpec(n=5, d=3, isomorph_reject=False)
    with pytest.raises(ScaleError):
        GenSpec(15, 2, False, True)
    assert GenSpec(15, 2, isomorph_reject=False) == (15, 2, False, False)


@pytest.mark.parametrize(
    "n,d",
    [(4, 1), (4, 2), (5, 2), (5, 4), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (5, 0)],
)
def test_small_censuses_match_subset_oracle(n, d):
    labeled = oracle_labeled_graphs(n, d)
    assert len(gen_list(n, d, isomorph_reject=False)) == len(labeled)
    classes = {oracle_canon(n, e) for e in labeled}
    emitted = gen_list(n, d)
    assert len(emitted) == len(classes)
    assert {oracle_canon(n, g.edges) for g in emitted} == classes


def test_labeled_counts_match_both_recurrences():
    for n in range(3, 9):
        assert labeled_regular_dp(n, 2) == labeled_two_regular(n)
    known = {3: 1, 4: 3, 5: 12, 6: 70, 7: 465, 8: 3507}
    for n, want in known.items():
        assert labeled_two_regular(n) == want
    assert len(gen_list(7, 2, isomorph_reject=False)) == 465
    assert len(gen_list(8, 2, isomorph_reject=False)) == 3507
    assert len(gen_list(8, 3, isomorph_reject=False)) == labeled_regular_dp(8, 3) == 19355


def test_dp_is_complement_invariant():
    assert labeled_regular_dp(10, 6) == labeled_regular_dp(10, 3)
    assert labeled_regular_dp(8, 5) == labeled_regular_dp(8, 2)


@pytest.mark.parametrize(
    "n,d",
    [(8, 2), (8, 3), (10, 3), (12, 2), (12, 3), (10, 6)],
)
def test_census_completeness_identity(n, d):
    # sum over emitted classes of the orbit size n!/|Aut| recovers the labeled
    # total, so the emitted classes are exactly the isomorphism classes
    emitted = gen_list(n, d)
    total = 0
    for g in emitted:
        aut = aut_count(g)
        orbit, rem = divmod(math.factorial(n), aut)
        assert rem == 0
        total += orbit
    assert total == labeled_regular_dp(n, d)


def test_census_sizes():
    table = {
        (4, 2): 1,
        (6, 2): 2,
        (8, 2): 3,
        (12, 2): 9,
        (6, 3): 2,
        (8, 3): 6,
        (10, 3): 21,
        (6, 4): 1,
        (8, 5): 3,
        (10, 6): 21,
        (12, 3): 94,
    }
    for (n, d), want in table.items():
        assert len(gen_list(n, d)) == want, (n, d)


def test_bipartite_filter():
    only = gen_list(6, 3, bipartite_only=True)
    assert len(only) == 1
    assert canonical_form(only[0]) == canonical_form(build_kdd(3))
    for n, d in ((6, 2), (8, 2), (12, 3)):
        full = gen_list(n, d)
        bip = gen_list(n, d, bipartite_only=True)
        want = [g for g in full if oracle_is_bipartite(g)]
        assert len(bip) == len(want)
        assert {canonical_form(g) for g in bip} == {canonical_form(g) for g in want}
    for g in gen_list(8, 2, bipartite_only=True):
        assert bipartition(g) is not None


def test_complement_census_agrees():
    sparse = gen_list(8, 2)
    dense = gen_list(8, 5)
    assert len(dense) == len(sparse) == 3

    def complement(g):
        n = g.vertex_count
        return build_graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)],
        )

    assert {canonical_form(complement(g)) for g in dense} == {
        canonical_form(g) for g in sparse
    }


def test_edge_degrees():
    assert len(gen_list(1, 0)) == 1
    assert len(gen_list(2, 1)) == 1
    assert len(gen_list(5, 0)) == 1
    assert gen_list(5, 0)[0].edge_count == 0
    k5 = gen_list(5, 4)
    assert len(k5) == 1 and k5[0].edge_count == 10


def test_emission_is_deterministic():
    a = [g.edges for g in gen_list(10, 3)]
    b = [g.edges for g in gen_list(10, 3)]
    assert a == b


def test_canonical_form_scale_guard():
    with pytest.raises(ScaleError):
        canonical_form(build_graph(13, []))


@pytest.mark.parametrize(
    "n,d",
    [(8, 3), (10, 3), (12, 3), (10, 4), (10, 6), (12, 2)],
)
def test_canonical_form_separates_census(n, d):
    # The generator does not re-check its output, so this is where emission
    # is shown free of isomorphic duplicates, and each label is shown to
    # name the class, not the emitted labelling.
    emitted = gen_list(n, d)
    labels = [canonical_form(g) for g in emitted]
    assert len(set(labels)) == len(emitted)
    rng = random.Random(f"{n}:{d}")
    for g, label in zip(emitted, labels):
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(relabeled) == label


def oracle_beats_identity(g):
    """Does some ordering of g's vertices give a column code above the
    identity's?  Column of the vertex at position p: its loop bit, then its
    adjacency to the vertices at positions 0..p-1, position 0 most
    significant."""
    n = g.vertex_count

    def code(perm):
        cols = []
        for p, v in enumerate(perm):
            col = int(g.has_edge(v, v))
            for u in perm[:p]:
                col = col << 1 | g.has_edge(u, v)
            cols.append(col)
        return tuple(cols)

    identity = code(range(n))
    return any(code(perm) > identity for perm in permutations(range(n)))


@st.composite
def twin_heavy_graphs(draw):
    """Disjoint unions of one or two parts, each empty, complete, complete
    bipartite or random, on at most 7 vertices in all, randomly relabelled.
    Each part has loops on none, all or a random set of its vertices, so
    looped twins and looped vertices with unlooped twins both occur."""
    edges = []
    n = 0
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        size = draw(st.integers(min_value=1, max_value=7 - n))
        kind = draw(st.sampled_from(["empty", "complete", "bipartite", "random"]))
        part = range(n, n + size)
        if kind == "complete":
            edges += combinations(part, 2)
        elif kind == "bipartite":
            a = draw(st.integers(min_value=0, max_value=size))
            edges += [(u, v) for u in part[:a] for v in part[a:]]
        elif kind == "random":
            edges += [e for e in combinations(part, 2) if draw(st.booleans())]
        loops = draw(st.sampled_from(["none", "all", "random"]))
        edges += [
            (v, v) for v in part if loops == "all" or (loops == "random" and draw(st.booleans()))
        ]
        n += size
        if n == 7:
            break
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges], allow_loops=True)


def identity_columns(adj):
    """Column of each vertex p: its loop bit, then its adjacency to 0..p-1,
    vertex 0 highest."""
    return [
        (adj[p] >> p & 1) << p
        | sum(1 << (p - 1 - j) for j in range(p) if adj[p] >> j & 1)
        for p in range(len(adj))
    ]


@settings(max_examples=150, deadline=None)
@given(twin_heavy_graphs())
def test_beats_identity_matches_bruteforce_orderings(g):
    # Generation rejects a prefix at the search's first raise from the
    # identity columns; that raise must come exactly when some ordering
    # beats the identity.
    adj = g.adj
    raised = next(better_codes(adj, identity_columns(adj)), None) is not None
    assert raised == oracle_beats_identity(g)


def induced_prefix(g, k):
    """The subgraph induced on vertices 0..k-1, loops included."""
    return build_graph(k, [(u, v) for u, v in g.edges if v < k], allow_loops=True)


@settings(max_examples=150, deadline=None)
@given(twin_heavy_graphs())
def test_beaten_prefix_stays_beaten_when_extended(g):
    # Generation searches a prefix only where it branches, and a leaf
    # before it is emitted.  That is sound because an ordering of 0..k-1
    # that beats the identity, with vertex k put last, beats it on 0..k.
    beaten = [oracle_beats_identity(induced_prefix(g, k)) for k in range(1, g.vertex_count + 1)]
    assert beaten == sorted(beaten)


@settings(max_examples=150, deadline=None)
@given(twin_heavy_graphs())
def test_adjacent_swap_rejects_only_beaten_orderings(g):
    # The generator skips a column when swapping it with the previous one
    # raises the code, without running the full search.  Wherever that test
    # fires, some ordering must beat the identity.
    cols_rev = identity_columns(g.adj)
    if any(cols_rev[p + 1] >> 1 > cols_rev[p] for p in range(g.vertex_count - 1)):
        assert oracle_beats_identity(g)


def emission_digest(graphs):
    text = "\n".join(
        " ".join(f"{u}-{v}" for u, v in sorted(g.edges)) for g in graphs
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_emission_order_is_pinned(corpus):
    # Census names such as 12v-3r-0042 are emission indices, so the order is
    # part of every report: a change here renames graphs in every census.
    assert emission_digest(corpus[(12, 3)]) == (
        "1ceb625379bd95403108633478ae7f387f1efe198b2fdee241f3abd3511ebc40"
    )
    assert emission_digest(gen_list(10, 4)) == (
        "befa841f90e37760720a8425067286c3c98b9d2365b1422e5661d19ef96db702"
    )


def test_cubic_14_census_is_pinned():
    census = gen_list(14, 3)
    assert len(census) == 540
    assert emission_digest(census) == (
        "135da80170cf00f8bb9ef6e75eccd780e03f8c86259fe5cdfc99541b3c76b37a"
    )


@pytest.mark.parametrize(
    "n,d,size,digest",
    [
        (11, 4, 266, "8882d340a1049f968f78c45c3f9da55d28669fbd2d1428d35e0ab35fc6b65483"),
        (12, 4, 1547, "fef9a1a9ed88dabdd9734f1defd691a56912394a3793a05046bd86888ac42580"),
    ],
    ids=["11-4", "12-4"],
)
def test_quartic_censuses_are_pinned(n, d, size, digest):
    # Sizes are the published census counts of connected and disconnected
    # 4-regular graphs together.
    census = gen_list(n, d)
    assert len(census) == size
    assert emission_digest(census) == digest


@pytest.mark.parametrize("n,d,searches", [(10, 3, 356), (12, 3, 2205)])
def test_canonicity_searches_only_where_generation_branches(monkeypatch, n, d, searches):
    # One search per single-child chain and none at dead ends; searching
    # every prefix would take 836 and 5,836 searches on these censuses.
    # regcount.generate names the function, so take the module itself.
    module = sys.modules["regcount.generate"]
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return better_codes(*args)

    monkeypatch.setattr(module, "better_codes", counting)
    list(generate(GenSpec(n, d)))
    assert calls == searches
