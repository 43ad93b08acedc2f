"""Shared fixtures: named small graphs and the verification corpus, the
graph constructions that only tests use, the brute-force counting oracles,
and the polynomial oracles: a schoolbook product and a shared-root test by
Sylvester matrices, with no gcd.

The oracles enumerate subsets with itertools and read only g.edges and
has_edge, with no bitmasks and no recursion, so they share nothing with the
package's counting paths.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from regcount import DivisibilityError, GenSpec, build_graph, build_kdd, generate

CORPUS_GRID = ((4, 2), (8, 2), (12, 2), (6, 3), (12, 3))


def disjoint_union(g1, g2):
    """Side-by-side union; the second operand's labels shift by g1.vertex_count."""
    shift = g1.vertex_count
    edges = [*g1.edges, *((u + shift, v + shift) for u, v in g2.edges)]
    return build_graph(
        g1.vertex_count + g2.vertex_count, edges, g1.allow_loops or g2.allow_loops
    )


def build_kdd_union(n, d):
    """Disjoint union of n/2d copies of K_{d,d} (requires 2d | n)."""
    if d < 1 or n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    g = build_graph(0, [])
    for _ in range(n // (2 * d)):
        g = disjoint_union(g, build_kdd(d))
    return g


@pytest.fixture(scope="session")
def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture(scope="session")
def c8():
    return build_graph(8, [(i, (i + 1) % 8) for i in range(8)])


@pytest.fixture(scope="session")
def k33():
    return build_kdd(3)


@pytest.fixture(scope="session")
def prism():
    return build_graph(
        6,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    )


@pytest.fixture(scope="session")
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def random_graph(rng, n, p):
    """A graph on n vertices with each pair an edge with probability p."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def oracle_matching_counts(g):
    """Size-indexed matching counts by plain subset enumeration."""
    edges = g.edges
    counts = [0] * (g.vertex_count // 2 + 1)
    for k in range(len(counts)):
        for subset in combinations(edges, k):
            seen = set()
            for u, v in subset:
                if u in seen or v in seen:
                    break
                seen.add(u)
                seen.add(v)
            else:
                counts[k] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def oracle_independent_counts(g):
    """Size-indexed independent-set counts by plain subset enumeration."""
    counts = [0] * (g.vertex_count + 1)
    for t in range(len(counts)):
        for subset in combinations(range(g.vertex_count), t):
            if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
                counts[t] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def poly_product(a, b):
    """The product of two coefficient lists, constant first, by the
    schoolbook convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def common_root(f, g):
    """Whether f and g (coefficients, constant first) share a complex root:
    whether their Sylvester matrix is singular, by exact elimination."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    rows = [[Fraction(x) for x in row] for row in rows]
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if rows[r][col]), None)
        if pivot is None:
            return True
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, m + n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return False


def pairing_model(n, d, rng):
    """A random d-regular graph on n vertices: stubs are paired at random
    until the pairing is simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return build_graph(n, sorted(edges))


@pytest.fixture(scope="session")
def large_cubic():
    """A random cubic graph on 150 vertices, beyond the counting DP's state
    limit for both polynomials."""
    return pairing_model(150, 3, random.Random(150))


@pytest.fixture(scope="session")
def corpus():
    """One list of graphs per grid pair, generated once per test session."""
    return {
        (n, d): list(generate(GenSpec(n, d))) for n, d in CORPUS_GRID
    }


@pytest.fixture(scope="session")
def small_corpus():
    """Every d-regular isomorphism class on at most 10 vertices, as
    (n, d, census_index, graph) tuples."""
    out = []
    for n in range(1, 11):
        for d in range(0, n):
            if (n * d) % 2:
                continue
            for idx, g in enumerate(generate(GenSpec(n, d))):
                out.append((n, d, idx, g))
    return out
