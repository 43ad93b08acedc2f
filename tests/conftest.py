"""Shared fixtures: named small graphs and the verification corpus, and
two graph constructions that only tests use."""

import random

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


@pytest.fixture(scope="session")
def large_cubic():
    """A random cubic graph on 150 vertices, beyond the counting DP's state
    limit for both polynomials: stubs are paired at random until the
    pairing is simple."""
    n = 150
    rng = random.Random(n)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return build_graph(n, sorted(edges))


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
