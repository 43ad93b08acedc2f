"""Closed-form exact counts for K_{d,d} and the disjoint union of n/2d copies.

A matching meets each copy in some number of edges, so the union's matching
polynomial, a coefficient tuple as counting's, is a power (`poly.power`) of
the single-copy counts; the same holds for independent sets.
"""

from __future__ import annotations

import math

from . import poly
from .errors import DivisibilityError, DomainError


def has_union(n: int, d: int | None) -> bool:
    """Whether the K_{d,d} union on n vertices exists: d >= 1 and 2d | n.
    False, not an error, for a degree of None (an irregular graph) or 0."""
    return d is not None and d >= 1 and n % (2 * d) == 0


def union_copies(n: int, d: int) -> int:
    """The number n/2d of K_{d,d} copies in the union on n vertices."""
    if not has_union(n, d):
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    return n // (2 * d)


def kdd_matching_count(d: int, a: int) -> int:
    """Number of size-a matchings of K_{d,d}: binom(d,a)^2 a!
    (choose the endpoints in each class, then join them bijectively)."""
    if d < 1 or not 0 <= a <= d:
        raise DomainError(f"need 1 <= d and 0 <= a <= d, got d={d}, a={a}")
    return math.comb(d, a) ** 2 * math.factorial(a)


def kdd_independent_count(d: int, t: int) -> int:
    """Number of size-t independent sets of K_{d,d}: a nonempty one lies
    inside a single class, so 2 binom(d,t) for t >= 1 and 1 for t = 0."""
    if d < 1 or not 0 <= t <= d:
        raise DomainError(f"need 1 <= d and 0 <= t <= d, got d={d}, t={t}")
    return 1 if t == 0 else 2 * math.comb(d, t)


def union_matching_polynomial(n: int, d: int) -> tuple[int, ...]:
    """Exact matching polynomial of the K_{d,d} union on n vertices."""
    copies = union_copies(n, d)
    base = [kdd_matching_count(d, a) for a in range(d + 1)]
    return poly.power(base, copies)


def union_independence_polynomial(n: int, d: int) -> tuple[int, ...]:
    """Exact independence polynomial of the K_{d,d} union on n vertices."""
    copies = union_copies(n, d)
    base = [kdd_independent_count(d, t) for t in range(d + 1)]
    return poly.power(base, copies)


def union_block_misses(n: int, d: int) -> list[list[int]]:
    """How the t-subsets of one side of the union on n vertices meet its c =
    n/2d blocks, the sides of the K_{d,d} copies on that side: row t, for t
    in 0..n/2, holds at k how many t-subsets miss exactly k blocks, C(c, k)
    [x^t] ((1 + x)^d - 1)^(c - k): choose the k missed blocks, then a
    nonempty part of each other block."""
    copies = union_copies(n, d)
    hit = (0, *(math.comb(d, j) for j in range(1, d + 1)))
    powers = [(1,)]
    for _ in range(copies):
        powers.append(poly.product(powers[-1], hit))
    return [
        [math.comb(copies, k) * (p[t] if t < len(p) else 0) for k, p in enumerate(reversed(powers))]
        for t in range(n // 2 + 1)
    ]
