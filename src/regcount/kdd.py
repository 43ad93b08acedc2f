"""Closed-form exact counts for K_{d,d} and disjoint unions of its copies.

A matching meets each K_{d,d} copy in some number of edges, so the union's
matching counts are convolution powers of the single-copy counts; the same
holds for independent sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DivisibilityError, DomainError


@dataclass(frozen=True)
class UnionParams:
    """Shape of a disjoint union of K_{d,d} copies on n vertices."""

    n: int
    d: int
    copies: int


def union_params(n: int, d: int) -> UnionParams:
    if d < 1 or n % (2 * d) != 0:
        raise DivisibilityError(f"need 2d | n with d >= 1, got n={n}, d={d}")
    return UnionParams(n, d, n // (2 * d))


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


def _convolution_power(base: tuple[int, ...], copies: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(copies):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, x in enumerate(out):
            if x:
                for j, y in enumerate(base):
                    nxt[i + j] += x * y
        out = tuple(nxt)
    return out


@lru_cache(maxsize=None)
def _union_matching_coeffs(d: int, copies: int) -> tuple[int, ...]:
    base = tuple(kdd_matching_count(d, a) for a in range(d + 1))
    return _convolution_power(base, copies)


@lru_cache(maxsize=None)
def _union_independent_coeffs(d: int, copies: int) -> tuple[int, ...]:
    base = tuple(kdd_independent_count(d, t) for t in range(d + 1))
    return _convolution_power(base, copies)


def union_matching_count(p: UnionParams, ell: int) -> int:
    """Exact number of size-ell matchings of the K_{d,d} union."""
    if not 0 <= ell <= p.n // 2:
        raise DomainError(f"ell must lie in [0, {p.n // 2}], got {ell}")
    return _union_matching_coeffs(p.d, p.copies)[ell]


def union_independent_count(p: UnionParams, t: int) -> int:
    """Exact number of size-t independent sets of the K_{d,d} union."""
    if not 0 <= t <= p.n // 2:
        raise DomainError(f"t must lie in [0, {p.n // 2}], got {t}")
    return _union_independent_coeffs(p.d, p.copies)[t]

