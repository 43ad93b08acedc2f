"""Closed-form counts for complete bipartite blocks and their unions.

Each closed form is checked against the generic polynomial of the actual
graph, which itself is oracle-tested in test_counting.py.
"""

import math

import pytest

from regcount import (
    DivisibilityError,
    DomainError,
    bregman_pm,
    build_kdd,
    build_kdd_union,
    independence_polynomial,
    kdd_independent_count,
    kdd_matching_count,
    matching_polynomial,
    union_independent_count,
    union_matching_count,
    union_params,
)


def test_single_block_counts_match_polynomials():
    for d in range(1, 5):
        g = build_kdd(d)
        mpoly = matching_polynomial(g).coefficients
        ipoly = independence_polynomial(g).coefficients
        for a in range(d + 1):
            assert kdd_matching_count(d, a) == mpoly[a]
            assert kdd_independent_count(d, a) == ipoly[a]


def test_single_block_spot_values():
    assert kdd_matching_count(3, 2) == math.comb(3, 2) ** 2 * 2
    assert kdd_matching_count(4, 4) == math.factorial(4)
    assert kdd_independent_count(3, 2) == 6
    assert kdd_independent_count(5, 0) == 1


def test_union_counts_match_polynomials():
    for n, d in ((4, 1), (8, 1), (8, 2), (12, 2), (12, 3)):
        p = union_params(n, d)
        g = build_kdd_union(n, d)
        mpoly = matching_polynomial(g).coefficients
        ipoly = independence_polynomial(g).coefficients
        for k in range(n // 2 + 1):
            want_m = mpoly[k] if k < len(mpoly) else 0
            want_i = ipoly[k] if k < len(ipoly) else 0
            assert union_matching_count(p, k) == want_m
            assert union_independent_count(p, k) == want_i


def test_union_spot_values():
    p = union_params(8, 2)
    assert [union_matching_count(p, k) for k in range(5)] == [1, 8, 20, 16, 4]
    assert [union_independent_count(p, t) for t in range(5)] == [1, 8, 20, 16, 4]


def test_domain_validation():
    with pytest.raises(DivisibilityError):
        union_params(7, 2)
    with pytest.raises(DivisibilityError):
        union_params(8, 3)
    with pytest.raises(DivisibilityError):
        union_params(8, 0)
    with pytest.raises(DomainError):
        kdd_matching_count(3, 4)
    with pytest.raises(DomainError):
        kdd_independent_count(0, 0)
    p = union_params(8, 2)
    with pytest.raises(DomainError):
        union_matching_count(p, 5)
    with pytest.raises(DomainError):
        union_independent_count(p, -1)


def test_bregman_equality_on_block_unions():
    # the bound is tight exactly on disjoint unions of balanced complete
    # bipartite blocks: pm = (d!)^copies, so pm^(2d) = (d!)^n
    for n, d in ((8, 2), (12, 3), (6, 3)):
        p = union_params(n, d)
        pm = union_matching_count(p, n // 2)
        assert pm == math.factorial(d) ** p.copies
        b = bregman_pm(n, d)
        assert b.lhs(pm) == b.rhs


def test_bregman_strict_on_cycle(c8):
    # C8 is bipartite and 2-regular; it has just 2 perfect matchings while
    # the bound allows 2^2: 2^4 < (2!)^8
    pm = matching_polynomial(c8).coefficients[4]
    assert pm == 2
    b = bregman_pm(8, 2)
    assert b.holds(pm) and b.lhs(pm) < b.rhs
    assert not b.holds(5)


def test_bregman_rejects_bad_degrees():
    with pytest.raises(DomainError):
        bregman_pm(8, 0)
    with pytest.raises(DomainError):
        bregman_pm(8, -2)
