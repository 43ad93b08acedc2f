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
    independence_polynomial,
    kdd_independent_count,
    kdd_matching_count,
    matching_polynomial,
    union_copies,
    union_independence_polynomial,
    union_matching_polynomial,
)
from regcount import kdd, poly
from regcount.cli import main
from regcount.verify import bound_verdict, suite_table, verify_union_lower_bounds

from conftest import build_kdd_union


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
    for n, d in ((4, 1), (8, 1), (8, 2), (12, 2), (12, 3), (16, 4), (24, 4), (20, 5)):
        g = build_kdd_union(n, d)
        assert union_matching_polynomial(n, d) == matching_polynomial(g)
        assert union_independence_polynomial(n, d) == independence_polynomial(g)


def test_union_spot_values():
    assert union_copies(12, 3) == 2
    assert union_matching_polynomial(8, 2).coefficients == (1, 8, 20, 16, 4)
    assert union_independence_polynomial(8, 2).coefficients == (1, 8, 20, 16, 4)


def test_each_union_polynomial_is_built_once(monkeypatch, capsys):
    calls = []
    power = poly.power

    def counted(base, copies):
        calls.append(copies)
        return power(base, copies)

    monkeypatch.setattr(poly, "power", counted)
    # verify-suite's table holds the union, and its union rows read it there.
    assert main(["verify-suite", "--n", "12", "--d", "3"]) == 0
    capsys.readouterr()
    assert calls == [2]
    calls.clear()
    assert main(["bounds", "--n", "24", "--d", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 2
    table = suite_table(12, 3)
    calls.clear()
    verify_union_lower_bounds(table)
    assert calls == []


def test_domain_validation():
    with pytest.raises(DivisibilityError):
        union_copies(7, 2)
    with pytest.raises(DivisibilityError):
        union_copies(8, 3)
    with pytest.raises(DivisibilityError):
        union_copies(8, 0)
    with pytest.raises(DomainError):
        kdd_matching_count(3, 4)
    with pytest.raises(DomainError):
        kdd_independent_count(0, 0)
    assert union_matching_polynomial(8, 2).degree == 4
    with pytest.raises(DomainError):
        union_independence_polynomial(8, 2).coefficient(-1)


def test_union_exists_exactly_where_union_copies_returns():
    shapes = [(12, 3), (8, 2), (4, 2), (7, 2), (8, 3), (9, 3), (8, 0), (8, -2)]
    assert [kdd.has_union(n, d) for n, d in shapes] == [True] * 3 + [False] * 5
    for n, d in shapes:
        if kdd.has_union(n, d):
            assert union_copies(n, d) == n // (2 * d)
        else:
            with pytest.raises(DivisibilityError):
                union_copies(n, d)
    # an irregular graph's degree is None: no union, and no error
    assert kdd.has_union(8, None) is False


def test_bregman_equality_on_block_unions():
    # the bound is tight exactly on disjoint unions of balanced complete
    # bipartite blocks: pm = (d!)^copies, so pm^(2d) = (d!)^n
    for n, d in ((8, 2), (12, 3), (6, 3)):
        pm = union_matching_polynomial(n, d).coefficient(n // 2)
        assert pm == math.factorial(d) ** union_copies(n, d)
        b = bregman_pm(n, d)
        assert b.lhs(pm) == b.rhs


def test_bregman_strict_on_cycle(c8):
    # C8 is bipartite and 2-regular; it has just 2 perfect matchings while
    # the bound allows 2^2: 2^4 < (2!)^8
    pm = matching_polynomial(c8).coefficients[4]
    assert pm == 2
    b = bregman_pm(8, 2)
    assert bound_verdict("bregman-pm", "C8", {}, pm, b).passed and b.lhs(pm) < b.rhs
    assert not bound_verdict("bregman-pm", "C8", {}, 5, b).passed


def test_bregman_rejects_bad_degrees():
    with pytest.raises(DomainError):
        bregman_pm(8, 0)
    with pytest.raises(DomainError):
        bregman_pm(8, -2)
